package dsm

// Protocol observation points for the coherence model checker
// (internal/check). A Probe receives fine-grained protocol events —
// interval closes, notice deliveries, diff applications, page fetches and
// invalidations, lock transfers — that together let an external oracle
// maintain a happens-before reference store and assert LRC invariants
// online. Probes are instrumentation only: they charge no virtual time and
// must never call back into the cluster (several events fire with a node's
// mutex held).

import (
	"time"

	"actdsm/internal/msg"
	"actdsm/internal/sim"
	"actdsm/internal/vm"
)

// ApplySource classifies the protocol path that applied a diff (or, for
// transitions, brought a page current).
type ApplySource uint8

// Apply sources.
const (
	// ApplyDemand is the demand fault path: a thread touched an invalid
	// page and pulled the pending diffs (or the full page) synchronously.
	ApplyDemand ApplySource = iota + 1
	// ApplyPrefetch is the barrier-release pull prefetch round.
	ApplyPrefetch
	// ApplyPush is a barrier-piggybacked pushed diff applied at release.
	ApplyPush
	// ApplyServer is a manager bringing its own copy current to serve a
	// PageRequest or to consolidate a page for garbage collection.
	ApplyServer
)

// String implements fmt.Stringer.
func (s ApplySource) String() string {
	switch s {
	case ApplyDemand:
		return "demand"
	case ApplyPrefetch:
		return "prefetch"
	case ApplyPush:
		return "push"
	case ApplyServer:
		return "server"
	default:
		return "unknown"
	}
}

// DeliverVia classifies the protocol path that delivered write notices to
// a node.
type DeliverVia uint8

// Delivery paths.
const (
	// ViaBarrier is the barrier release broadcast (the episode's union).
	ViaBarrier DeliverVia = iota + 1
	// ViaLockGrant is the notice suffix carried by a lock grant.
	ViaLockGrant
	// ViaPageRequest is a requester's pending set forwarded to the page
	// manager inside a PageRequest (the manager learns the notices too).
	ViaPageRequest
)

// String implements fmt.Stringer.
func (v DeliverVia) String() string {
	switch v {
	case ViaBarrier:
		return "barrier"
	case ViaLockGrant:
		return "lock-grant"
	case ViaPageRequest:
		return "page-request"
	default:
		return "unknown"
	}
}

// FetchKind classifies a remote data-movement round trip on the demand
// or server path, for the observability layer's stall attribution.
type FetchKind uint8

// Fetch kinds.
const (
	// FetchPage is a full-page fetch from the page manager.
	FetchPage FetchKind = iota + 1
	// FetchDiff is a serial per-writer diff fetch (DiffRequest).
	FetchDiff
	// FetchDiffBatch is a coalesced per-writer batch (DiffBatchRequest),
	// whose stall is the slowest round trip of the parallel fan-out.
	FetchDiffBatch
)

// String implements fmt.Stringer.
func (k FetchKind) String() string {
	switch k {
	case FetchPage:
		return "page"
	case FetchDiff:
		return "diff"
	case FetchDiffBatch:
		return "diff-batch"
	default:
		return "unknown"
	}
}

// Probe is a set of optional protocol event callbacks. All fields may be
// nil. Callbacks may run concurrently (transport server goroutines,
// fan-out legs); implementations must be safe for concurrent use, and the
// order of events on different nodes inside a fan-out varies. Several
// callbacks fire with the node's internal mutex held: they must return
// quickly and must not call into the Cluster.
type Probe struct {
	// IntervalClosed fires when a node closes interval notices[i].Interval
	// with the given write notices (one per dirty page with a non-empty
	// diff). All notices share the same Writer, Interval, and Lam. The
	// slice is valid only during the call (it is a view of the node's
	// causal history, which the next barrier truncates): copy what you
	// keep.
	IntervalClosed func(node int, notices []msg.Notice)
	// NoticesDelivered fires when write notices reach a node through a
	// consistency path. Re-deliveries (transport retries, re-run
	// episodes) fire again with the same notices; observers must be
	// idempotent, exactly like the protocol's own dedup. The slice is
	// valid only during the call (a grant's list is recycled after it):
	// copy what you keep.
	NoticesDelivered func(node int, via DeliverVia, notices []msg.Notice)
	// DiffApplied fires for every diff applied to a node's page copy,
	// with the notice naming it and the path that applied it.
	DiffApplied func(node int, src ApplySource, nt msg.Notice)
	// PageFetched fires when a full page image (with the manager's
	// applied-interval vector) replaces a node's copy. src is ApplyDemand
	// for demand faults and ApplyServer for recovery machinery (standby
	// reseeding, rejoin re-fetches) — the oracle's miss-conservation
	// check only counts the demand path.
	PageFetched func(node int, p vm.PageID, src ApplySource, appliedVT []int32)
	// PageInvalidated fires when garbage collection drops a non-manager
	// replica outright (copy, pending set, and applied vector all reset).
	PageInvalidated func(node int, p vm.PageID)
	// LockAcquired fires after a node has applied a lock grant's notices
	// (the acquire side of the happens-before edge).
	LockAcquired func(node int, lock int32)
	// LockReleased fires after a node has closed its interval and shipped
	// its release to the lock manager (the release side of the edge).
	LockReleased func(node int, lock int32)
	// BarrierReleased fires once per node per barrier episode, when the
	// release reaches the node (before its pushed diffs are applied).
	BarrierReleased func(node int, episode int32)
	// NodeCrashed fires when the membership view marks a node dead
	// (Config.FaultTolerance): its page copies, twins, and diff store are
	// gone and its manager roles have failed over to its ring successor.
	NodeCrashed func(node int)
	// NodeRejoined fires when a crashed node completes the recovery
	// protocol and re-enters the membership view with fresh state.
	NodeRejoined func(node int)

	// RemoteFetch fires for every remote data fetch with the faulting
	// thread (tid < 0 for server-side fetches: a manager consolidating a
	// page or the barrier push collection), the fetch classification, and
	// the requester's virtual-time wire stall. The observability layer
	// uses it to decompose per-thread stall into full-page vs. diff time.
	RemoteFetch func(node, tid int, k FetchKind, p vm.PageID, wire sim.Time)
	// PrefetchDone fires once per node per barrier-release prefetch round
	// with the number of pages brought current and the round's cost.
	PrefetchDone func(node, pages int, cost sim.Time)
	// TransportCall fires for every completed logical transport call
	// (after any retries) with the request kind, total wire bytes, and
	// the wall-clock latency. Unlike every other probe event it measures
	// real time, not virtual time; it is fed by the transport layer's
	// call observer (transport.WithCallObserver).
	TransportCall func(from, to int, kind msg.Kind, bytes int, wall time.Duration, failed bool)
}

// SetProbe installs p, replacing any previous probe. A nil p detaches.
// Install before driving traffic; installation is not synchronized with
// in-flight operations.
func (c *Cluster) SetProbe(p *Probe) { c.probe = p }

// probe event helpers: nil-safe wrappers so call sites stay one line.

func (c *Cluster) probeIntervalClosed(node int, notices []msg.Notice) {
	if c.probe != nil && c.probe.IntervalClosed != nil && len(notices) > 0 {
		c.probe.IntervalClosed(node, notices)
	}
}

func (c *Cluster) probeNoticesDelivered(node int, via DeliverVia, notices []msg.Notice) {
	if c.probe != nil && c.probe.NoticesDelivered != nil && len(notices) > 0 {
		c.probe.NoticesDelivered(node, via, notices)
	}
}

func (c *Cluster) probeDiffApplied(node int, src ApplySource, nt msg.Notice) {
	if c.probe != nil && c.probe.DiffApplied != nil {
		c.probe.DiffApplied(node, src, nt)
	}
}

func (c *Cluster) probePageFetched(node int, p vm.PageID, src ApplySource, vt []int32) {
	if c.probe != nil && c.probe.PageFetched != nil {
		c.probe.PageFetched(node, p, src, vt)
	}
}

func (c *Cluster) probePageInvalidated(node int, p vm.PageID) {
	if c.probe != nil && c.probe.PageInvalidated != nil {
		c.probe.PageInvalidated(node, p)
	}
}

func (c *Cluster) probeLockAcquired(node int, lock int32) {
	if c.probe != nil && c.probe.LockAcquired != nil {
		c.probe.LockAcquired(node, lock)
	}
}

func (c *Cluster) probeLockReleased(node int, lock int32) {
	if c.probe != nil && c.probe.LockReleased != nil {
		c.probe.LockReleased(node, lock)
	}
}

func (c *Cluster) probeBarrierReleased(node int, episode int32) {
	if c.probe != nil && c.probe.BarrierReleased != nil {
		c.probe.BarrierReleased(node, episode)
	}
}

func (c *Cluster) probeNodeCrashed(node int) {
	if c.probe != nil && c.probe.NodeCrashed != nil {
		c.probe.NodeCrashed(node)
	}
}

func (c *Cluster) probeNodeRejoined(node int) {
	if c.probe != nil && c.probe.NodeRejoined != nil {
		c.probe.NodeRejoined(node)
	}
}

func (c *Cluster) probeRemoteFetch(node, tid int, k FetchKind, p vm.PageID, wire sim.Time) {
	if c.probe != nil && c.probe.RemoteFetch != nil {
		c.probe.RemoteFetch(node, tid, k, p, wire)
	}
}

func (c *Cluster) probePrefetchDone(node, pages int, cost sim.Time) {
	if c.probe != nil && c.probe.PrefetchDone != nil {
		c.probe.PrefetchDone(node, pages, cost)
	}
}

func (c *Cluster) probeTransportCall(from, to int, kind msg.Kind, bytes int, wall time.Duration, failed bool) {
	if c.probe != nil && c.probe.TransportCall != nil {
		c.probe.TransportCall(from, to, kind, bytes, wall, failed)
	}
}
