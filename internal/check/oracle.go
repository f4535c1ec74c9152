// Package check is an online coherence model checker for the DSM's lazy
// release consistency protocol. An Oracle attaches to a dsm.Cluster
// through the protocol Probe (internal/dsm/observer.go) and the span
// access hook, and maintains an independent happens-before reference
// model — per-write (Lamport, writer, interval) provenance, per-node
// vector-clock fronts, and exact per-replica applied sets. Against that
// model it asserts, online:
//
//   - monotone numbering: each writer's closed intervals are consecutive
//     and its Lamport stamps strictly increase ("monotone-interval",
//     "monotone-lamport");
//   - exactly-once application: no diff is applied twice to the same
//     replica, including re-applies of updates already reflected by a
//     full-page fetch ("double-apply");
//   - ordered application: a diff is applied only after every earlier
//     registered interval of the same writer is reflected in the replica
//     ("apply-gap");
//   - causal delivery: the demand, prefetch, and push paths apply only
//     updates at or below the node's acquire front — a node never
//     consumes a write it has not been causally told about
//     ("apply-beyond-front"; the manager's serve path is exempt, since
//     consolidation legitimately runs ahead of the manager's own front,
//     as is the full-page fetch, which may carry the manager's newer
//     copy — the standard LRC relaxation);
//   - provenance: every applied diff was delivered as a write notice
//     first ("apply-unknown", "apply-undelivered");
//   - no lost updates: on every page read, every registered update
//     ordered at or before the reader's front is reflected in the copy
//     being read ("lost-update") — the invariant that catches broken
//     notice-set transitivity and partial push application;
//   - accounting conservation, at Finish: demand validations equal
//     Stats.RemoteMisses and prefetch + push validations equal
//     Stats.PrefetchedPages ("conservation").
//
// No invariant reads the order of events on different nodes, which the
// legs of the protocol's parallel fan-outs leave free. Each compares
// events of one node — its replicas' applies, fetches and invalidations,
// its front, its reads — or one writer's closes, and those are ordered by
// the node's own locks (probe callbacks fire under them) or by a
// happens-before edge through the transport: a close is registered
// before its notice leaves the writer, a notice is delivered before its
// diff is applied, and lock fronts move at releases and acquires, which
// the thread engine runs one at a time. So trials run the fan-out runner
// production uses (RunTrial does); with it, the 200-seed sweep (4,418
// trials) and 20 repeats of every default scenario at seeds 1–200 under
// their generated fault and crash plans (88,000 runs) found 0
// violations. Probe callbacks fire with node mutexes held, so the Oracle
// never calls back into the cluster; it only updates its own state under
// its own lock.
package check

import (
	"fmt"
	"sync"

	"actdsm/internal/dsm"
	"actdsm/internal/msg"
	"actdsm/internal/vm"
)

// Violation is one detected invariant breach.
type Violation struct {
	// Invariant is the short code of the broken invariant (see the
	// package comment).
	Invariant string
	// Node is the node at which the breach was observed.
	Node int
	// Detail is a human-readable description with the full provenance.
	Detail string
}

func (v Violation) String() string {
	return fmt.Sprintf("%s @ node %d: %s", v.Invariant, v.Node, v.Detail)
}

// maxViolations caps recorded violations so a badly broken run does not
// accumulate unbounded state; the first breach is what matters.
const maxViolations = 32

// regEntry is one registered write: interval iv of a writer on a page,
// with its Lamport stamp.
type regEntry struct {
	iv  int32
	lam int32
}

// pageView is the oracle's model of one node's replica of one page.
type pageView struct {
	// applied holds the exact set of (writer, interval) diffs applied to
	// this copy since the last full fetch or invalidation.
	applied map[[2]int32]bool
	// fetchVT is the high-water vector a full-page fetch reflected into
	// the copy (everything at or below it is present without a per-diff
	// apply event).
	fetchVT []int32
	// hw is the reflected high-water per writer: max of applied
	// intervals, fetchVT, and the node's own closes. Mirrors the
	// protocol's appliedVT, so the oracle's delivery dedup matches
	// staleOrDup exactly.
	hw []int32
	// pending is the delivered-but-unapplied notice set (the model of
	// the protocol's pending list).
	pending map[[2]int32]msg.Notice
	// prefIdx[w] is the index into the registry list of (page, w) below
	// which every entry has been verified reflected for this replica
	// (advanced by the read-front check).
	prefIdx map[int32]int
}

// Oracle is the online LRC reference model. Create with NewOracle,
// attach with Attach, drive traffic, then call Finish with the run's
// stats snapshot. Violations accumulates everything detected.
//
// Moved page homes (dsm.Cluster.QueueHomeMoves) need no oracle state:
// the model tracks causal fronts and per-replica applied sets, which
// are independent of which node serves a page. The serve-path
// consolidation exemption ("apply-beyond-front") already names the
// ApplySource rather than a fixed manager node, so it covers whichever
// node currently owns the page.
type Oracle struct {
	mu    sync.Mutex
	nodes int

	// reg maps (page, writer) to the ordered list of registered closes.
	reg map[[2]int32][]regEntry
	// lastIv and lastLam track each writer's numbering for monotonicity.
	lastIv  []int32
	lastLam []int32

	// nodeVC[n][w] is node n's happens-before front: the highest
	// interval of writer w ordered before n's current program point.
	nodeVC [][]int32
	// lockVC[lock] is the join of every holder's front at its release of
	// this lock. A pull serves the holder's whole known prefix at release
	// time, so the front an acquirer inherits is the chain of release
	// fronts — per lock; which node manages the lock plays no part.
	// Entries are dropped at barriers (the protocol clears its release
	// marks; a post-barrier pull is empty because the barrier already
	// delivered everything).
	lockVC map[int32][]int32

	pages map[[2]int32]*pageView // (node, page)

	// Validation counters by protocol path, for conservation.
	demandValid   int64
	prefetchValid int64
	pushValid     int64
	serverValid   int64
	// recoveryValid counts full-page fetches on the recovery path
	// (fault-tolerance standby reseeds and rejoin re-fetches), conserved
	// against Stats.RecoveryFetches.
	recoveryValid int64

	violations []Violation
}

// NewOracle builds an oracle for an n-node cluster.
func NewOracle(n int) *Oracle {
	o := &Oracle{
		nodes:   n,
		reg:     make(map[[2]int32][]regEntry),
		lastIv:  make([]int32, n),
		lastLam: make([]int32, n),
		nodeVC:  make([][]int32, n),
		lockVC:  make(map[int32][]int32),
		pages:   make(map[[2]int32]*pageView),
	}
	for i := range o.nodeVC {
		o.nodeVC[i] = make([]int32, n)
	}
	return o
}

// Attach installs the oracle's probe and access hook on a cluster. The
// cluster should be idle.
func (o *Oracle) Attach(c *dsm.Cluster) {
	c.SetProbe(&dsm.Probe{
		IntervalClosed:   o.intervalClosed,
		NoticesDelivered: o.noticesDelivered,
		DiffApplied:      o.diffApplied,
		PageFetched:      o.pageFetched,
		PageInvalidated:  o.pageInvalidated,
		LockAcquired:     o.lockAcquired,
		LockReleased:     o.lockReleased,
		BarrierReleased:  o.barrierReleased,
		NodeCrashed:      o.nodeCrashed,
		NodeRejoined:     o.nodeRejoined,
	})
	c.AddAccessHook(func(node, tid int, p vm.PageID, a vm.Access) {
		o.pageRead(node, p)
	})
}

// Violations returns a copy of everything detected so far.
func (o *Oracle) Violations() []Violation {
	o.mu.Lock()
	defer o.mu.Unlock()
	return append([]Violation(nil), o.violations...)
}

// Err returns nil if no invariant broke, or an error describing the
// first violation (and the total count).
func (o *Oracle) Err() error {
	o.mu.Lock()
	defer o.mu.Unlock()
	if len(o.violations) == 0 {
		return nil
	}
	return fmt.Errorf("check: %d violation(s); first: %s", len(o.violations), o.violations[0])
}

// Finish runs the end-of-run conservation checks against the cluster's
// stats snapshot and returns Err().
func (o *Oracle) Finish(snap dsm.Snapshot) error {
	o.mu.Lock()
	if o.demandValid != snap.RemoteMisses {
		o.flag("conservation", -1, fmt.Sprintf(
			"demand validations %d != Stats.RemoteMisses %d", o.demandValid, snap.RemoteMisses))
	}
	if o.prefetchValid+o.pushValid != snap.PrefetchedPages {
		o.flag("conservation", -1, fmt.Sprintf(
			"prefetch %d + push %d validations != Stats.PrefetchedPages %d",
			o.prefetchValid, o.pushValid, snap.PrefetchedPages))
	}
	if o.recoveryValid != snap.RecoveryFetches {
		o.flag("conservation", -1, fmt.Sprintf(
			"recovery validations %d != Stats.RecoveryFetches %d",
			o.recoveryValid, snap.RecoveryFetches))
	}
	o.mu.Unlock()
	return o.Err()
}

// Counts returns the oracle's per-path validation counters
// (demand, prefetch, push, server), for tests and reports.
func (o *Oracle) Counts() (demand, prefetch, push, server int64) {
	o.mu.Lock()
	defer o.mu.Unlock()
	return o.demandValid, o.prefetchValid, o.pushValid, o.serverValid
}

func (o *Oracle) flag(inv string, node int, detail string) {
	if len(o.violations) >= maxViolations {
		return
	}
	o.violations = append(o.violations, Violation{Invariant: inv, Node: node, Detail: detail})
}

func (o *Oracle) view(node int, page int32) *pageView {
	k := [2]int32{int32(node), page}
	pv, ok := o.pages[k]
	if !ok {
		pv = &pageView{
			applied: make(map[[2]int32]bool),
			fetchVT: make([]int32, o.nodes),
			hw:      make([]int32, o.nodes),
			pending: make(map[[2]int32]msg.Notice),
			prefIdx: make(map[int32]int),
		}
		o.pages[k] = pv
	}
	return pv
}

// --- probe event handlers ---

func (o *Oracle) intervalClosed(node int, notices []msg.Notice) {
	o.mu.Lock()
	defer o.mu.Unlock()
	w := int32(node)
	iv := notices[0].Interval
	lam := notices[0].Lam
	if iv != o.lastIv[node]+1 {
		o.flag("monotone-interval", node, fmt.Sprintf(
			"closed interval %d after %d (intervals must be consecutive)", iv, o.lastIv[node]))
	}
	if lam <= o.lastLam[node] {
		o.flag("monotone-lamport", node, fmt.Sprintf(
			"interval %d closed with Lamport %d <= previous %d", iv, lam, o.lastLam[node]))
	}
	if iv > o.lastIv[node] {
		o.lastIv[node] = iv
	}
	if lam > o.lastLam[node] {
		o.lastLam[node] = lam
	}
	for _, nt := range notices {
		if nt.Writer != w || nt.Interval != iv || nt.Lam != lam {
			o.flag("monotone-interval", node, fmt.Sprintf(
				"notice %+v does not match its close (writer %d interval %d lam %d)", nt, w, iv, lam))
			continue
		}
		o.reg[[2]int32{nt.Page, w}] = append(o.reg[[2]int32{nt.Page, w}], regEntry{iv: iv, lam: lam})
		// The writer's own copy reflects its own write immediately.
		pv := o.view(node, nt.Page)
		if iv > pv.hw[w] {
			pv.hw[w] = iv
		}
	}
	// The writer has trivially observed its own interval.
	if iv > o.nodeVC[node][node] {
		o.nodeVC[node][node] = iv
	}
}

func (o *Oracle) noticesDelivered(node int, via dsm.DeliverVia, notices []msg.Notice) {
	o.mu.Lock()
	defer o.mu.Unlock()
	for _, nt := range notices {
		if int(nt.Writer) == node {
			continue // own writes never queue
		}
		pv := o.view(node, nt.Page)
		key := [2]int32{nt.Writer, nt.Interval}
		// Mirror the protocol's staleOrDup: already reflected or already
		// queued notices are dropped, so re-deliveries stay idempotent.
		if nt.Interval <= pv.hw[nt.Writer] {
			continue
		}
		if _, ok := pv.pending[key]; ok {
			continue
		}
		pv.pending[key] = nt
	}
}

func (o *Oracle) diffApplied(node int, src dsm.ApplySource, nt msg.Notice) {
	o.mu.Lock()
	defer o.mu.Unlock()
	pv := o.view(node, nt.Page)
	key := [2]int32{nt.Writer, nt.Interval}

	// Provenance: the write must exist.
	if !o.registered(nt.Page, nt.Writer, nt.Interval) {
		o.flag("apply-unknown", node, fmt.Sprintf(
			"applied diff for unregistered write page %d writer %d interval %d (%s)",
			nt.Page, nt.Writer, nt.Interval, src))
		return
	}
	// Exactly-once: neither in the exact applied set nor already
	// reflected by a full fetch.
	if pv.applied[key] || nt.Interval <= pv.fetchVT[nt.Writer] {
		o.flag("double-apply", node, fmt.Sprintf(
			"page %d writer %d interval %d applied twice (%s path)",
			nt.Page, nt.Writer, nt.Interval, src))
		return
	}
	// Provenance: the apply must consume a delivered notice.
	if _, ok := pv.pending[key]; !ok {
		o.flag("apply-undelivered", node, fmt.Sprintf(
			"page %d writer %d interval %d applied without a delivered notice (%s path)",
			nt.Page, nt.Writer, nt.Interval, src))
	}
	// Causal front: demand, prefetch, and push consume only updates the
	// node has been told about through an acquire path. (The manager's
	// serve path legitimately runs ahead of its own front.)
	if src != dsm.ApplyServer && nt.Interval > o.nodeVC[node][nt.Writer] {
		o.flag("apply-beyond-front", node, fmt.Sprintf(
			"page %d writer %d interval %d applied via %s but node front is %d",
			nt.Page, nt.Writer, nt.Interval, src, o.nodeVC[node][nt.Writer]))
	}
	// Ordered application: every earlier registered interval of the same
	// writer must already be reflected in this copy.
	for _, e := range o.reg[[2]int32{nt.Page, nt.Writer}] {
		if e.iv >= nt.Interval {
			break
		}
		if !pv.applied[[2]int32{nt.Writer, e.iv}] && e.iv > pv.fetchVT[nt.Writer] {
			o.flag("apply-gap", node, fmt.Sprintf(
				"page %d writer %d interval %d applied before interval %d (%s path)",
				nt.Page, nt.Writer, nt.Interval, e.iv, src))
		}
	}

	pv.applied[key] = true
	if nt.Interval > pv.hw[nt.Writer] {
		pv.hw[nt.Writer] = nt.Interval
	}
	delete(pv.pending, key)
	if len(pv.pending) == 0 {
		// The replica just became valid; attribute it to the path.
		switch src {
		case dsm.ApplyDemand:
			o.demandValid++
		case dsm.ApplyPrefetch:
			o.prefetchValid++
		case dsm.ApplyPush:
			o.pushValid++
		case dsm.ApplyServer:
			o.serverValid++
		}
	}
}

func (o *Oracle) pageFetched(node int, p vm.PageID, src dsm.ApplySource, appliedVT []int32) {
	o.mu.Lock()
	defer o.mu.Unlock()
	pv := o.view(node, int32(p))
	for w, v := range appliedVT {
		if w >= o.nodes {
			break
		}
		if v > pv.fetchVT[w] {
			pv.fetchVT[w] = v
		}
		if v > pv.hw[w] {
			pv.hw[w] = v
		}
	}
	// The fetch replaced the copy and drained the pending set; the diffs
	// individually applied before it are subsumed by the new image.
	pv.applied = make(map[[2]int32]bool)
	pv.pending = make(map[[2]int32]msg.Notice)
	// A full fetch validates the replica on the demand path; recovery
	// fetches (standby reseeds, rejoin re-fetches) are conserved
	// separately against Stats.RecoveryFetches.
	if src == dsm.ApplyDemand {
		o.demandValid++
	} else {
		o.recoveryValid++
	}
}

// nodeCrashed models a crash under fault tolerance: the node's page
// copies, twins, and pending sets are gone. Its registered writes stay —
// the replicated diff store still serves them to survivors — and its
// interval numbering stays pinned: the recovery protocol must resume the
// writer's sequence exactly where the last replicated close left it, so
// the monotone-interval check is deliberately NOT relaxed.
func (o *Oracle) nodeCrashed(node int) {
	o.mu.Lock()
	defer o.mu.Unlock()
	for k := range o.pages {
		if int(k[0]) == node {
			delete(o.pages, k)
		}
	}
	// The node's happens-before front dies with it; a rejoin rebuilds it
	// from the standby's seen vector and the next barrier join.
	for w := range o.nodeVC[node] {
		o.nodeVC[node][w] = 0
	}
}

// nodeRejoined models recovery completion: the node re-entered the view.
// The crash handler already wiped its replica views and no event fires
// for a dead node in between, so nothing needs resetting here — the
// rejoin's eager home re-fetches (which fire before this event) have
// already seeded fresh views, and the next barrier release re-joins the
// node's front.
func (o *Oracle) nodeRejoined(node int) {}

func (o *Oracle) pageInvalidated(node int, p vm.PageID) {
	o.mu.Lock()
	defer o.mu.Unlock()
	k := [2]int32{int32(node), int32(p)}
	// The replica is gone: any later re-delivery and re-apply is a fresh
	// history on a fresh copy.
	delete(o.pages, k)
}

func (o *Oracle) lockAcquired(node int, lock int32) {
	o.mu.Lock()
	defer o.mu.Unlock()
	if vc, ok := o.lockVC[lock]; ok {
		join(o.nodeVC[node], vc)
	}
}

func (o *Oracle) lockReleased(node int, lock int32) {
	o.mu.Lock()
	defer o.mu.Unlock()
	vc, ok := o.lockVC[lock]
	if !ok {
		vc = make([]int32, o.nodes)
		o.lockVC[lock] = vc
	}
	join(vc, o.nodeVC[node])
}

func (o *Oracle) barrierReleased(node int, episode int32) {
	o.mu.Lock()
	defer o.mu.Unlock()
	// The barrier is a global synchronization: every interval closed
	// before it is ordered before every node's next access. The closes
	// for the episode fire during barrier phase 1, before any release is
	// delivered, so lastIv is the episode's exact front.
	join(o.nodeVC[node], o.lastIv)
	// The protocol clears every holder's release mark, so post-barrier
	// pulls serve nothing; the per-lock fronts restart.
	clear(o.lockVC)
}

// pageRead asserts the no-lost-update invariant: every registered write
// ordered at or before the reader's front is reflected in the copy being
// read. Runs on every span access; the per-writer verified-prefix index
// keeps it amortized O(1).
func (o *Oracle) pageRead(node int, p vm.PageID) {
	o.mu.Lock()
	defer o.mu.Unlock()
	page := int32(p)
	pv := o.view(node, page)
	front := o.nodeVC[node]
	for w := int32(0); int(w) < o.nodes; w++ {
		if int(w) == node {
			continue // own writes are reflected by construction
		}
		entries := o.reg[[2]int32{page, w}]
		idx := pv.prefIdx[w]
		for idx < len(entries) && entries[idx].iv <= front[w] {
			e := entries[idx]
			if !pv.applied[[2]int32{w, e.iv}] && e.iv > pv.fetchVT[w] {
				o.flag("lost-update", node, fmt.Sprintf(
					"read page %d with front covering writer %d interval %d, but the update was never applied",
					page, w, e.iv))
			}
			idx++
		}
		pv.prefIdx[w] = idx
	}
}

func (o *Oracle) registered(page, writer, interval int32) bool {
	for _, e := range o.reg[[2]int32{page, writer}] {
		if e.iv == interval {
			return true
		}
	}
	return false
}

// join folds src into dst element-wise (max).
func join(dst, src []int32) {
	for i := range dst {
		if i < len(src) && src[i] > dst[i] {
			dst[i] = src[i]
		}
	}
}
