package dsm

import (
	"cmp"
	"errors"
	"fmt"
	"slices"
	"sort"
	"sync"
	"time"

	"actdsm/internal/memlayout"
	"actdsm/internal/msg"
	"actdsm/internal/pool"
	"actdsm/internal/sim"
	"actdsm/internal/transport"
	"actdsm/internal/vm"
)

// Config describes a cluster.
type Config struct {
	// Nodes is the number of DSM nodes.
	Nodes int
	// Pages is the size of the shared segment in pages.
	Pages int
	// Topology, when non-nil, is the cluster's hardware: its Base cost
	// model, per-directed-link latencies and bandwidths, and per-node
	// compute scaling (the thread engine's node speeds and the
	// placement controller's capacities): protocol round trips are
	// charged at the actual (from, to) and (to, from) link costs
	// instead of the base MsgLatency/MsgPerByte. Its node count must
	// match Nodes. Nil selects sim.DefaultCosts and the uniform model; a
	// uniform Topology (sim.NewTopology) behaves identically to nil by
	// construction.
	Topology *sim.Topology
	// GCThresholdBytes triggers diff garbage collection when the
	// cluster-wide stored diff volume exceeds it at a barrier.
	// 0 selects a default; negative disables GC.
	GCThresholdBytes int
	// UseTCP routes protocol messages over real loopback TCP sockets
	// instead of in-process dispatch.
	UseTCP bool
	// Protocol selects the coherence protocol; zero value selects
	// MultiWriter.
	Protocol Protocol
	// Transport tunes call resilience: a per-attempt deadline
	// (CallTimeout, TCP only) and bounded retry with exponential
	// backoff and jitter (MaxAttempts > 1). The zero value keeps the
	// historical behaviour: no deadline, single attempt. Retries are
	// safe because every protocol message is idempotent at the
	// receiver — see DESIGN.md §6.
	Transport transport.Options
	// Chaos, when non-nil, wraps the transport with fault injection
	// (dropped requests and replies, delays, duplicates, partitions)
	// for resilience testing; it works over both Local and TCP.
	Chaos *transport.ChaosOptions
	// BatchDiffs coalesces diff fetches: instead of one DiffRequest per
	// writer applied serially, the fault path groups the needed
	// (page, interval) pairs per writer node and issues one
	// DiffBatchRequest per writer with parallel fan-out. The batch
	// request is a pure read of the writer's diff store (idempotent), so
	// it composes with transport retry exactly like DiffRequest.
	// Multi-writer protocol only. Default off.
	BatchDiffs bool
	// PrefetchBudget enables correlation-driven prefetch at barrier
	// release (Cluster.PrefetchRound): each node predicts the pages its
	// resident threads will touch — from an installed predictor
	// (SetPrefetchPredictor, fed by the tracker's access bitmaps) or,
	// absent one, from the node's fault window of the previous epoch —
	// and pulls the pending diffs for those pages ahead of demand,
	// batched per writer. 0 disables prefetch; > 0 caps the pages
	// prefetched per node per round; < 0 is unlimited. Multi-writer
	// protocol only.
	PrefetchBudget int
	// LockShards is the number of lock-manager shards locks hash into;
	// shard s is managed by node s mod Nodes. 0 selects one shard per
	// node (the default distribution, equivalent to the historical
	// lock mod Nodes placement); 1 centralizes every lock on node 0 —
	// the pre-decentralization baseline the managers benchmark
	// compares against. Negative is invalid.
	LockShards int
	// BarrierArity is the arity k of the barrier's k-ary tree (see
	// Barrier): enters aggregate up it and releases relay down it, so
	// the critical-path depth is O(log_k n). 0 = arity n-1, the flat
	// exchange with every node a child of the root. 1 and negative
	// values are invalid.
	BarrierArity int
	// FaultTolerance enables crash-fault tolerance for the decentralized
	// managers (DESIGN.md §12): every node replicates its interval state
	// and lock-manager state to its ring successor, manager roles fail
	// over to the successor when the membership view marks a node dead,
	// and crashed nodes rejoin through a recovery protocol. Requires the
	// multi-writer protocol and a Chaos transport (whose crash windows
	// are the failure ground truth). Composes with BatchDiffs and
	// PrefetchBudget: every diff fetch routes around a dead writer to the
	// replica store on its standby.
	FaultTolerance bool
}

// defaultGCThreshold reflects CVM's memory budget (194 MB nodes): diffs
// accumulate across several iterations before a collection — paper-scale
// SOR writes ~16 MB of diffs per iteration and CVM collected "periodically",
// not every barrier.
const defaultGCThreshold = 64 << 20

// Cluster is a running DSM cluster.
type Cluster struct {
	cfg        Config
	costs      sim.Costs
	topo       *sim.Topology
	shardCount int
	nodes      []*node
	tr         transport.Transport
	stats      Stats

	episode int32
	// barriers holds each node's barrier state (the root and every tree
	// position with children fold enters into theirs), guarded by
	// barrierMu because enters arrive on transport server goroutines.
	barrierMu sync.Mutex
	barriers  []barrierState
	ep        episode

	onRemoteFault func(node, tid int, p vm.PageID)
	onAccess      []func(node, tid int, p vm.PageID, a vm.Access)

	// prefetchPredict, when non-nil, supplies the predicted page set for
	// a node's prefetch round (see SetPrefetchPredictor).
	prefetchPredict func(node int) *vm.Bitmap

	// probe, when non-nil, receives protocol events for the coherence
	// model checker (see Probe).
	probe *Probe

	// chaos is the fault-injection wrapper when Config.Chaos is set. The
	// fault-tolerance layer reads it as the crash-state ground truth
	// (refreshView) and revives rejoining nodes through it.
	chaos *transport.Chaos

	// histMu guards the write history and the placement controller's
	// queued explicit home moves below.
	histMu sync.Mutex
	// writeHist accumulates per-(page, writer) write-notice counts over
	// every completed barrier episode, row-major page*Nodes+writer. The
	// placement controller windows it by differencing successive
	// WriteHistory snapshots.
	writeHist []int64
	// queuedHomes holds the placement controller's explicit page-home
	// moves (page → target node). They ride the next barrier episode's
	// release fan-out and clear once the episode succeeds.
	queuedHomes map[int32]int32

	// viewMu guards the membership view below. Failover routing takes
	// the read side on protocol paths; refreshView and the rejoin
	// protocol take the write side on membership changes.
	viewMu sync.RWMutex
	// dead[i] is true while node i is crashed out of the view.
	dead []bool
	// viewVer counts membership changes (diagnostics).
	viewVer int64
}

// barrierState accumulates one barrier episode at a folding tree
// position. entered and have deduplicate re-sent BarrierEnter messages
// (transport retries and episode re-runs both re-deliver), so
// counters and the notice union are exactly-once per episode. Each
// attempt truncates every list in place.
type barrierState struct {
	episode int32
	entered map[int32]bool
	lam     int32
	notices []msg.Notice // the union
	have    noticeSet    // what notices has taken
	// hot holds each node's predicted pages for the coming epoch, copied
	// out of its enter for collectPushDiffs; an empty list is no entry.
	hot map[int32][]int32
	// rel is the release this node received for the episode, which its
	// children's releases are built from. Nil until the node has been
	// released; the next attempt's reset releases it.
	rel *msg.BarrierRelease
	// enter is the node's own enter (its notices are its own, not a view
	// of known: contributeDead appends to them), agg the aggregate it
	// forwards and down the release its parent relays to it.
	enter, agg msg.BarrierEnter
	down       msg.BarrierRelease
}

// episode is the barrier goroutine's scratch for an episode and the GC round under it.
type episode struct {
	id       int32
	k        int
	view     []int // the attempt's members, then the round's
	levels   [][]int
	levelsOf [2]int              // the view size and arity of levels
	lvl      []int               // the running fan-out's tree level
	enters   []*msg.BarrierEnter // by node; nil outside the view
	costs    []sim.Time
	stored   *vm.Bitmap      // the GC round's page set
	lists    []msg.GCCollect // by effective home
	homes    []int
	standby  []sim.Time
	// The fan-out legs, which read the fields above: method values bound
	// once, since a closure made per fan-out escapes through its leg.
	enterLeg, releaseLeg, consolidateLeg, standbyLeg, collectLeg func(int) error
}

// New's rejections, by name; TestNewValidation holds a row for each.
var (
	errNodes        = errors.New("dsm: Nodes must be positive")
	errPages        = errors.New("dsm: Pages must be positive")
	errLockShards   = errors.New("dsm: LockShards must be non-negative")
	errBarrierArity = errors.New("dsm: BarrierArity must be 0 (flat) or at least 2")
	errTopologySize = errors.New("dsm: Topology node count differs from Nodes")
	// errSingleWriter wraps the name of the multi-writer mechanism asked
	// for: the single-writer protocol moves whole pages and keeps no
	// intervals, notices or diffs for any of them to work on.
	errSingleWriter = errors.New("dsm: not available under the single-writer protocol")
	errFTNeedsChaos = errors.New("dsm: FaultTolerance requires a Chaos transport (its crash windows are the failure ground truth)")
	errCrashNeedsFT = errors.New("dsm: a Chaos crash schedule requires FaultTolerance (nothing fails over without it)")
	errCrashKey     = errors.New("dsm: a crash schedule's key must name a call to or from its node")
)

// New builds and starts a cluster.
func New(cfg Config) (*Cluster, error) { return newCluster(cfg, defaultServiceShards) }

// newCluster is New with the per-node page-state shard count, a power of
// two. The -race hammers pass 1, which puts every page of a node on one
// stripe so a path that takes two shard locks deadlocks against itself.
func newCluster(cfg Config, shards int) (*Cluster, error) {
	switch {
	case cfg.Nodes <= 0:
		return nil, errNodes
	case cfg.Pages <= 0:
		return nil, errPages
	case cfg.LockShards < 0:
		return nil, errLockShards
	case cfg.BarrierArity < 0 || cfg.BarrierArity == 1:
		return nil, errBarrierArity
	case cfg.Topology != nil && cfg.Topology.Nodes() != cfg.Nodes:
		return nil, fmt.Errorf("%w: %d and %d", errTopologySize, cfg.Topology.Nodes(), cfg.Nodes)
	case cfg.FaultTolerance && cfg.Chaos == nil:
		return nil, errFTNeedsChaos
	case !cfg.FaultTolerance && cfg.Chaos != nil && len(cfg.Chaos.Crashes) > 0:
		return nil, errCrashNeedsFT
	case cfg.Chaos != nil && slices.ContainsFunc(cfg.Chaos.Crashes, func(s sim.CrashSchedule) bool { return !s.At.Touches(s.Node) }):
		return nil, errCrashKey
	}
	if cfg.Protocol == SingleWriter {
		knob := ""
		switch {
		case cfg.PrefetchBudget != 0:
			knob = "PrefetchBudget"
		case cfg.BatchDiffs:
			knob = "BatchDiffs"
		case cfg.FaultTolerance:
			knob = "FaultTolerance"
		}
		if knob != "" {
			return nil, fmt.Errorf("%w: %s", errSingleWriter, knob)
		}
	}
	if cfg.GCThresholdBytes == 0 {
		cfg.GCThresholdBytes = defaultGCThreshold
	}
	if cfg.Protocol == 0 {
		cfg.Protocol = MultiWriter
	}
	costs := sim.DefaultCosts()
	if cfg.Topology != nil {
		costs = cfg.Topology.Base()
	}
	c := &Cluster{cfg: cfg, costs: costs, topo: cfg.Topology, shardCount: shards}
	c.stats.InitLinks(cfg.Nodes)
	c.writeHist = make([]int64, cfg.Pages*cfg.Nodes)
	c.dead = make([]bool, cfg.Nodes)
	c.barriers = make([]barrierState, cfg.Nodes)
	c.ep = episode{enters: make([]*msg.BarrierEnter, cfg.Nodes), lists: make([]msg.GCCollect, cfg.Nodes),
		stored: vm.NewBitmap(cfg.Pages), enterLeg: c.enterEdge, releaseLeg: c.releaseEdge,
		consolidateLeg: c.consolidateHome, standbyLeg: c.refreshStandby, collectLeg: c.collectAt}
	c.nodes = make([]*node, cfg.Nodes)
	for i := range c.nodes {
		c.nodes[i] = newNode(i, c, cfg.Pages)
	}
	handlers := make([]transport.Handler, cfg.Nodes)
	for i := range handlers {
		n := c.nodes[i]
		handlers[i] = func(from int, payload []byte) ([]byte, error) {
			m, err := msg.Decode(payload)
			if err != nil {
				return nil, err
			}
			return n.respond(from, m)
		}
	}
	var tr transport.Transport
	if cfg.UseTCP {
		tcp, err := transport.NewTCPWithOptions(handlers, cfg.Transport)
		if err != nil {
			return nil, fmt.Errorf("dsm: start transport: %w", err)
		}
		tr = tcp
	} else {
		tr = transport.NewLocal(handlers)
	}
	if cfg.Chaos != nil {
		// Chaos sits under the retry wrapper so injected faults
		// exercise the retry path, exactly like real network faults.
		ch := transport.NewChaos(tr, *cfg.Chaos)
		c.chaos = ch
		tr = ch
	}
	retryOpts := cfg.Transport
	userOnRetry := retryOpts.OnRetry
	retryOpts.OnRetry = func(from, to, attempt int, payload []byte, err error) {
		c.stats.recordRetry(payload)
		if userOnRetry != nil {
			userOnRetry(from, to, attempt, payload, err)
		}
	}
	// The call observer sits outermost so it times the whole logical
	// call — retries, backoff sleeps and all — and fires exactly once
	// per Cluster-level request. It forwards to the probe only when one
	// is installed, so the disabled path is a nil check per call.
	c.tr = transport.WithCallObserver(transport.WithRetry(tr, retryOpts),
		func(from, to int, payload, reply []byte, d time.Duration, err error) {
			if c.probe == nil || c.probe.TransportCall == nil {
				return
			}
			var kind msg.Kind
			if len(payload) > 0 {
				kind = msg.Kind(payload[0])
			}
			c.probeTransportCall(from, to, kind, len(payload)+len(reply), d, err != nil)
		})
	return c, nil
}

// Close releases the cluster's transport.
func (c *Cluster) Close() error { return c.tr.Close() }

// NumNodes returns the node count.
func (c *Cluster) NumNodes() int { return c.cfg.Nodes }

// NumPages returns the shared segment size in pages.
func (c *Cluster) NumPages() int { return c.cfg.Pages }

// Costs returns the cluster's cost model.
func (c *Cluster) Costs() sim.Costs { return c.costs }

// Stats returns the cluster's protocol counters.
func (c *Cluster) Stats() *Stats { return &c.stats }

// SetRemoteFaultHook installs f, called on every remote miss with the
// faulting node, thread, and page. Passive correlation tracking (paper
// §4.1) observes sharing exclusively through this hook.
func (c *Cluster) SetRemoteFaultHook(f func(node, tid int, p vm.PageID)) {
	c.onRemoteFault = f
}

func (c *Cluster) notifyRemoteFault(node, tid int, p vm.PageID) {
	if c.onRemoteFault != nil {
		c.onRemoteFault(node, tid, p)
	}
}

// AddAccessHook installs f, called once per page for every span access —
// not just faults. Real page-based DSMs cannot observe these transparent
// accesses (the paper's §1 notes that access *rates* are therefore out of
// reach); the software MMU can, which enables the density-tracking and
// trace-recording extensions in internal/core and internal/trace. Hooks
// compose: each added hook sees every access, in installation order. The
// hooks are instrumentation only: they charge no virtual time.
func (c *Cluster) AddAccessHook(f func(node, tid int, p vm.PageID, a vm.Access)) {
	c.onAccess = append(c.onAccess, f)
}

// nodeForID maps a protocol identifier (page id, lock id, or lock-shard
// number) onto a node index in [0, n). It is the one checked mapping
// shared by diff/home placement and lock sharding: the modulo runs in
// 64-bit space before narrowing, so identifiers wider than int32 — e.g.
// vm.PageID values at the word seam — cannot truncate into a negative
// or out-of-range index.
func nodeForID(id int64, n int) int {
	m := int(id % int64(n))
	if m < 0 {
		m += n
	}
	return m
}

// staticHome returns the page's initial home node (round-robin
// distribution) — the placement every page starts at and keeps until an
// explicit home move (QueueHomeMoves) changes it.
func (c *Cluster) staticHome(p vm.PageID) int { return nodeForID(int64(p), c.cfg.Nodes) }

// lockShards returns the effective lock-shard count (see
// Config.LockShards).
func (c *Cluster) lockShards() int {
	if c.cfg.LockShards == 0 {
		return c.cfg.Nodes
	}
	return c.cfg.LockShards
}

// lockManager returns the node managing a lock: locks hash onto
// lockShards() shards and shard s lives on node s mod Nodes: by default
// lock mod Nodes, and LockShards 1 funnels every lock through node 0.
func (c *Cluster) lockManager(lock int32) int {
	shard := nodeForID(int64(lock), c.lockShards())
	return nodeForID(int64(shard), c.cfg.Nodes)
}

// errPayloadReply is call's refusal of a reply that borrows from its
// frame: call has recycled the frame by the time it returns, so such a
// reply could only be read after release. Those round trips go through
// callFrame.
var errPayloadReply = errors.New("dsm: payload-carrying reply on the frame-recycling call path")

// Malformed bulk replies — and the bulk requests, a GCCollect's page list
// and a PageRequest's pending notices — rejected by name before any state
// changes.
var (
	errReplyPage   = errors.New("reply names another page")
	errNoticePage  = errors.New("pending notice names another page")
	errPageImage   = errors.New("page image is not one page long")
	errDiffCount   = errors.New("diff count differs from the intervals asked for")
	errPageCount   = errors.New("page count differs from the pages asked for")
	errReplyShape  = errors.New("unexpected reply type")
	errCollectPage = errors.New("collect names a page outside the segment")
	// errLockRole refuses lock traffic at a node holding no state for it:
	// neither the lock's primary manager (for a pull, the holder) nor,
	// under fault tolerance, a standby.
	errLockRole = errors.New("not the lock's manager, holder or standby")
)

// call sends m and returns the decoded reply plus the requester-side wire
// cost, for every round trip whose reply carries no byte payload (acks,
// grants, rejoin state). The reply frame is recycled before call returns;
// a reply that borrows from it (msg.Kind.Borrows) is refused with
// errPayloadReply instead of being handed out dangling.
func (c *Cluster) call(from, to int, m msg.Message) (msg.Message, sim.Time, error) {
	reply, frame, wire, err := c.callFrame(from, to, m)
	if err != nil {
		return nil, 0, err
	}
	msg.PutBuf(frame)
	if reply.Kind().Borrows() {
		return nil, 0, fmt.Errorf("%w: %v answering %v", errPayloadReply, reply.Kind(), m.Kind())
	}
	return reply, wire, nil
}

// callFrame is the round trip under call, for the requests a page image
// or diffs answer: it returns the reply together with the frame it was
// decoded from, which the reply's byte fields alias. The caller owns the
// frame and msg.PutBufs it — on every exit path — once those fields have
// been applied or copied. All protocol traffic is accounted here,
// including the per-kind call counters and latency histograms. The
// request is encoded into a msg.GetBuf buffer recycled once the
// transport returns.
func (c *Cluster) callFrame(from, to int, m msg.Message) (msg.Message, []byte, sim.Time, error) {
	b := msg.EncodeTo(msg.GetBuf(), m)
	kind := m.Kind()
	reqLen := len(b)
	start := time.Now()
	rb, err := c.tr.Call(from, to, b)
	msg.PutBuf(b)
	if err != nil {
		d := time.Since(start)
		c.stats.recordCall(kind, reqLen, d, true)
		c.stats.recordLink(from, to, reqLen, d)
		return nil, nil, 0, err
	}
	reply, err := msg.Decode(rb)
	repLen := len(rb)
	d := time.Since(start)
	c.stats.recordLink(from, to, reqLen+repLen, d)
	if err != nil {
		msg.PutBuf(rb)
		c.stats.recordCall(kind, reqLen+repLen, d, true)
		return nil, nil, 0, fmt.Errorf("dsm: decode reply: %w", err)
	}
	c.stats.recordCall(kind, reqLen+repLen, d, false)
	c.stats.Messages.Add(2)
	c.stats.BytesTotal.Add(int64(reqLen + repLen))
	return reply, rb, c.fetchCost(from, to, reqLen, repLen), nil
}

// callPage is callFrame for the requests a PageReply answers (page
// fetches and the single-writer transfers). It checks the reply before
// handing it out: the right type, the page asked for, and an image that
// is one whole page — or, where mayOmit allows the single-writer "you
// already hold it" answer, absent. On error the frame is already
// recycled.
func (c *Cluster) callPage(from, to int, m msg.Message, p vm.PageID, mayOmit bool) (*msg.PageReply, []byte, sim.Time, error) {
	reply, frame, wire, err := c.callFrame(from, to, m)
	if err != nil {
		return nil, nil, 0, err
	}
	pr, ok := reply.(*msg.PageReply)
	switch {
	case !ok:
		err = fmt.Errorf("%w %T", errReplyShape, reply)
	case pr.Page != int32(p):
		err = fmt.Errorf("%w: %d", errReplyPage, pr.Page)
	case len(pr.Data) != memlayout.PageSize && !(mayOmit && len(pr.Data) == 0):
		err = fmt.Errorf("%w: %d bytes", errPageImage, len(pr.Data))
	}
	if err != nil {
		msg.PutBuf(frame)
		return nil, nil, 0, err
	}
	return pr, frame, wire, nil
}

// fetchCost charges a round trip under the cluster's network model: the
// heterogeneous topology's directed link costs when one is configured,
// the uniform Costs model otherwise.
func (c *Cluster) fetchCost(from, to, reqBytes, replyBytes int) sim.Time {
	if c.topo != nil {
		return c.topo.FetchCost(from, to, reqBytes, replyBytes)
	}
	return c.costs.FetchCost(reqBytes, replyBytes)
}

// Topology returns the heterogeneous cost topology, or nil when the
// cluster runs the uniform model.
func (c *Cluster) Topology() *sim.Topology { return c.topo }

// fanOut is the runner below, telling the chaos layer when the outermost
// fan-out joins: a crash armed by a leg takes its node down there.
func (c *Cluster) fanOut(n int, f func(i int) error) error {
	if c.chaos != nil {
		c.chaos.BeginFanOut()
		defer c.chaos.EndFanOut()
	}
	return fanOut(n, f)
}

// fanOut runs f(0..n-1) concurrently and returns the lowest-index error
// (errgroup-style aggregation; deterministic error selection keeps
// failure messages stable across runs): f(0) on the calling goroutine,
// every other leg on a parked worker (runLegs). Every f(i) runs even
// after another fails.
func fanOut(n int, f func(i int) error) error {
	if n <= 1 {
		if n == 1 {
			return f(0)
		}
		return nil
	}
	fa := fans.Get().(*fan)
	errs := zeroed(fa.errs, n)
	fa.wg.Add(n - 1)
	for i := 1; i < n; i++ {
		l := leg{f: f, i: i, err: &errs[i], wg: &fa.wg}
		select {
		case legs <- l:
		default:
			go runLegs(l)
		}
	}
	errs[0] = f(0)
	fa.wg.Wait()
	var err error
	for _, e := range errs {
		if e != nil {
			err = e
			break
		}
	}
	clear(errs)
	fa.errs = errs
	fans.Put(fa)
	return err
}

// fan is one fan-out's join state, pooled with its error list.
type fan struct {
	wg   sync.WaitGroup
	errs []error
}

var fans = sync.Pool{New: func() any { return new(fan) }}

// leg is one call f(i) of a fan-out, handed to a worker by value.
type leg struct {
	f   func(i int) error
	i   int
	err *error
	wg  *sync.WaitGroup
}

// legs is unbuffered: a send succeeds only to an idle worker, so no leg
// waits behind another and nested fan-outs cannot deadlock.
var legs = make(chan leg)

// runLegs runs l, then each leg it receives, forever: there are as many
// workers as the peak of concurrent legs, not one per fan-out.
func runLegs(l leg) {
	for {
		l.run()
		l = <-legs
	}
}

// run stores the leg's error before wg.Done, fanOut's join edge.
func (l *leg) run() {
	*l.err = l.f(l.i)
	l.wg.Done()
	*l = leg{} // an idle worker keeps no closure alive
}

// Span validates the pages covering [off, off+size) for access a by
// thread tid on the given node and returns the raw segment window,
// together with the virtual-time charges the access incurred. The window
// aliases the node's segment: writes through it are the shared writes the
// twin/diff machinery captures.
//
// The window is valid until the next synchronization operation; after a
// barrier or lock transfer the application must re-acquire its spans.
func (c *Cluster) Span(node, tid, off, size int, a vm.Access) ([]byte, sim.ThreadInterval, error) {
	if size <= 0 || off < 0 || off+size > c.cfg.Pages*memlayout.PageSize {
		return nil, sim.ThreadInterval{}, fmt.Errorf("dsm: span [%d,%d) out of segment", off, off+size)
	}
	n := c.nodes[node]
	first := vm.PageID(off / memlayout.PageSize)
	last := vm.PageID((off + size - 1) / memlayout.PageSize)
	n.spanCharge = sim.ThreadInterval{}
	// This one load orders every shard write-section completed before the
	// unlocked checks below (doc.go, "The engine-side access path").
	n.gen.Load()
	if n.prefetchedLive.Load() != 0 {
		n.settlePrefetchHits(first, last)
	}
	for p := first; p <= last; p++ {
		trackF, _, err := n.as.Touch(tid, p, a)
		if trackF {
			c.stats.TrackingFaults.Add(1)
			n.spanCharge.Overhead += c.costs.TrackFault
		}
		if err != nil {
			return nil, n.spanCharge, err
		}
		for _, hook := range c.onAccess {
			hook(node, tid, p, a)
		}
	}
	return n.seg[off : off+size], n.spanCharge, nil
}

// settlePrefetchHits settles prefetch accounting for a span over
// [first, last]: the first touch of a page brought current by a prefetch
// round is a hit — a demand miss that did not happen — and feeds the
// fault-window predictor, so a usefully prefetched page stays in next
// round's prediction.
func (n *node) settlePrefetchHits(first, last vm.PageID) {
	var hits []vm.PageID
	for p := first; p <= last; p++ {
		sh := n.lockShard(p)
		if st := &n.pages[p]; st.prefetched {
			n.markPrefetched(st, false)
			n.c.stats.PrefetchHits.Add(1)
			if n.prefetchOn {
				hits = append(hits, p)
			}
		}
		n.unlockShard(sh)
	}
	if len(hits) > 0 {
		n.lockSync()
		for _, p := range hits {
			n.faultWin.Set(p)
		}
		n.mu.Unlock()
	}
}

// BeginTracking starts an active correlation-tracking phase on a node:
// every page's correlation bit is armed and h observes tracking faults
// (paper §4.2 step 1). The returned cost covers re-protecting the
// segment.
func (c *Cluster) BeginTracking(node int, h func(tid int, p vm.PageID)) sim.Time {
	n := c.nodes[node]
	n.as.BeginTracking(func(tid int, p vm.PageID, a vm.Access) { h(tid, p) })
	return sim.Time(c.cfg.Pages) * c.costs.ProtectAllPerPage
}

// RearmTracking re-arms all correlation bits at a tracked thread switch
// (paper §4.2 step 3) and returns the re-protection cost.
func (c *Cluster) RearmTracking(node int) sim.Time {
	c.nodes[node].as.ArmAll()
	return sim.Time(c.cfg.Pages) * c.costs.ProtectAllPerPage
}

// EndTracking leaves tracking mode on a node (paper §4.2 step 4).
func (c *Cluster) EndTracking(node int) {
	c.nodes[node].as.EndTracking()
}

// Tracking reports whether a node is in an active tracking phase.
func (c *Cluster) Tracking(node int) bool { return c.nodes[node].as.Tracking() }

// Barrier runs one global barrier episode over the membership view (every
// node, or the alive set under Config.FaultTolerance): each member closes
// its current interval, the members' write notices fan in to the root
// (the view's first member), the root broadcasts the sorted union with
// the episode's home moves and pushed diffs, and every member invalidates
// accordingly. If the stored diff volume exceeds the GC threshold, a
// garbage-collection round follows. The returned slice holds each node's
// virtual-time cost for the episode.
//
// The members form a complete k-ary tree over their indices into the view
// (children of position i are k*i+1 .. k*i+k; Config.BarrierArity 0 is
// k = len(view)-1, the flat exchange). A position without children
// forwards its own enter; one with children folds its subtree's and
// forwards the aggregate, so no member exchanges more than k+1 barrier
// messages per phase. Each phase runs a tree level's calls in parallel.
//
// A lost message is retried by the transport (Config.Transport's
// MaxAttempts), and when a member dies mid-episode the phases re-run over
// the shrunk view (rerunOnViewChange). Both are safe because every
// receiver folds idempotently (the fold by node id and (page, writer,
// interval), a release through the pending-notice dedup) and a member's
// known history clears only after the whole episode succeeds; so the
// application may also call Barrier again after an error, and the next
// episode re-sends every notice of the failed one.
func (c *Cluster) Barrier() ([]sim.Time, error) {
	costs := make([]sim.Time, c.cfg.Nodes)
	episode := c.episode
	c.episode++

	// Scheduled restarts arm at the start of their episode.
	if c.cfg.Chaos != nil {
		for _, s := range c.cfg.Chaos.Crashes {
			if s.RestartsAt(int64(episode)) && c.isDead(s.Node) {
				w, err := c.rejoinNode(s.Node)
				if err != nil {
					return nil, err
				}
				costs[s.Node] += w
			}
		}
	}
	if c.refreshView() > 0 {
		c.stats.RecoveryRounds.Add(1)
	}

	queued := c.queuedMoves()
	var ep barrierOutcome
	err := c.rerunOnViewChange(func() (err error) {
		ep, err = c.barrierAttempt(episode, queued, costs)
		return err
	})
	if err != nil {
		return nil, err
	}

	// The episode succeeded: commit exactly the final attempt's notice
	// union to the write history and consume the queued home moves. A
	// failed episode commits nothing, so the notices it re-sends next
	// time are counted once.
	c.recordWriteHistory(ep.notices)
	c.commitQueuedHomes(ep.homeMoved, ep.homeSkipped)

	// The episode is fully delivered: every member's notices are now
	// everywhere, so pending flush state and causal histories restart —
	// and, under fault tolerance, the per-epoch replication marks with
	// them. (Each member's release already restarted its lock state.)
	c.ep.view = c.aliveList(c.ep.view)
	view := c.ep.view
	for _, i := range view {
		n := c.nodes[i]
		costs[i] += c.costs.BarrierBase
		n.lockSync()
		// Truncated in place (no view of known outlives its call, see
		// node.known). Race builds poison the old contents first, so a
		// view that did outlive it reads page -9253.
		pool.Poison(n.known, msg.PoisonNotice)
		n.known = n.known[:0]
		n.knownHave.clear()
		n.replSent = 0
		n.mu.Unlock()
		if c.cfg.FaultTolerance {
			n.replMu.Lock()
			n.replKnown = make(map[int][]msg.Notice)
			n.replLockMark = make(map[int]map[int32]int)
			n.replMu.Unlock()
		}
	}
	c.stats.Barriers.Add(1)

	if c.cfg.GCThresholdBytes >= 0 {
		var total int64
		for _, i := range view {
			total += c.nodes[i].diffBytes.Load()
		}
		if total > int64(c.cfg.GCThresholdBytes) {
			// Re-running a collection is idempotent — consolidation
			// re-fetches only still-pending diffs and collect re-drops
			// already-empty stores. The round is counted once, over its
			// first attempt's page set: a re-run finds fewer pages stored,
			// because the attempt it replaces had collected some of them.
			pages := -1
			if err := c.rerunOnViewChange(func() error {
				n, err := c.collectGarbage(costs)
				if pages < 0 {
					pages = n
				}
				return err
			}); err != nil {
				return nil, err
			}
			c.stats.GCRounds.Add(1)
			c.stats.GCCollections.Add(int64(pages))
		}
	}
	// A crash whose scheduled call fell inside this episode may never
	// fail a protocol call — the victim can die after its last
	// participation (its enter already folded, no release or GC call
	// addressed it). Reconcile with the chaos layer before threads
	// resume, so the engine migrates the victim's threads at THIS
	// barrier and routing sees the death before the first post-barrier
	// fault, not when a call from the dead node is refused mid-interval.
	c.refreshView()
	return costs, nil
}

// barrierOutcome is what one barrier attempt hands back for Barrier to
// commit once the episode has succeeded: the sorted notice union (for the
// write history) and the queued-home accounting. Attempts recompute
// them; a failed attempt's values are dropped.
type barrierOutcome struct {
	notices                []msg.Notice
	homeMoved, homeSkipped int64
}

// barrierAttempt runs the barrier's phases once over the current view.
func (c *Cluster) barrierAttempt(episode int32, queued []queuedMove, costs []sim.Time) (barrierOutcome, error) {
	var out barrierOutcome
	ep := &c.ep
	ep.view = c.aliveList(ep.view)
	view := ep.view
	if len(view) == 0 {
		return out, errors.New("dsm: barrier with no alive nodes")
	}
	root := view[0]
	k := c.cfg.BarrierArity
	if k == 0 {
		k = len(view) - 1
	}
	if ep.levelsOf != [2]int{len(view), k} {
		ep.levels, ep.levelsOf = treeLevels(len(view), k), [2]int{len(view), k}
	}
	ep.id, ep.k, ep.costs = episode, k, costs

	// The fold state keeps its storage from attempt to attempt: lists are
	// truncated and sets cleared in place, and each stored release goes
	// back to its pool. Both readers of a fold's notice list copy it under
	// barrierMu (the root's union below and buildEnterAggregate), so no
	// view of it outlives the attempt. Race builds poison the old contents
	// first, so a view that did outlive it reads page -9253.
	c.barrierMu.Lock()
	for i := range c.barriers {
		b := &c.barriers[i]
		pool.Poison(b.notices, msg.PoisonNotice)
		b.have.clear()
		clear(b.entered)
		for id := range b.hot {
			b.hot[id] = b.hot[id][:0]
		}
		if b.rel != nil {
			msg.Release(b.rel)
		}
		b.episode, b.lam, b.notices, b.rel = episode, 0, b.notices[:0], nil
	}
	c.barrierMu.Unlock()

	// Phase 1 (local, serial): close every member's interval and build
	// its enter message. known is cleared only after the whole
	// episode succeeds, so a re-run re-sends every notice.
	clear(ep.enters)
	pushEnabled := c.cfg.PrefetchBudget != 0 && c.cfg.Protocol == MultiWriter
	for _, i := range view {
		n := c.nodes[i]
		// The predictor may consult the placement engine; compute it
		// before touching node state to keep lock order one-way.
		var pred *vm.Bitmap
		if pushEnabled && c.prefetchPredict != nil {
			pred = c.prefetchPredict(i)
		}
		closed, diffCost := n.closeInterval()
		costs[i] += diffCost
		if c.cfg.FaultTolerance {
			w, err := c.replicate(n, closed)
			if err != nil {
				return out, err
			}
			costs[i] += w
		}
		e := &c.barriers[i].enter
		n.lockSync()
		e.Node, e.Episode, e.Lam = int32(i), episode, n.lamport.Load()
		e.Notices = n.ownNoticesLocked(e.Notices[:0])
		n.mu.Unlock()
		e.Hot = nil
		if pushEnabled {
			// After closeInterval the node's own dirty pages are
			// clean again, so its prediction covers them too.
			e.Hot = n.hotPages(pred)
		}
		ep.enters[i] = e
	}
	if c.cfg.FaultTolerance {
		c.contributeDead(ep.enters)
	}

	// Phase 2: enter fan-in up the tree. Every folding position folds its
	// own enter locally, then each level forwards one edge to its parent
	// (enterEdge); a retry starts from maximal folded progress.
	for pos := 0; pos < len(view) && folds(pos, k, len(view)); pos++ {
		if _, err := c.nodes[view[pos]].serveBarrierEnter(ep.enters[view[pos]]); err != nil {
			return out, err
		}
	}
	if err := c.fanLevels(true, ep.enterLeg); err != nil {
		return out, err
	}

	// The union is copied under barrierMu into the root's pooled release.
	c.barrierMu.Lock()
	rb := &c.barriers[root]
	for _, i := range view {
		if !rb.entered[int32(i)] {
			got := len(rb.entered)
			c.barrierMu.Unlock()
			return out, fmt.Errorf("dsm: barrier episode %d: %d entered, alive node %d missing", episode, got, i)
		}
	}
	rel := msg.New[*msg.BarrierRelease]()
	rel.Episode, rel.Lam = episode, rb.lam
	rel.Notices = append(rel.Notices, rb.notices...)
	hot := rb.hot
	c.barrierMu.Unlock()
	// The parallel fan-in makes arrival order nondeterministic; sort the
	// union so the release broadcast (and everything downstream of its
	// notice order) stays identical across runs.
	slices.SortFunc(rel.Notices, func(a, b msg.Notice) int {
		if c := cmp.Compare(a.Writer, b.Writer); c != 0 {
			return c
		}
		if c := cmp.Compare(a.Interval, b.Interval); c != 0 {
			return c
		}
		return cmp.Compare(a.Page, b.Page)
	})
	// The placement controller's queued home moves ride the release
	// fan-out, so every member applies them while its threads are still
	// parked.
	rel.Homes, out.homeMoved, out.homeSkipped = c.queuedHomeDecisions(queued, rel.Homes)
	out.notices = rel.Notices

	// The root's release carries every other member's pushed diffs in its
	// relay table; each edge down lifts the child's own list out of it.
	if pushEnabled {
		// Piggybacked push: the root batch-fetches the diffs each
		// member's prediction (BarrierEnter.Hot) will need — coalesced to
		// at most one DiffBatchRequest per writer for the whole cluster —
		// and rides them on the release messages, so served pages cost
		// zero extra round trips at the readers.
		push, pcost, err := c.collectPushDiffs(root, hot, rel.Notices)
		if err != nil {
			return out, fmt.Errorf("dsm: barrier push collect: %w", err)
		}
		costs[root] += pcost
		rel.Push = push[int32(root)]
		for _, i := range view[1:] {
			if len(push[int32(i)]) > 0 {
				rel.Relay = append(rel.Relay, msg.NodePush{Node: int32(i), Push: push[int32(i)]})
			}
		}
	}

	// Phase 3: release fan-out down the tree. The root serves its own
	// release, whose state keeps it (so out.notices stays valid until the
	// next attempt), then each level relays one edge down (releaseEdge).
	// serveBarrierRelease is idempotent (pending-notice dedup, max-merge
	// clocks, home stores, push skipped once a page's pending set is
	// drained), so transport retries and episode re-runs that re-deliver
	// to some members are harmless.
	if _, err := c.nodes[root].serveBarrierRelease(rel); err != nil {
		return out, err
	}
	if err := c.fanLevels(false, ep.releaseLeg); err != nil {
		return out, err
	}
	if pushEnabled {
		// Applying pushed diffs happened inside serveBarrierRelease;
		// charge each member's accumulated apply cost to this episode.
		for _, i := range view {
			n := c.nodes[i]
			n.lockSync()
			costs[i] += n.pushCost
			n.pushCost = 0
			n.mu.Unlock()
		}
	}

	if c.cfg.FaultTolerance {
		// Standby upkeep for moved homes: the new home's ring successor
		// must hold a copy (the invariant failover full-fetches rely on); a
		// successor without one fetches it now, while threads are parked.
		for _, ph := range rel.Homes {
			h := int(ph.Home)
			s := c.aliveSucc(h)
			p := vm.PageID(ph.Page)
			if s == h || c.nodeHasCopy(s, p) {
				continue
			}
			w, err := c.fetchStandbyCopy(s, p)
			if err != nil {
				return out, fmt.Errorf("dsm: standby fetch page %d: %w", p, err)
			}
			costs[s] += w
		}
	}
	return out, nil
}

// treeParent returns position i's parent in the k-ary barrier tree
// rooted at position 0 (children of i are k*i+1 .. k*i+k).
func treeParent(i, k int) int { return (i - 1) / k }

// isDescendant reports whether position x lies in position of's subtree
// (inclusive) of the k-ary barrier tree.
func isDescendant(x, of, k int) bool {
	for x > of {
		x = (x - 1) / k
	}
	return x == of
}

// folds reports whether a position of the k-ary tree over m members
// folds enters into an aggregate: the root always does, any other
// position only when it has children.
func folds(pos, k, m int) bool { return pos == 0 || k*pos+1 < m }

// treeLevels partitions positions 1..n-1 into tree levels, shallowest
// first. Level d of the heap-numbered complete k-ary tree holds the
// k^d consecutive indices starting at (k^d - 1) / (k - 1).
func treeLevels(n, k int) [][]int {
	var levels [][]int
	lo, size := 1, k
	for lo < n {
		hi := lo + size
		if hi > n {
			hi = n
		}
		lvl := make([]int, 0, hi-lo)
		for i := lo; i < hi; i++ {
			lvl = append(lvl, i)
		}
		levels = append(levels, lvl)
		lo, size = hi, size*k
	}
	return levels
}

// fanLevels runs leg over the episode's tree one level a fan-out: deepest
// first when up (aggregates complete before they move up), else shallowest
// first (parents store their releases before their children ask). Every
// level runs even after a failure and the first failing level's
// lowest-index error wins, keeping failures deterministic; each edge is one
// leg's with one message an attempt, so its call sequence never varies.
func (c *Cluster) fanLevels(up bool, leg func(int) error) error {
	var firstErr error
	for i := range c.ep.levels {
		if up {
			i = len(c.ep.levels) - 1 - i
		}
		c.ep.lvl = c.ep.levels[i]
		if err := c.fanOut(len(c.ep.lvl), leg); err != nil && firstErr == nil {
			firstErr = err
		}
	}
	return firstErr
}

// enterEdge is leg j of an enter level: a folding position forwards its
// aggregate to its parent, a leaf its own enter as built.
func (c *Cluster) enterEdge(j int) error {
	ep := &c.ep
	pos := ep.lvl[j]
	child := ep.view[pos]
	enter := ep.enters[child]
	if folds(pos, ep.k, len(ep.view)) {
		enter = c.buildEnterAggregate(child, ep.id)
	}
	_, wire, err := c.call(child, ep.view[treeParent(pos, ep.k)], enter)
	if err != nil {
		return fmt.Errorf("dsm: barrier enter node %d: %w", child, err)
	}
	ep.costs[child] += wire
	return nil
}

// buildEnterAggregate snapshots a node's folded barrier state as the
// aggregate BarrierEnter it forwards to its tree parent: the subtree's
// entered ids, deduplicated notice union, per-node hot predictions,
// and max Lamport clock. Slices are sorted so the wire image — and the
// order the parent folds it in — is deterministic.
func (c *Cluster) buildEnterAggregate(node int, episode int32) *msg.BarrierEnter {
	c.barrierMu.Lock()
	defer c.barrierMu.Unlock()
	b := &c.barriers[node]
	agg := &b.agg
	agg.Node, agg.Episode, agg.Lam = int32(node), episode, b.lam
	agg.Notices = append(agg.Notices[:0], b.notices...)
	agg.Entered, agg.HotSets = agg.Entered[:0], agg.HotSets[:0]
	for id := range b.entered {
		agg.Entered = append(agg.Entered, id)
	}
	slices.Sort(agg.Entered)
	for id, pages := range b.hot {
		if len(pages) > 0 {
			agg.HotSets = append(agg.HotSets, msg.NodeHot{Node: id, Pages: pages})
		}
	}
	slices.SortFunc(agg.HotSets, func(a, b msg.NodeHot) int { return cmp.Compare(a.Node, b.Node) })
	return agg
}

// releaseEdge is leg j of a release level: the position's parent relays
// the release built for it. A parent whose stored release is missing or
// stale failed its own inbound edge this attempt, which fails the attempt.
func (c *Cluster) releaseEdge(j int) error {
	ep := &c.ep
	pos := ep.lvl[j]
	parent, child := ep.view[treeParent(pos, ep.k)], ep.view[pos]
	childRel, err := c.buildChildRelease(ep.view, ep.k, parent, pos, ep.id)
	if err != nil {
		return err
	}
	_, wire, err := c.call(parent, child, childRel)
	if err != nil {
		return fmt.Errorf("dsm: barrier release node %d: %w", child, err)
	}
	ep.costs[child] += wire
	return nil
}

// buildChildRelease assembles, in the child's down slot, the release node
// parent relays to the member at tree position pos: the episode payload
// (notices, Lamport clock, home moves) from the parent's stored release,
// the child's own push list lifted out of the relay table, and the relay
// entries for the child's own subtree.
func (c *Cluster) buildChildRelease(view []int, k, parent, pos int, episode int32) (*msg.BarrierRelease, error) {
	c.barrierMu.Lock()
	defer c.barrierMu.Unlock()
	src := c.barriers[parent].rel
	if src == nil || src.Episode != episode {
		return nil, fmt.Errorf("dsm: barrier release relay: node %d holds no release for episode %d", parent, episode)
	}
	rel := &c.barriers[view[pos]].down
	rel.Episode, rel.Lam, rel.Notices, rel.Homes = episode, src.Lam, src.Notices, src.Homes
	rel.Push, rel.Relay = nil, rel.Relay[:0]
	for _, np := range src.Relay {
		// The view is sorted, so a member's position is its search index.
		switch at := sort.SearchInts(view, int(np.Node)); {
		case at == pos:
			rel.Push = np.Push
		case isDescendant(at, pos, k):
			rel.Relay = append(rel.Relay, np)
		}
	}
	return rel, nil
}

// recordWriteHistory folds one completed episode's sorted notice union
// into the per-(page, writer) write history. Barrier invokes it once per
// successful episode, with the final attempt's union, so the history
// counts each write notice once.
func (c *Cluster) recordWriteHistory(notices []msg.Notice) {
	c.histMu.Lock()
	for _, nt := range notices {
		p, w := int(nt.Page), int(nt.Writer)
		if p >= 0 && p < c.cfg.Pages && w >= 0 && w < c.cfg.Nodes {
			c.writeHist[p*c.cfg.Nodes+w]++
		}
	}
	c.histMu.Unlock()
}

// WriteHistory returns a copy of the cumulative per-page write-notice
// counts: row p holds, per node, how many barrier write notices node n
// has produced for page p. The placement controller differences
// successive snapshots to obtain a recent-window write profile.
func (c *Cluster) WriteHistory() [][]int64 {
	out := make([][]int64, c.cfg.Pages)
	flat := make([]int64, c.cfg.Pages*c.cfg.Nodes)
	c.histMu.Lock()
	copy(flat, c.writeHist)
	c.histMu.Unlock()
	for p := range out {
		out[p] = flat[p*c.cfg.Nodes : (p+1)*c.cfg.Nodes]
	}
	return out
}

// Homes returns the current page → home-node table as node 0 sees it
// (all nodes agree between barriers: home updates only ride barrier
// releases, which deliver to every node before threads resume).
func (c *Cluster) Homes() []int {
	out := make([]int, c.cfg.Pages)
	for p := range out {
		out[p] = c.nodes[0].home(vm.PageID(p))
	}
	return out
}

// QueueHomeMoves schedules explicit page-home moves (page → target
// node) on behalf of the placement controller. The moves ride the next
// barrier episode's release fan-out — applied on every node while
// application threads are parked — and the queue clears when that
// episode succeeds. At apply time a move is dropped (counted in
// Stats.PlacementHomeSkips) when its target is dead or no longer holds
// a copy of the page: garbage collection invalidates non-home replicas,
// and a home must hold a base image to serve the page. Later calls for
// the same page before the next barrier override earlier ones.
func (c *Cluster) QueueHomeMoves(moves map[int]int) error {
	if c.cfg.Protocol != MultiWriter {
		return errors.New("dsm: explicit home moves require the multi-writer protocol")
	}
	for p, to := range moves {
		if p < 0 || p >= c.cfg.Pages {
			return fmt.Errorf("dsm: home move for page %d out of range [0,%d)", p, c.cfg.Pages)
		}
		if to < 0 || to >= c.cfg.Nodes {
			return fmt.Errorf("dsm: home move of page %d to node %d out of range [0,%d)", p, to, c.cfg.Nodes)
		}
	}
	c.histMu.Lock()
	if c.queuedHomes == nil {
		c.queuedHomes = make(map[int32]int32, len(moves))
	}
	for p, to := range moves {
		c.queuedHomes[int32(p)] = int32(to)
	}
	c.histMu.Unlock()
	return nil
}

// queuedMove is one queued explicit home move, with the page's home when
// the barrier episode carrying it began.
type queuedMove struct {
	page     int32
	from, to int32
}

// queuedMoves snapshots the queued explicit home moves in page order at
// the start of a barrier episode. The queue is left intact
// (commitQueuedHomes consumes it after the episode succeeds). Every alive
// node holds the same home table between barriers, so the view's first
// member supplies each move's starting home.
func (c *Cluster) queuedMoves() []queuedMove {
	c.histMu.Lock()
	queued := make([]queuedMove, 0, len(c.queuedHomes))
	for p, to := range c.queuedHomes {
		queued = append(queued, queuedMove{page: p, to: to})
	}
	c.histMu.Unlock()
	if len(queued) == 0 {
		return nil
	}
	view := c.aliveList(nil)
	if len(view) == 0 {
		return nil // the attempt fails on the empty view
	}
	first := c.nodes[view[0]]
	for i := range queued {
		queued[i].from = int32(first.home(vm.PageID(queued[i].page)))
	}
	sort.Slice(queued, func(i, j int) bool { return queued[i].page < queued[j].page })
	return queued
}

// queuedHomeDecisions turns an episode's queued moves into the PageHome
// decisions its release carries, in dst's array, plus how many moves
// change a home and how many were dropped (dead target, or target without
// a page copy). Barrier attempts re-run this over the same snapshot, so a
// move is counted against the home the episode began with.
//
// Without fault tolerance only moves that change a home are announced.
// Under it every kept move is: a crash mid-release leaves an attempt's
// release applied on some members (the root among them) and not others,
// and a re-run that dropped the moves the root's table already records
// would drop exactly the entries the un-released members lack, leaving
// home tables divergent (TestFailoverQueuedHomeMove).
func (c *Cluster) queuedHomeDecisions(queued []queuedMove, dst []msg.PageHome) ([]msg.PageHome, int64, int64) {
	homes := dst[:0]
	var moved, skipped int64
	for _, q := range queued {
		if c.isDead(int(q.to)) || !c.nodeHasCopy(int(q.to), vm.PageID(q.page)) {
			skipped++
			continue
		}
		if q.from != q.to {
			moved++
		}
		if q.from != q.to || c.cfg.FaultTolerance {
			homes = append(homes, msg.PageHome{Page: q.page, Home: q.to})
		}
	}
	return homes, moved, skipped
}

// nodeHasCopy reports whether the node holds page data (current or
// stale-but-patchable). Called between barrier phases with application
// threads parked.
func (c *Cluster) nodeHasCopy(id int, p vm.PageID) bool {
	n := c.nodes[id]
	sh := n.rlockShard(p)
	ok := n.pages[p].hasCopy
	sh.mu.RUnlock()
	return ok
}

// commitQueuedHomes records a successful episode's queued-home
// accounting and clears the queue.
func (c *Cluster) commitQueuedHomes(moved, skipped int64) {
	c.stats.PlacementHomeMoves.Add(moved)
	c.stats.PlacementHomeSkips.Add(skipped)
	c.histMu.Lock()
	c.queuedHomes = nil
	c.histMu.Unlock()
}

// storedPages is a GC round's page set: every page a member of view
// stores a diff of, in its own runs or in its replica store, marked under
// the locks that guard the stores (a shard's pages under its read lock).
// A page whose run a collect has truncated stores nothing. The set is the
// episode's bitmap, reset.
func (c *Cluster) storedPages(view []int) *vm.Bitmap {
	stored := c.ep.stored
	stored.Reset()
	for _, i := range view {
		n := c.nodes[i]
		for s := range n.shards {
			sh := &n.shards[s]
			sh.mu.RLock()
			for p := s; p < len(n.pages); p += len(n.shards) {
				if len(n.pages[p].diffs) > 0 {
					stored.Set(vm.PageID(p))
				}
			}
			sh.mu.RUnlock()
		}
		// The replica store is empty without fault tolerance.
		n.replMu.Lock()
		for _, pm := range n.replDiffs {
			for p := range pm {
				// A replica delta's page ids are stored as received.
				if p >= 0 && int(p) < c.cfg.Pages {
					stored.Set(p)
				}
			}
		}
		n.replMu.Unlock()
	}
	return stored
}

// collectGarbage runs one garbage-collection round over the membership
// view, in two phases over the pages that have stored diffs, grouped by
// effective home (ARCHITECTURE.md §4, "A garbage-collection round").
// Phase 1: every home brings its own pages current, one fan-out leg each;
// under fault tolerance each home's standby then refreshes its copy, so
// the two-copy invariant survives and no diff is dropped until every home
// and standby is current. Phase 2: each home sends every other member one
// GCCollect naming all of its pages, which drops their stored and
// replicated diffs and invalidates every replica but the home's and the
// standby's (the extra remote faults the paper attributes to GC). A round
// costs homes x (members-1) round trips however many pages it collects,
// which is what the virtual clock charges. It returns the size of the
// round's page set.
func (c *Cluster) collectGarbage(costs []sim.Time) (int, error) {
	ep := &c.ep
	ep.view = c.aliveList(ep.view)
	ep.costs = costs
	stored := c.storedPages(ep.view)
	for hm := range ep.lists { // by effective home
		ep.lists[hm].Pages = ep.lists[hm].Pages[:0]
	}
	first := c.nodes[ep.view[0]]
	ep.homes = ep.homes[:0]
	stored.ForEach(func(p vm.PageID) {
		hm := first.effHome(p)
		if len(ep.lists[hm].Pages) == 0 {
			ep.homes = append(ep.homes, hm)
		}
		ep.lists[hm].Pages = append(ep.lists[hm].Pages, int32(p))
	})
	slices.Sort(ep.homes)

	// Phase 1. A home's leg adds to costs[hm] only. A standby may itself be
	// a home, so the standbys refresh after the homes join, or two legs
	// could call on one edge (doc.go); their costs are charged after.
	pages := stored.Count()
	if err := c.fanOut(len(ep.homes), ep.consolidateLeg); err != nil {
		return pages, err
	}
	if c.cfg.FaultTolerance {
		ep.standby = zeroed(ep.standby, len(ep.homes))
		if err := c.fanOut(len(ep.homes), ep.standbyLeg); err != nil {
			return pages, err
		}
		for j, hm := range ep.homes {
			costs[c.aliveSucc(hm)] += ep.standby[j]
		}
	}

	// Phase 2, fanned out over the receiving members so that costs[i] has
	// one writer (collectAt). serveGCCollect is idempotent (dropping absent
	// diffs and re-invalidating are no-ops), so a transport retry that
	// re-delivers a list, or a re-run of the round, is harmless.
	return pages, c.fanOut(len(ep.view), ep.collectLeg)
}

// consolidateHome is GC phase 1's leg j: the j-th home brings its pages current.
func (c *Cluster) consolidateHome(j int) error {
	hm := c.ep.homes[j]
	own, err := c.consolidate(hm, c.ep.lists[hm].Pages)
	c.ep.costs[hm] += own
	return err
}

// refreshStandby is leg j of the standby refresh: the j-th home's standby copies its pages.
func (c *Cluster) refreshStandby(j int) error {
	hm := c.ep.homes[j]
	for _, pg := range c.ep.lists[hm].Pages {
		if s := c.aliveSucc(hm); s != hm {
			w, err := c.fetchStandbyCopy(s, vm.PageID(pg))
			if err != nil {
				return fmt.Errorf("dsm: gc standby refresh page %d: %w", pg, err)
			}
			c.ep.standby[j] += w
		}
	}
	return nil
}

// collectAt is GC phase 2's leg j: the j-th member takes every home's list in order.
func (c *Cluster) collectAt(j int) error {
	i := c.ep.view[j]
	for _, hm := range c.ep.homes {
		if i == hm {
			if _, err := c.nodes[i].serveGCCollect(&c.ep.lists[hm]); err != nil {
				return err
			}
			continue
		}
		_, wire, err := c.call(hm, i, &c.ep.lists[hm])
		if err != nil {
			return fmt.Errorf("dsm: gc collect home %d node %d: %w", hm, i, err)
		}
		c.ep.costs[i] += wire
	}
	return nil
}

// consolidate is a garbage-collection round's first phase at one home: it
// applies the diffs each of the home's collected pages still has pending.
// It returns the virtual time the home spent.
func (c *Cluster) consolidate(hm int, pages []int32) (own sim.Time, err error) {
	mgr := c.nodes[hm]
	for _, pg := range pages {
		p := vm.PageID(pg)
		var pendBuf [16]msg.Notice
		sh := mgr.rlockShard(p)
		pending := append(pendBuf[:0], mgr.pages[p].pending...)
		sh.mu.RUnlock()
		if len(pending) > 0 {
			var ti sim.ThreadInterval
			var diffBuf [16][]byte
			diffs := append(diffBuf[:0], make([][]byte, len(pending))...)
			ok, err := mgr.fetchAndApplyDiffs(&ti, -1, p, pending, diffs, ApplyServer)
			if err != nil {
				return own, fmt.Errorf("dsm: gc consolidate page %d: %w", p, err)
			}
			if !ok {
				return own, fmt.Errorf("dsm: gc consolidate page %d: diffs already gone", p)
			}
			own += ti.Stall + ti.Overhead
		}
	}
	return own, nil
}

// AcquireLock performs the consistency protocol for thread tid on a node
// acquiring a lock. Mutual exclusion itself is enforced by the thread
// engine (which serializes holders); this asks the lock's manager for the
// grant, pulls the lock's history from the last releaser the grant names,
// and returns the acquire's virtual-time cost.
func (c *Cluster) AcquireLock(node, tid int, lock int32) (sim.Time, error) {
	n := c.nodes[node]
	req := msg.New[*msg.LockAcquire]()
	req.Node, req.Lock = int32(node), lock
	r := n.routeTo(c.lockManager(lock))
	reply, held, wire, err := r.call(req)
	msg.Release(req)
	if err != nil {
		return 0, fmt.Errorf("dsm: node %d acquire lock %d: %w", node, lock, err)
	}
	grant, ok := reply.(*msg.LockGrant)
	if !ok {
		held.release()
		return 0, fmt.Errorf("dsm: node %d acquire lock %d: unexpected reply %T", node, lock, reply)
	}
	n.bumpLamport(grant.Lam)
	holder := int(grant.Holder)
	held.release()
	if holder >= 0 && holder != node {
		// The last releaser kept the lock's history: pull it from there.
		pwire, err := c.pullLockHistory(node, lock, holder)
		if err != nil {
			return 0, err
		}
		wire += pwire
	}
	c.probeLockAcquired(node, lock)
	c.stats.LockAcquires.Add(1)
	return wire, nil
}

// pullLockHistory fetches the write notices protected by a lock from
// its last releaser — or, while the holder is dead, from its standby's
// replicated history. The pull carries the position the holder last
// brought this node to, so the holder serves only the suffix of its
// release-time history past it, filtered by this node's seen vector.
// The position is confirmed only after the notices are applied, only
// when the holder itself served them (a standby's reply indexes the
// replica), and only under the membership view it was read in.
func (c *Cluster) pullLockHistory(node int, lock int32, holder int) (sim.Time, error) {
	n := c.nodes[node]
	view := c.viewVersion()
	pull := msg.New[*msg.LockPull]()
	own := pull.Seen
	n.lockSync()
	if n.pullView != view {
		clear(n.pullPos) // a holder may have rejoined with a new known
		n.pullView = view
	}
	pull.Node, pull.Lock, pull.Holder, pull.Pos = int32(node), lock, int32(holder), n.pullPos[holder]
	pull.Seen = n.seen // copy-on-write: a published vector never changes
	n.mu.Unlock()
	r := n.routeTo(holder)
	reply, held, wire, err := r.call(pull)
	pull.Seen = own // detached: the release must not poison the published vector
	msg.Release(pull)
	defer held.release()
	if err != nil {
		return 0, fmt.Errorf("dsm: node %d pull lock %d from holder %d: %w", node, lock, holder, err)
	}
	g, ok := reply.(*msg.LockGrant)
	if !ok {
		return 0, fmt.Errorf("dsm: node %d pull lock %d: unexpected reply %T", node, lock, reply)
	}
	c.probeNoticesDelivered(node, ViaLockGrant, g.Notices)
	n.bumpLamport(g.Lam)
	for _, nt := range g.Notices {
		n.addPending(nt)
	}
	n.lockSync()
	// Received notices join the causal history our own future releases
	// hand on (transitivity).
	n.known = n.knownHave.add(n.known, g.Notices)
	if !r.standby() && n.pullView == view && g.Pos > n.pullPos[holder] {
		n.pullPos[holder] = g.Pos
	}
	n.mu.Unlock()
	// The pending sets and known hold copies: the reply is dead, whether
	// it was decoded or served in place, and goes back with its lease.
	c.stats.LockForwards.Add(1)
	return wire, nil
}

// ReleaseLock closes the releasing node's interval, marks how much of its
// known history the release covers, and tells the lock's manager it now
// holds the lock's history, so the next acquirer pulls from it.
func (c *Cluster) ReleaseLock(node, tid int, lock int32) (sim.Time, error) {
	n := c.nodes[node]
	notices, diffCost := n.closeInterval()
	cost := diffCost
	if c.cfg.FaultTolerance {
		// Replicate the closed interval (and the known suffix received
		// since the last delta) to the ring successor BEFORE the release
		// reaches any manager: the release's history mark — and a
		// failover after this release — rely on the standby having the
		// interval's state already.
		w, err := c.replicate(n, notices)
		if err != nil {
			return 0, err
		}
		cost += w
	}
	rel := msg.New[*msg.LockRelease]()
	defer msg.Release(rel)
	n.lockSync()
	rel.Node, rel.Lock, rel.Lam = int32(node), lock, n.lamport.Load()
	n.lockMark[lock] = len(n.known)
	n.mu.Unlock()
	// A manager that dies under the release is re-resolved and sent the
	// same release: its standby's mirror was copied every earlier release
	// the manager got, so the last one is all it lacks.
	r := n.routeTo(c.lockManager(lock))
	_, held, wire, err := r.call(rel)
	held.release()
	if err != nil {
		return 0, fmt.Errorf("dsm: node %d release lock %d: %w", node, lock, err)
	}
	cost += wire
	if c.cfg.FaultTolerance {
		w, err := c.shadowRelease(n, rel, r.target)
		if err != nil {
			return 0, err
		}
		cost += w
	}
	c.probeLockReleased(node, lock)
	return cost, nil
}

// StoredDiffBytes returns the cluster-wide volume of stored diffs.
func (c *Cluster) StoredDiffBytes() int64 {
	var total int64
	for _, n := range c.nodes {
		total += n.diffBytes.Load()
	}
	return total
}

// CheckCoherence verifies the protocol invariant that at a quiescent point
// (e.g. right after a barrier) every pair of nodes holding a copy of the
// same page with no pending write notices agrees byte for byte. It is a
// debugging and test aid; it reads node state without charging any
// virtual time.
func (c *Cluster) CheckCoherence() error {
	for p := 0; p < c.cfg.Pages; p++ {
		var ref []byte
		refNode := -1
		for _, n := range c.nodes {
			if c.isDead(n.id) {
				continue // a crashed node's copy is arbitrarily stale
			}
			sh := n.rlockShard(vm.PageID(p))
			st := &n.pages[p]
			ok := st.hasCopy && len(st.pending) == 0
			var data []byte
			if ok {
				data = append([]byte(nil), n.pageData(vm.PageID(p))...)
			}
			sh.mu.RUnlock()
			if !ok {
				continue
			}
			if ref == nil {
				ref, refNode = data, n.id
				continue
			}
			for b := range data {
				if data[b] != ref[b] {
					return fmt.Errorf(
						"dsm: page %d byte %d differs: node %d has %#x, node %d has %#x",
						p, b, refNode, ref[b], n.id, data[b])
				}
			}
		}
	}
	return nil
}
