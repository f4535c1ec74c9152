package threads

import (
	"context"
	"errors"
	"fmt"

	"actdsm/internal/dsm"
	"actdsm/internal/sim"
)

// Body is an application thread's code. It runs to completion, calling
// Ctx methods for shared-memory access and synchronization.
type Body func(ctx *Ctx) error

type threadState uint8

const (
	stateRunnable threadState = iota + 1
	stateAtBarrier
	stateAtIterEnd
	stateLockWait
	stateDone
)

type eventKind uint8

const (
	evBarrier eventKind = iota + 1
	evIterEnd
	evLockWait
	evYield
	evDone
)

type event struct {
	kind eventKind
	lock int32
	err  error
}

type thread struct {
	id     int
	resume chan struct{}
	events chan event
	state  threadState
	// cur accumulates the thread's virtual-time charges in the current
	// synchronization interval.
	cur sim.ThreadInterval
	// waitLock is the lock the thread is queued on in stateLockWait.
	waitLock int32
	started  bool
	body     Body
}

// Hooks receive engine events; all are optional.
type Hooks struct {
	// OnIteration is called after iteration iter (0-based) completes at
	// an EndIteration barrier, with all threads parked. Migration and
	// tracking-mode changes are safe here.
	OnIteration func(iter int)
	// OnBarrier is called after every barrier episode (including
	// iteration ends), with all threads parked.
	OnBarrier func()
	// OnThreadRun is called immediately before a thread begins or
	// resumes a run slice on its node. The active tracker uses it to
	// re-arm correlation bits at local thread switches.
	OnThreadRun func(node, tid int)
}

// Observer receives fine-grained engine events for the observability
// layer (internal/obs implements it). Unlike Hooks, which exist for
// protocol layers that steer execution (trackers, placement), an
// Observer is instrumentation only: it must not call back into the
// engine or charge virtual time. All methods run on the engine
// goroutine with all threads parked or mid-switch, so implementations
// need no internal ordering beyond their own.
//
// The interface is structural so that internal/obs can implement it
// without this package importing it (threads must stay importable from
// obs's dependency set).
type Observer interface {
	// SliceEnd reports the virtual-time charges one thread accumulated
	// in a single run slice (from being scheduled to yielding at a sync
	// point), including the thread-switch overhead that scheduled it.
	// Zero-delta slices are not reported.
	SliceEnd(node, tid, epoch int, ti sim.ThreadInterval)
	// LockStall reports the wire stall a thread paid acquiring a lock,
	// for stall decomposition (the charge is already inside the slice's
	// Stall; this call attributes it).
	LockStall(node, tid int, lock int32, stall sim.Time)
	// EpochEnd reports one node's barrier-episode summary: the clock at
	// episode start, the folded thread time, the node's barrier-protocol
	// and prefetch-round costs, and the rendezvous wait that pads it to
	// the global release time. start+folded+barrier+prefetch+wait equals
	// the node clock at release, so spans tile the timeline exactly.
	EpochEnd(node, epoch int, start, folded, barrier, prefetch, wait sim.Time)
	// Migrated reports a thread migration with the source clock at
	// departure and the stack-transfer cost charged to both endpoints.
	Migrated(tid, from, to int, at, cost sim.Time)
}

// Config configures an engine.
type Config struct {
	// Threads is the application thread count.
	Threads int
	// Placement maps thread → node; nil selects the stretch-like
	// default of contiguous equal blocks.
	Placement []int
	// ShuffleSeed, when non-zero, randomizes each node's local thread
	// execution order every interval, emulating the scheduling
	// nondeterminism the paper's passive-tracking discussion relies on.
	ShuffleSeed uint64
}

// Engine runs application threads over a DSM cluster.
type Engine struct {
	cluster *dsm.Cluster
	cfg     Config
	costs   sim.Costs
	// speeds scales each node's CPU (1.0 = baseline; 2.0 = twice as
	// fast), the inverse of the cluster topology's compute scale; nil
	// when the cluster has no topology (homogeneous).
	speeds []float64

	threads []*thread
	nodeOf  []int
	clocks  []*sim.Clock
	hooks   Hooks
	obs     Observer
	rng     *sim.RNG
	// epoch counts completed barrier episodes, for Observer labelling.
	epoch int

	schedOn   bool
	iter      int
	lockOwner map[int32]int // lock → holding thread
	lastRun   []int         // node → tid of last thread run there

	// order[node] is the node's local execution order for this interval;
	// byNode[node] collects its threads' charges at a fold. Both keep
	// their rows from epoch to epoch.
	order  [][]int
	byNode [][]sim.ThreadInterval
	// nodeSeq is the fixed node iteration order (cached allocation).
	nodeSeq []int
}

// ErrDeadlock reports that no thread can make progress.
var ErrDeadlock = errors.New("threads: deadlock: no runnable thread and barrier incomplete")

// defaultStackBytes is the stack payload a migration ships.
const defaultStackBytes = 16 << 10

// NewEngine builds an engine for the cluster. It starts with the
// latency-toleration time model on; SetSchedulerEnabled switches it.
func NewEngine(cluster *dsm.Cluster, cfg Config) (*Engine, error) {
	if cfg.Threads <= 0 {
		return nil, errors.New("threads: Threads must be positive")
	}
	nnodes := cluster.NumNodes()
	if cfg.Placement == nil {
		cfg.Placement = BlockPlacement(cfg.Threads, nnodes)
	}
	if len(cfg.Placement) != cfg.Threads {
		return nil, fmt.Errorf("threads: placement has %d entries for %d threads", len(cfg.Placement), cfg.Threads)
	}
	for tid, n := range cfg.Placement {
		if n < 0 || n >= nnodes {
			return nil, fmt.Errorf("threads: thread %d placed on invalid node %d", tid, n)
		}
	}
	// The cluster's Topology is the one description of the hardware:
	// its per-node compute scale (a cost multiplier — 2 = half speed)
	// drives compute folding here as its links drive network charging
	// (dsm.Cluster.call), and the placement controller reads the same
	// scale. The paper's §2 motivates unequal thread counts with exactly
	// this heterogeneity ("some machines are faster than others");
	// capacity-aware placement (placement.StretchCapacities /
	// MinCostCapacities) exploits it.
	var speeds []float64
	if topo := cluster.Topology(); topo != nil {
		speeds = make([]float64, nnodes)
		for n := range speeds {
			speeds[n] = 1 / topo.ComputeScale(n)
		}
	}
	e := &Engine{
		cluster:   cluster,
		cfg:       cfg,
		costs:     cluster.Costs(),
		speeds:    speeds,
		nodeOf:    append([]int(nil), cfg.Placement...),
		clocks:    make([]*sim.Clock, nnodes),
		schedOn:   true,
		lockOwner: make(map[int32]int),
		lastRun:   make([]int, nnodes),
	}
	for i := range e.clocks {
		e.clocks[i] = &sim.Clock{}
	}
	for i := range e.lastRun {
		e.lastRun[i] = -1
	}
	if cfg.ShuffleSeed != 0 {
		e.rng = sim.NewRNG(cfg.ShuffleSeed)
	}
	return e, nil
}

// BlockPlacement is the default contiguous-blocks placement: the first
// threads/nodes threads on node 0, the next block on node 1, and so on —
// identical to the paper's stretch heuristic.
func BlockPlacement(threads, nodes int) []int {
	out := make([]int, threads)
	per := threads / nodes
	extra := threads % nodes
	tid := 0
	for n := 0; n < nodes; n++ {
		cnt := per
		if n < extra {
			cnt++
		}
		for i := 0; i < cnt && tid < threads; i++ {
			out[tid] = n
			tid++
		}
	}
	return out
}

// SetHooks installs engine hooks.
func (e *Engine) SetHooks(h Hooks) { e.hooks = h }

// SetObserver installs the instrumentation observer (nil detaches).
// Install before Run; installation is not synchronized with execution.
func (e *Engine) SetObserver(o Observer) { e.obs = o }

// SetSchedulerEnabled toggles the latency-toleration time model; the
// active tracker turns it off for tracked iterations (paper §4.2).
func (e *Engine) SetSchedulerEnabled(on bool) { e.schedOn = on }

// SchedulerEnabled reports the current scheduler mode.
func (e *Engine) SchedulerEnabled() bool { return e.schedOn }

// NodeOf returns the node currently hosting a thread.
func (e *Engine) NodeOf(tid int) int { return e.nodeOf[tid] }

// Placement returns a copy of the current thread → node assignment.
func (e *Engine) Placement() []int { return append([]int(nil), e.nodeOf...) }

// NumThreads returns the thread count.
func (e *Engine) NumThreads() int { return e.cfg.Threads }

// Cluster returns the engine's DSM cluster.
func (e *Engine) Cluster() *dsm.Cluster { return e.cluster }

// Elapsed returns the cluster-wide elapsed virtual time (the maximum node
// clock).
func (e *Engine) Elapsed() sim.Time { return sim.MaxClock(e.clocks) }

// NodeClock returns a node's elapsed virtual time.
func (e *Engine) NodeClock(node int) sim.Time { return e.clocks[node].Now() }

// AdvanceNode charges d of virtual time to a node's clock. Instrumentation
// layered on the engine (e.g. the active tracker's page re-protection at
// thread switches) uses this to account its own overhead.
func (e *Engine) AdvanceNode(node int, d sim.Time) { e.clocks[node].Advance(d) }

// Iteration returns the number of completed iterations.
func (e *Engine) Iteration() int { return e.iter }

// Migrate moves a thread to a node. It must be called with all threads
// parked (from an OnIteration or OnBarrier hook, or before Run). The
// migration ships the thread's stack; both endpoints are charged.
func (e *Engine) Migrate(tid, node int) error {
	if node < 0 || node >= len(e.clocks) {
		return fmt.Errorf("threads: migrate to invalid node %d", node)
	}
	from := e.nodeOf[tid]
	if from == node {
		return nil
	}
	cost := e.costs.FetchCost(64, defaultStackBytes)
	at := e.clocks[from].Now()
	e.clocks[from].Advance(cost)
	e.clocks[node].Advance(cost)
	e.nodeOf[tid] = node
	if e.obs != nil {
		e.obs.Migrated(tid, from, node, at, cost)
	}
	return nil
}

// ApplyPlacement migrates every thread whose assignment differs — the
// paper's single round of migrations once a new mapping is chosen.
// It returns the number of threads moved.
func (e *Engine) ApplyPlacement(assign []int) (int, error) {
	if len(assign) != len(e.nodeOf) {
		return 0, fmt.Errorf("threads: placement has %d entries for %d threads", len(assign), len(e.nodeOf))
	}
	moved := 0
	for tid, n := range assign {
		if e.nodeOf[tid] != n {
			if err := e.Migrate(tid, n); err != nil {
				return moved, err
			}
			moved++
		}
	}
	return moved, nil
}

// Run spawns one thread per Body produced by bodyFor and drives them all
// to completion. It is RunContext with a background context.
func (e *Engine) Run(bodyFor func(tid int) Body) error {
	return e.RunContext(context.Background(), bodyFor)
}

// RunContext is Run with cancellation: the scheduler checks ctx between
// rounds and returns ctx.Err() once it is done, abandoning the parked
// threads. Open-ended workloads (request-driven serving) rely on this as
// their stop signal; batch workloads get best-effort early exit. The
// engine is single-shot either way — a cancelled engine cannot be rerun.
func (e *Engine) RunContext(ctx context.Context, bodyFor func(tid int) Body) error {
	if e.threads != nil {
		return errors.New("threads: engine already ran")
	}
	e.threads = make([]*thread, e.cfg.Threads)
	for i := range e.threads {
		e.threads[i] = &thread{
			id:     i,
			resume: make(chan struct{}),
			events: make(chan event),
			state:  stateRunnable,
			body:   bodyFor(i),
		}
	}
	defer e.reapThreads()
	return e.loop(ctx)
}

// reapThreads unblocks any still-parked thread goroutines after an error
// so they exit instead of leaking.
func (e *Engine) reapThreads() {
	for _, t := range e.threads {
		if t.state != stateDone && t.started {
			t.abandon()
		}
	}
}

func (t *thread) abandon() {
	// Closing resume makes any future waits panic inside the goroutine;
	// recover in the shim turns that into an exit.
	close(t.resume)
	for ev := range t.events {
		if ev.kind == evDone {
			break
		}
	}
	t.state = stateDone
}

func (e *Engine) loop(ctx context.Context) error {
	live := len(e.threads)
	e.refreshOrder()
	for live > 0 {
		if err := ctx.Err(); err != nil {
			return err
		}
		progress := false
		for _, node := range e.nodeOrder() {
			for _, tid := range e.order[node] {
				t := e.threads[tid]
				if t.state != stateRunnable || e.nodeOf[tid] != node {
					continue
				}
				progress = true
				if e.hooks.OnThreadRun != nil {
					e.hooks.OnThreadRun(node, tid)
				}
				before := t.cur
				if e.lastRun[node] != tid && e.lastRun[node] >= 0 {
					t.cur.Overhead += e.costs.SwitchCost
				}
				e.lastRun[node] = tid
				ev := e.runSlice(t)
				if e.obs != nil {
					d := sim.ThreadInterval{
						Compute:  t.cur.Compute - before.Compute,
						Stall:    t.cur.Stall - before.Stall,
						Overhead: t.cur.Overhead - before.Overhead,
					}
					if d != (sim.ThreadInterval{}) {
						e.obs.SliceEnd(node, tid, e.epoch, d)
					}
				}
				switch ev.kind {
				case evDone:
					t.state = stateDone
					live--
					if ev.err != nil {
						return fmt.Errorf("threads: thread %d: %w", t.id, ev.err)
					}
				case evBarrier:
					t.state = stateAtBarrier
				case evIterEnd:
					t.state = stateAtIterEnd
				case evLockWait:
					t.state = stateLockWait
					t.waitLock = ev.lock
				case evYield:
					// Stays runnable; the slice just ended so co-resident
					// threads get a turn before the next poll.
				}
			}
		}
		if live == 0 {
			break
		}
		if e.barrierReady(live) {
			if err := e.completeBarrier(); err != nil {
				return err
			}
			continue
		}
		if !progress {
			return ErrDeadlock
		}
	}
	// Fold any residual post-final-barrier work into the node clocks.
	if e.obs != nil {
		start := make([]sim.Time, len(e.clocks))
		for n, c := range e.clocks {
			start[n] = c.Now()
		}
		e.foldIntervals()
		for n, c := range e.clocks {
			if folded := c.Now() - start[n]; folded > 0 {
				e.obs.EpochEnd(n, e.epoch, start[n], folded, 0, 0, 0)
			}
		}
		e.epoch++
	} else {
		e.foldIntervals()
	}
	return nil
}

// nodeOrder returns node indices 0..n-1 (kept as a method for symmetry
// and future policies; the slice is cached across scheduler rounds).
func (e *Engine) nodeOrder() []int {
	if e.nodeSeq == nil {
		e.nodeSeq = make([]int, len(e.clocks))
		for i := range e.nodeSeq {
			e.nodeSeq[i] = i
		}
	}
	return e.nodeSeq
}

// refreshOrder recomputes each node's local thread execution order,
// shuffling when configured.
func (e *Engine) refreshOrder() {
	if e.order == nil {
		e.order = make([][]int, len(e.clocks))
	}
	for n := range e.order {
		e.order[n] = e.order[n][:0]
	}
	for tid := range e.threads {
		n := e.nodeOf[tid]
		e.order[n] = append(e.order[n], tid)
	}
	if e.rng != nil {
		for n := range e.order {
			o := e.order[n]
			e.rng.Shuffle(len(o), func(i, j int) { o[i], o[j] = o[j], o[i] })
		}
	}
}

func (e *Engine) runSlice(t *thread) event {
	if !t.started {
		t.started = true
		go func() {
			defer close(t.events)
			defer func() {
				if r := recover(); r != nil {
					if _, ok := r.(abandoned); ok {
						return // engine tore the thread down
					}
					panic(r)
				}
			}()
			ctx := &Ctx{engine: e, t: t}
			err := t.body(ctx)
			t.events <- event{kind: evDone, err: err}
		}()
	} else {
		t.resume <- struct{}{}
	}
	return <-t.events
}

// abandoned is the panic payload thrown inside a thread goroutine when the
// engine abandons it after an error.
type abandoned struct{}

// barrierReady reports whether every live thread is parked at a barrier
// (plain or iteration-end).
func (e *Engine) barrierReady(live int) bool {
	parked := 0
	for _, t := range e.threads {
		switch t.state {
		case stateAtBarrier, stateAtIterEnd:
			parked++
		case stateDone:
		default:
			return false
		}
	}
	return parked == live && live > 0
}

// completeBarrier advances virtual time, runs the DSM barrier protocol,
// fires hooks, and releases the threads.
func (e *Engine) completeBarrier() error {
	var start []sim.Time
	if e.obs != nil {
		start = make([]sim.Time, len(e.clocks))
		for n, c := range e.clocks {
			start[n] = c.Now()
		}
	}
	e.foldIntervals()
	var folded []sim.Time
	if e.obs != nil {
		folded = make([]sim.Time, len(e.clocks))
		for n, c := range e.clocks {
			folded[n] = c.Now() - start[n]
		}
	}
	costs, err := e.cluster.Barrier()
	if err != nil {
		return err
	}
	for n, c := range costs {
		e.clocks[n].Advance(c)
	}
	// Fault tolerance: the barrier may have shrunk the membership view.
	// Threads resident on a crashed node resume on its ring successor —
	// the node holding the crashed node's replicated manager state — so
	// the workload completes over the survivors.
	for _, d := range e.cluster.DeadNodes() {
		to := e.cluster.AliveSuccessor(d)
		for tid, n := range e.nodeOf {
			if n == d && to != d {
				if err := e.Migrate(tid, to); err != nil {
					return err
				}
			}
		}
	}
	// Correlation-driven prefetch rides the barrier release: the epoch's
	// write notices are fully delivered, the threads are still parked, and
	// each node can pull the pages its residents are predicted to touch
	// before demand faults pay per-page round trips. No-op unless the
	// cluster's PrefetchBudget enables it.
	pcosts, err := e.cluster.PrefetchRound()
	if err != nil {
		return err
	}
	for n, c := range pcosts {
		e.clocks[n].Advance(c)
	}
	// Global rendezvous: everyone leaves at the latest clock.
	maxT := sim.MaxClock(e.clocks)
	if e.obs != nil {
		for n, c := range e.clocks {
			var bc, pc sim.Time
			if n < len(costs) {
				bc = costs[n]
			}
			if n < len(pcosts) {
				pc = pcosts[n]
			}
			e.obs.EpochEnd(n, e.epoch, start[n], folded[n], bc, pc, maxT-c.Now())
		}
		e.epoch++
	}
	for _, c := range e.clocks {
		c.SyncTo(maxT)
	}

	iterEnd := false
	for _, t := range e.threads {
		if t.state == stateAtIterEnd {
			iterEnd = true
		}
	}
	if e.hooks.OnBarrier != nil {
		e.hooks.OnBarrier()
	}
	if iterEnd {
		iter := e.iter
		e.iter++
		if e.hooks.OnIteration != nil {
			e.hooks.OnIteration(iter)
		}
	}
	e.refreshOrder()
	for _, t := range e.threads {
		if t.state == stateAtBarrier || t.state == stateAtIterEnd {
			t.state = stateRunnable
		}
	}
	return nil
}

// foldIntervals converts each node's accumulated per-thread charges into
// node clock time under the current scheduler mode and resets them.
// Heterogeneous node speeds scale CPU time (compute + overhead); network
// stalls are unaffected.
func (e *Engine) foldIntervals() {
	if e.byNode == nil {
		e.byNode = make([][]sim.ThreadInterval, len(e.clocks))
	}
	byNode := e.byNode
	for n := range byNode {
		byNode[n] = byNode[n][:0]
	}
	for tid, t := range e.threads {
		if t.cur != (sim.ThreadInterval{}) {
			n := e.nodeOf[tid]
			ti := t.cur
			if e.speeds != nil {
				s := e.speeds[n]
				ti.Compute = sim.Time(float64(ti.Compute) / s)
				ti.Overhead = sim.Time(float64(ti.Overhead) / s)
			}
			byNode[n] = append(byNode[n], ti)
			t.cur = sim.ThreadInterval{}
		}
	}
	for n, ivs := range byNode {
		if len(ivs) > 0 {
			e.clocks[n].Advance(sim.NodeIntervalTime(ivs, e.schedOn))
		}
	}
}

// acquireLock implements Ctx.Lock: it runs on the thread goroutine while
// the engine is parked, so engine state access is safe.
func (e *Engine) acquireLock(t *thread, lock int32) error {
	for {
		if _, held := e.lockOwner[lock]; !held {
			break
		}
		// Contention cannot arise in this engine (threads only yield
		// at synchronization points), but queue defensively.
		t.yield(event{kind: evLockWait, lock: lock})
	}
	e.lockOwner[lock] = t.id
	cost, err := e.cluster.AcquireLock(e.nodeOf[t.id], t.id, lock)
	if err != nil {
		return err
	}
	t.cur.Stall += cost
	if e.obs != nil && cost > 0 {
		e.obs.LockStall(e.nodeOf[t.id], t.id, lock, cost)
	}
	return nil
}

func (e *Engine) releaseLock(t *thread, lock int32) error {
	owner, held := e.lockOwner[lock]
	if !held || owner != t.id {
		return fmt.Errorf("threads: thread %d released lock %d it does not hold", t.id, lock)
	}
	cost, err := e.cluster.ReleaseLock(e.nodeOf[t.id], t.id, lock)
	if err != nil {
		return err
	}
	t.cur.Overhead += cost
	delete(e.lockOwner, lock)
	// Wake one waiter, if any (FIFO by thread id for determinism).
	for _, w := range e.threads {
		if w.state == stateLockWait && w.waitLock == lock {
			w.state = stateRunnable
			break
		}
	}
	return nil
}

// yield parks the thread goroutine and hands control to the engine.
func (t *thread) yield(ev event) {
	t.events <- ev
	if _, ok := <-t.resume; !ok {
		panic(abandoned{})
	}
}
