// Package obs is the observability layer: a low-overhead structured event
// recorder that reconstructs per-node, per-thread epoch timelines from the
// engine's virtual-time accounting and the DSM's protocol probe, plus
// exporters — a Chrome trace-event / Perfetto JSON trace (perfetto.go), a
// Prometheus-style text metrics dump (metrics.go), and a per-epoch
// critical-path breakdown (breakdown.go).
//
// The paper's whole argument is a time-breakdown one: correlation-driven
// placement pays off because migration converts remote-fault stall into
// local compute. The aggregate dsm.Stats counters can say *how many*
// faults happened; this layer says *where inside an epoch* the time went —
// compute vs. page-fault stall vs. diff-fetch stall vs. lock stall vs.
// barrier protocol vs. rendezvous wait vs. migration — per node and per
// thread, for every barrier episode.
//
// Event flow. Three producers feed one Recorder:
//
//   - the thread engine (threads.Engine.SetObserver) emits a run-slice
//     event per thread per scheduling slice with the slice's virtual-time
//     charges, a node-epoch summary at every barrier, and migration events;
//   - the DSM cluster (dsm.Probe, built by Recorder.Probe) emits instant
//     events for remote fetches (classified full-page / diff / batched
//     diff), prefetch rounds, and lock transfers, which the recorder also
//     folds into the enclosing slice's stall attribution;
//   - the cluster's call site (the probe's TransportCall hook, fired by
//     dsm's callFrame, which also times the call for its own latency
//     histograms) emits one wall-clock latency span per completed
//     logical call, retries included.
//
// Overhead. Recording is off unless explicitly enabled
// (actdsm.SystemConfig.Obs). Every hook checks a nil probe / nil observer
// first, so disabled runs take a single predictable branch and allocate
// nothing on the probe path (see BenchmarkObsOverhead). Enabled runs write
// fixed-size Event structs into a preallocated ring buffer; when the ring
// wraps, the oldest events are dropped and Dropped() reports how many.
package obs

import (
	"sync"
	"time"

	"actdsm/internal/dsm"
	"actdsm/internal/msg"
	"actdsm/internal/sim"
	"actdsm/internal/vm"
)

// Kind discriminates event records.
type Kind uint8

// Event kinds.
const (
	// EvRunSlice is one thread's scheduling slice: the virtual-time
	// charges it accumulated between two engine scheduling points, with
	// the stall decomposed into page-fetch / diff-fetch / lock shares.
	EvRunSlice Kind = iota + 1
	// EvNodeEpoch summarizes one node's barrier episode: interval time
	// (folded per-thread charges), barrier protocol cost, prefetch round
	// cost, and rendezvous wait. Emitted once per node per episode.
	EvNodeEpoch
	// EvMigrate is one thread migration (Node = source, Arg = target).
	EvMigrate
	// EvRemoteFetch is an instant event for one remote data fetch on the
	// demand-fault path (Detail holds the dsm.FetchKind, Arg the page).
	EvRemoteFetch
	// EvPrefetchRound is one node's barrier-release prefetch round
	// (Bytes = pages brought current, Dur = virtual cost).
	EvPrefetchRound
	// EvLockAcquire and EvLockRelease are instant lock-transfer events
	// (Arg = lock id).
	EvLockAcquire
	EvLockRelease
	// EvTransportCall is one completed logical transport call (including
	// its retries): Node = caller, Arg = callee, Detail = msg.Kind,
	// Bytes = request+reply wire bytes, Wall = wall-clock latency,
	// WallTS = wall-clock end time relative to the recorder's start.
	EvTransportCall
)

// String implements fmt.Stringer.
func (k Kind) String() string {
	switch k {
	case EvRunSlice:
		return "run-slice"
	case EvNodeEpoch:
		return "node-epoch"
	case EvMigrate:
		return "migrate"
	case EvRemoteFetch:
		return "remote-fetch"
	case EvPrefetchRound:
		return "prefetch-round"
	case EvLockAcquire:
		return "lock-acquire"
	case EvLockRelease:
		return "lock-release"
	case EvTransportCall:
		return "transport-call"
	default:
		return "unknown"
	}
}

// Event is one fixed-size record in the ring buffer. Which fields are
// meaningful depends on Kind; unused fields are zero.
type Event struct {
	Kind   Kind
	Detail uint8 // dsm.FetchKind (EvRemoteFetch) or msg.Kind (EvTransportCall)
	Failed bool  // EvTransportCall: the call ultimately failed

	Node  int32 // owning node (EvTransportCall: caller)
	TID   int32 // owning thread, -1 for node-scope events
	Epoch int32 // barrier episode the event belongs to
	Arg   int32 // page / lock / target node / callee, by Kind

	// Time is a virtual-time anchor: EvNodeEpoch's epoch start and
	// EvMigrate's migration instant. Run slices carry no absolute start —
	// the exporters lay them out inside their epoch window.
	Time sim.Time
	// Dur is the event's virtual duration (EvRunSlice: total charges;
	// EvNodeEpoch: folded interval time; EvMigrate / EvPrefetchRound /
	// EvRemoteFetch: the operation's virtual cost).
	Dur sim.Time

	// EvRunSlice decomposition: Dur = Compute + Stall + Overhead, and
	// PageStall + DiffStall + LockStall <= Stall (the attributed shares;
	// the remainder is unclassified remote stall).
	Compute   sim.Time
	Stall     sim.Time
	Overhead  sim.Time
	PageStall sim.Time
	DiffStall sim.Time
	LockStall sim.Time

	// EvNodeEpoch components beyond the folded interval time in Dur.
	Barrier  sim.Time // barrier protocol cost (incl. GC consolidation)
	Prefetch sim.Time // barrier-release prefetch round cost
	Wait     sim.Time // rendezvous wait to the slowest node

	Bytes int64         // EvTransportCall / EvPrefetchRound payload size
	Wall  time.Duration // EvTransportCall wall-clock latency
	// WallTS is the wall-clock end time of the event relative to the
	// recorder's creation (EvTransportCall only).
	WallTS time.Duration
}

// Config configures a Recorder.
type Config struct {
	// Enabled turns recording on. The zero value (disabled) makes every
	// hook a nil check and nothing more.
	Enabled bool
	// BufferEvents is the ring-buffer capacity in events; when the ring
	// wraps the oldest events are dropped. 0 selects DefaultBufferEvents.
	BufferEvents int
}

// DefaultBufferEvents is the default ring capacity (~64k events, a few MB).
const DefaultBufferEvents = 1 << 16

// stallAttr accumulates one thread's classified remote-stall charges
// between two run-slice emits; SliceEnd drains it into the slice event.
type stallAttr struct {
	page, diff, lock sim.Time
}

// Recorder is the structured event recorder. It is safe for concurrent
// use: the engine emits from the scheduler loop, but probe events can
// arrive from transport server goroutines and parallel fan-outs.
//
// A Recorder implements threads.Observer (engine-side spans) and builds a
// dsm.Probe (protocol-side events) via Probe.
type Recorder struct {
	cfg Config

	mu      sync.Mutex
	buf     []Event
	total   int64 // events ever recorded; ring position is total % cap
	epoch   int32 // current barrier episode (advanced by EpochEnd)
	attr    map[int32]*stallAttr
	wall0   time.Time
	started bool
}

// NewRecorder builds a recorder. A disabled recorder (cfg.Enabled false)
// accepts every hook call and records nothing, allocation-free.
func NewRecorder(cfg Config) *Recorder {
	r := &Recorder{cfg: cfg}
	if cfg.Enabled {
		if cfg.BufferEvents <= 0 {
			cfg.BufferEvents = DefaultBufferEvents
			r.cfg.BufferEvents = DefaultBufferEvents
		}
		r.buf = make([]Event, 0, cfg.BufferEvents)
		r.attr = make(map[int32]*stallAttr)
		r.wall0 = time.Now()
		r.started = true
	}
	return r
}

// Enabled reports whether the recorder is recording.
func (r *Recorder) Enabled() bool { return r != nil && r.cfg.Enabled }

// record appends an event to the ring. Caller must NOT hold r.mu.
func (r *Recorder) record(e Event) {
	r.mu.Lock()
	if int(r.total) < cap(r.buf) {
		r.buf = append(r.buf, e)
	} else {
		r.buf[int(r.total)%cap(r.buf)] = e
	}
	r.total++
	r.mu.Unlock()
}

// Events returns a copy of the recorded events in record order (oldest
// surviving event first).
func (r *Recorder) Events() []Event {
	if !r.Enabled() {
		return nil
	}
	r.mu.Lock()
	defer r.mu.Unlock()
	n := len(r.buf)
	out := make([]Event, n)
	if int(r.total) <= cap(r.buf) {
		copy(out, r.buf)
		return out
	}
	// The ring wrapped: oldest surviving event sits at total % cap.
	start := int(r.total) % cap(r.buf)
	copy(out, r.buf[start:])
	copy(out[n-start:], r.buf[:start])
	return out
}

// Dropped returns the number of events lost to ring wrap-around.
func (r *Recorder) Dropped() int64 {
	if !r.Enabled() {
		return 0
	}
	r.mu.Lock()
	defer r.mu.Unlock()
	if d := r.total - int64(cap(r.buf)); d > 0 {
		return d
	}
	return 0
}

// ---- threads.Observer implementation (engine-side spans) ----

// SliceEnd records one thread scheduling slice with the classified stall
// attribution accumulated by the probe since the thread's previous slice.
func (r *Recorder) SliceEnd(node, tid, epoch int, ti sim.ThreadInterval) {
	if !r.Enabled() {
		return
	}
	e := Event{
		Kind:     EvRunSlice,
		Node:     int32(node),
		TID:      int32(tid),
		Epoch:    int32(epoch),
		Dur:      ti.Compute + ti.Stall + ti.Overhead,
		Compute:  ti.Compute,
		Stall:    ti.Stall,
		Overhead: ti.Overhead,
	}
	r.mu.Lock()
	if a := r.attr[int32(tid)]; a != nil {
		e.PageStall, e.DiffStall, e.LockStall = a.page, a.diff, a.lock
		*a = stallAttr{}
	}
	// Attribution can exceed the engine's recorded stall only through a
	// bookkeeping bug; clamp defensively so exporters never see a negative
	// unclassified remainder.
	if sum := e.PageStall + e.DiffStall + e.LockStall; sum > e.Stall && sum > 0 {
		scale := float64(e.Stall) / float64(sum)
		e.PageStall = sim.Time(float64(e.PageStall) * scale)
		e.DiffStall = sim.Time(float64(e.DiffStall) * scale)
		e.LockStall = sim.Time(float64(e.LockStall) * scale)
	}
	r.mu.Unlock()
	r.record(e)
}

// LockStall attributes a lock-acquire stall to a thread's current slice.
func (r *Recorder) LockStall(node, tid int, lock int32, stall sim.Time) {
	if !r.Enabled() {
		return
	}
	r.mu.Lock()
	a := r.attr[int32(tid)]
	if a == nil {
		a = &stallAttr{}
		r.attr[int32(tid)] = a
	}
	a.lock += stall
	r.mu.Unlock()
}

// EpochEnd records one node's barrier-episode summary and advances the
// recorder's current-epoch stamp once the last node reports.
func (r *Recorder) EpochEnd(node, epoch int, start, folded, barrier, prefetch, wait sim.Time) {
	if !r.Enabled() {
		return
	}
	r.record(Event{
		Kind:     EvNodeEpoch,
		Node:     int32(node),
		TID:      -1,
		Epoch:    int32(epoch),
		Time:     start,
		Dur:      folded,
		Barrier:  barrier,
		Prefetch: prefetch,
		Wait:     wait,
	})
	r.mu.Lock()
	if int32(epoch) >= r.epoch {
		r.epoch = int32(epoch) + 1
	}
	r.mu.Unlock()
}

// Migrated records one thread migration.
func (r *Recorder) Migrated(tid, from, to int, at, cost sim.Time) {
	if !r.Enabled() {
		return
	}
	r.mu.Lock()
	epoch := r.epoch
	r.mu.Unlock()
	r.record(Event{
		Kind:  EvMigrate,
		Node:  int32(from),
		TID:   int32(tid),
		Epoch: epoch,
		Arg:   int32(to),
		Time:  at,
		Dur:   cost,
	})
}

// ---- dsm.Probe construction (protocol-side events) ----

// Probe returns a dsm.Probe that streams protocol events into the
// recorder: remote fetches (with stall attribution), prefetch rounds,
// lock transfers, and transport call latencies. A disabled recorder
// returns nil, which keeps the cluster on its nil-probe fast path.
func (r *Recorder) Probe() *dsm.Probe {
	if !r.Enabled() {
		return nil
	}
	return &dsm.Probe{
		RemoteFetch:   r.remoteFetch,
		PrefetchDone:  r.prefetchDone,
		TransportCall: r.transportCall,
		LockAcquired: func(node int, lock int32) {
			r.instant(EvLockAcquire, node, lock)
		},
		LockReleased: func(node int, lock int32) {
			r.instant(EvLockRelease, node, lock)
		},
	}
}

func (r *Recorder) instant(k Kind, node int, arg int32) {
	r.mu.Lock()
	epoch := r.epoch
	r.mu.Unlock()
	r.record(Event{Kind: k, Node: int32(node), TID: -1, Epoch: epoch, Arg: arg})
}

// remoteFetch records a demand-path fetch and accumulates its wire stall
// into the faulting thread's attribution (server-side fetches carry
// tid < 0 and are not attributed to any thread slice).
func (r *Recorder) remoteFetch(node, tid int, k dsm.FetchKind, p vm.PageID, wire sim.Time) {
	r.mu.Lock()
	epoch := r.epoch
	if tid >= 0 {
		a := r.attr[int32(tid)]
		if a == nil {
			a = &stallAttr{}
			r.attr[int32(tid)] = a
		}
		if k == dsm.FetchPage {
			a.page += wire
		} else {
			a.diff += wire
		}
	}
	r.mu.Unlock()
	r.record(Event{
		Kind:   EvRemoteFetch,
		Detail: uint8(k),
		Node:   int32(node),
		TID:    int32(tid),
		Epoch:  epoch,
		Arg:    int32(p),
		Dur:    wire,
	})
}

func (r *Recorder) prefetchDone(node, pages int, cost sim.Time) {
	r.mu.Lock()
	epoch := r.epoch
	r.mu.Unlock()
	r.record(Event{
		Kind:  EvPrefetchRound,
		Node:  int32(node),
		TID:   -1,
		Epoch: epoch,
		Dur:   cost,
		Bytes: int64(pages),
	})
}

func (r *Recorder) transportCall(from, to int, kind msg.Kind, bytes int, wall time.Duration, failed bool) {
	r.mu.Lock()
	epoch := r.epoch
	r.mu.Unlock()
	r.record(Event{
		Kind:   EvTransportCall,
		Detail: uint8(kind),
		Failed: failed,
		Node:   int32(from),
		TID:    -1,
		Epoch:  epoch,
		Arg:    int32(to),
		Bytes:  int64(bytes),
		Wall:   wall,
		WallTS: time.Since(r.wall0),
	})
}
