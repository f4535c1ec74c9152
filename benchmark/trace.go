package benchmark

import (
	"bufio"
	"fmt"
	"io"
	"sort"
	"sync"
	"time"

	"actdsm/internal/msg"
	"actdsm/internal/sim"
	"actdsm/internal/vm"
)

// Tracing from outside. The tracer records a span at each boundary the
// program already exposes — threads.Hooks, dsm.Probe.TransportCall — and
// nothing inside the program changes for it:
//
//	run ⊃ iter ⊃ epoch ⊃ slice | epoch_tail ⊃ rpc.<Kind>
//
// An iter ends at the benchmark's own OnIteration callback, which is the
// innermost hook: the tracker's, the serving workload's and the placement
// controller's iteration work runs before it and is the iter's self time.
// An epoch opens at the first OnThreadRun after a barrier and closes at
// OnBarrier. A slice runs from OnThreadRun to the next hook event; the
// last one of an epoch is an epoch_tail, the final thread run plus the
// whole Cluster.Barrier call, which cannot be split further from outside.
// An rpc span is one completed transport call (start = callback time −
// the call's wall time) under the slice that was open when it completed.

type spanKind uint8

const (
	spanRun spanKind = iota
	spanIter
	spanEpoch
	spanSlice
	spanEpochTail
	spanRPC
)

var spanNames = [...]string{"run", "iter", "epoch", "slice", "epoch_tail", "rpc"}

// span is one traced interval, in nanoseconds since the round began.
type span struct {
	kind   spanKind
	rpc    msg.Kind // request kind of an rpc span
	failed bool     // an rpc span whose call failed
	iter   int32    // iteration the span belongs to; -1 for the run
	parent int32    // index of the enclosing span; -1 for the run
	start  int64
	end    int64
}

func (s span) name() string {
	if s.kind == spanRPC {
		return "rpc." + s.rpc.String()
	}
	return spanNames[s.kind]
}

const noSpan = int32(-1)

// tracer collects one round's spans and outside-observable counts. The
// engine goroutine drives the hook methods and transport goroutines the
// call observer, so the span list is guarded by mu; the access hook runs
// on application thread goroutines, which the engine runs one at a time
// with channel hand-offs in between, so its counter needs no lock.
type tracer struct {
	now func() int64
	// first and last bound the measured iterations, [first, last).
	first, last int32

	mu    sync.Mutex
	spans []span
	// Open spans (noSpan when closed) and the current iteration.
	iter, epoch, slice int32
	curIter            int32

	touches    int64
	migrations int64
	// acc folds a node's SliceEnd charges until its EpochEnd; simNS is
	// the measured virtual node time by share (see simShares).
	acc   []sim.ThreadInterval
	simNS [len(simShares)]float64
}

// simShares names the five buckets the virtual node time is split into.
var simShares = [...]string{"compute", "stall", "overhead", "barrier", "wait"}

func newTracer(now func() int64, measured int) *tracer {
	t := &tracer{now: now, first: warmup, last: int32(warmup + measured),
		iter: noSpan, epoch: noSpan, slice: noSpan, acc: make([]sim.ThreadInterval, nodes)}
	at := now()
	t.spans = append(t.spans, span{kind: spanRun, iter: -1, parent: noSpan, start: at})
	t.iter = t.open(spanIter, 0, at)
	return t
}

// open appends a span and returns its index. Callers hold mu (or run
// before any concurrency exists).
func (t *tracer) open(k spanKind, parent int32, at int64) int32 {
	t.spans = append(t.spans, span{kind: k, iter: t.curIter, parent: parent, start: at})
	return int32(len(t.spans) - 1)
}

func (t *tracer) close(i *int32, at int64) {
	if *i != noSpan {
		t.spans[*i].end = at
		*i = noSpan
	}
}

func (t *tracer) measuring() bool { return t.curIter >= t.first && t.curIter < t.last }

// onThreadRun is threads.Hooks.OnThreadRun.
func (t *tracer) onThreadRun(node, tid int) {
	at := t.now()
	t.mu.Lock()
	t.close(&t.slice, at)
	if t.epoch == noSpan {
		t.epoch = t.open(spanEpoch, t.iter, at)
	}
	t.slice = t.open(spanSlice, t.epoch, at)
	t.mu.Unlock()
}

// onBarrier is threads.Hooks.OnBarrier.
func (t *tracer) onBarrier() {
	at := t.now()
	t.mu.Lock()
	if t.slice != noSpan {
		t.spans[t.slice].kind = spanEpochTail
	}
	t.close(&t.slice, at)
	t.close(&t.epoch, at)
	t.mu.Unlock()
}

// onIteration is threads.Hooks.OnIteration.
func (t *tracer) onIteration(iter int) {
	at := t.now()
	t.mu.Lock()
	t.close(&t.iter, at)
	t.curIter = int32(iter + 1)
	t.iter = t.open(spanIter, 0, at)
	t.mu.Unlock()
}

// onCall is dsm.Probe.TransportCall.
func (t *tracer) onCall(from, to int, kind msg.Kind, bytes int, wall time.Duration, failed bool) {
	at := t.now()
	t.mu.Lock()
	parent := t.slice
	if parent == noSpan {
		parent = t.iter
	}
	t.spans = append(t.spans, span{kind: spanRPC, rpc: kind, failed: failed,
		iter: t.curIter, parent: parent, start: at - wall.Nanoseconds(), end: at})
	t.mu.Unlock()
}

// onAccess is the Cluster.AddAccessHook callback.
func (t *tracer) onAccess(node, tid int, p vm.PageID, a vm.Access) {
	if t.measuring() {
		t.touches++
	}
}

// finish closes whatever is still open when the run returns.
func (t *tracer) finish() {
	at := t.now()
	t.mu.Lock()
	t.close(&t.slice, at)
	t.close(&t.epoch, at)
	t.close(&t.iter, at)
	t.spans[0].end = at
	t.mu.Unlock()
}

// The tracer is also the engine's threads.Observer, for the virtual-time
// decomposition: a node's episode is its folded thread time, split in
// proportion to the compute, stall and overhead its slices charged, plus
// its barrier-protocol (and prefetch) cost and its rendezvous wait.

func (t *tracer) SliceEnd(node, tid, epoch int, ti sim.ThreadInterval) { t.acc[node].Add(ti) }

func (t *tracer) LockStall(node, tid int, lock int32, stall sim.Time) {}

func (t *tracer) EpochEnd(node, epoch int, start, folded, barrier, prefetch, wait sim.Time) {
	charged := t.acc[node]
	t.acc[node] = sim.ThreadInterval{}
	if !t.measuring() {
		return
	}
	if total := float64(charged.Total()); total > 0 {
		f := float64(folded) / total
		t.simNS[0] += f * float64(charged.Compute)
		t.simNS[1] += f * float64(charged.Stall)
		t.simNS[2] += f * float64(charged.Overhead)
	}
	t.simNS[3] += float64(barrier + prefetch)
	t.simNS[4] += float64(wait)
}

func (t *tracer) Migrated(tid, from, to int, at, cost sim.Time) { t.migrations++ }

// traceAgg is what the per-layer metrics need from one traced round.
type traceAgg struct {
	iters  int
	wallNS int64 // Σ measured iter spans
	// Self times: a span's duration minus what its children cover.
	sliceSelfNS, tailSelfNS, epochSelfNS, iterSelfNS int64
	slices                                           int64
	// rpcUnionNS is the time at least one call was in flight; rpcSumNS
	// adds every call's wall time, overlapping or not.
	rpcUnionNS, rpcSumNS int64
	rpcNS                []int64
	kindNS               [msg.KindCount]int64
	failedCalls          int64
	touches, migrations  int64
	simNS                [len(simShares)]float64
}

// kindTotalNS returns the summed wall time of the calls whose request
// kind has the given name.
func (a *traceAgg) kindTotalNS(name string) int64 {
	for k, ns := range a.kindNS {
		if msg.Kind(k).String() == name {
			return ns
		}
	}
	return 0
}

type interval struct{ start, end int64 }

// unionLen returns the total length covered by the intervals.
func unionLen(ivs []interval) int64 {
	sort.Slice(ivs, func(i, j int) bool { return ivs[i].start < ivs[j].start })
	var total int64
	end := int64(-1 << 62)
	for _, iv := range ivs {
		if iv.start > end {
			total += iv.end - iv.start
			end = iv.end
		} else if iv.end > end {
			total += iv.end - end
			end = iv.end
		}
	}
	return total
}

// aggregate folds the measured iterations' spans into a traceAgg.
func (t *tracer) aggregate() traceAgg {
	a := traceAgg{iters: int(t.last - t.first), touches: t.touches, migrations: t.migrations, simNS: t.simNS}
	// covered[i] is the time span i's children cover: for a slice the
	// union of its calls (a barrier's fan-out overlaps), otherwise the
	// sum of the child spans, which never overlap.
	covered := make([]int64, len(t.spans))
	calls := map[int32][]interval{}
	var all []interval
	for _, s := range t.spans {
		if s.iter < t.first || s.iter >= t.last {
			continue
		}
		d := s.end - s.start
		switch s.kind {
		case spanRPC:
			p := t.spans[s.parent]
			iv := interval{max(s.start, p.start), min(s.end, p.end)}
			calls[s.parent] = append(calls[s.parent], iv)
			all = append(all, iv)
			a.rpcSumNS += d
			a.rpcNS = append(a.rpcNS, d)
			if int(s.rpc) < len(a.kindNS) {
				a.kindNS[s.rpc] += d
			}
			if s.failed {
				a.failedCalls++
			}
		case spanIter:
			a.wallNS += d
		default:
			covered[s.parent] += d
		}
	}
	for p, ivs := range calls {
		covered[p] += unionLen(ivs)
	}
	a.rpcUnionNS = unionLen(all)
	for i, s := range t.spans {
		if s.iter < t.first || s.iter >= t.last {
			continue
		}
		self := s.end - s.start - covered[i]
		switch s.kind {
		case spanIter:
			a.iterSelfNS += self
		case spanEpoch:
			a.epochSelfNS += self
		case spanSlice:
			a.sliceSelfNS += self
			a.slices++
		case spanEpochTail:
			a.tailSelfNS += self
			a.slices++
		}
	}
	return a
}

// writeSpans writes every span of the round as JSON: name, start and end
// in nanoseconds since the round began, the parent's id (the index in
// the list, -1 for the run) and the iteration id.
func (t *tracer) writeSpans(w io.Writer, workload string, seed uint64) error {
	bw := bufio.NewWriter(w)
	fmt.Fprintf(bw, "{\"workload\":%q,\"seed\":%d,\"unit\":\"ns\",\"measured_iters\":[%d,%d],\"spans\":[\n",
		workload, seed, t.first, t.last)
	for i, s := range t.spans {
		sep := ","
		if i == len(t.spans)-1 {
			sep = ""
		}
		fmt.Fprintf(bw, "{\"id\":%d,\"name\":%q,\"start\":%d,\"end\":%d,\"parent\":%d,\"iter\":%d}%s\n",
			i, s.name(), s.start, s.end, s.parent, s.iter, sep)
	}
	fmt.Fprint(bw, "]}\n")
	return bw.Flush()
}
