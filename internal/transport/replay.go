package transport

import (
	"slices"
	"sync"

	"actdsm/internal/sim"
)

// Deterministic chaos-plan replay.
//
// The per-edge keying contract: a chaos Plan and a crash schedule name a
// call by its sim.CallKey — its directed edge (from, to), its kind, and
// the number n of earlier calls of that kind on that edge, retries
// included. A plan replays only if each edge's call sequence is a pure
// function of the workload and the plan; the global interleaving of edges
// need not be. The DSM layer guarantees it with its fan-outs running in
// parallel, by one rule: no two legs of one fan-out call on one directed
// edge, the calls their serves make included (internal/dsm/doc.go). Each
// edge then carries its calls in one goroutine's program order. Retries
// stay on their edge: a lost message is retried by the retry wrapper above
// the fault injector, each attempt draws the next n of its edge and kind,
// and every edge (and every GC collect) of a phase still runs after an
// earlier one fails. Injecting a fault at a key therefore shifts later
// keys of that edge and kind identically on every run, and two runs with
// the same workload, config and Plan produce the same per-edge traces —
// which RecordingPlan captures for comparison (CallLog.Edges).
//
// Keys are positions, not payload hashes. A tree-barrier parent folds its
// children's enters in arrival order, so the bytes of an aggregated
// BarrierEnter vary from run to run while the kind sequence on every edge
// does not; a hash would name a different call each run.

// CallRecord is one transport call as observed by a recording chaos
// plan: its key (endpoints, message kind — the payload's first byte —
// and place on the edge) and the fault the wrapped plan injected.
type CallRecord struct {
	sim.CallKey
	Fault Fault
}

// CallLog accumulates the call records of a RecordingPlan. Safe for
// concurrent use (chaos plans may be called from parallel fan-outs).
type CallLog struct {
	mu   sync.Mutex
	recs []CallRecord
}

// Records returns a copy of the recorded calls in observation order.
func (l *CallLog) Records() []CallRecord {
	l.mu.Lock()
	defer l.mu.Unlock()
	return append([]CallRecord(nil), l.recs...)
}

// Edges returns the recorded calls grouped by directed edge, edges in
// (from, to) order and each edge's calls in the order it carried them:
// the per-edge trace, which two runs of one workload and plan must agree
// on even when the global order differs.
func (l *CallLog) Edges() []CallRecord {
	recs := l.Records()
	slices.SortStableFunc(recs, func(a, b CallRecord) int {
		if a.From != b.From {
			return a.From - b.From
		}
		return a.To - b.To
	})
	return recs
}

// Len returns the number of recorded calls.
func (l *CallLog) Len() int {
	l.mu.Lock()
	defer l.mu.Unlock()
	return len(l.recs)
}

// RecordingPlan wraps a chaos Plan so that every call it classifies is
// appended to log, capturing the run's full (key, fault) trace. A nil
// plan records every call with FaultNone injected — a pure tracer. Use
// two logs over two identical runs to assert the per-edge keying
// contract above.
func RecordingPlan(plan func(sim.CallKey, []byte) Fault, log *CallLog) func(sim.CallKey, []byte) Fault {
	return func(key sim.CallKey, payload []byte) Fault {
		f := FaultNone
		if plan != nil {
			f = plan(key, payload)
		}
		log.mu.Lock()
		log.recs = append(log.recs, CallRecord{CallKey: key, Fault: f})
		log.mu.Unlock()
		return f
	}
}
