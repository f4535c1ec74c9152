package transport

import "sync"

// Deterministic chaos-plan replay.
//
// The pinned-numbering contract: a chaos Plan is keyed by the 1-based
// global call sequence number, so a plan is only replayable if that
// numbering is a pure function of the workload and the plan itself.
// The DSM layer guarantees this under SerialFanOut — fan-outs issue
// calls in index order on one goroutine — and with a fixed edge order:
// a barrier phase walks its tree level by level, index order within a
// level, and every edge (and every GC collect) still runs after an
// earlier one fails. A lost message is retried by the retry wrapper
// above the fault injector, and each attempt draws the next call number.
// Injecting a fault at call N therefore shifts later numbering
// identically on every run, and two runs with the same workload,
// config, and Plan produce the same call trace — which RecordingPlan
// captures for comparison.

// CallRecord is one transport call as observed by a recording chaos
// plan: its endpoints, message kind (the payload's first byte), global
// 1-based sequence number, and the fault the wrapped plan injected.
type CallRecord struct {
	From, To int
	Kind     byte
	Call     int64
	Fault    Fault
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

// Len returns the number of recorded calls.
func (l *CallLog) Len() int {
	l.mu.Lock()
	defer l.mu.Unlock()
	return len(l.recs)
}

// RecordingPlan wraps a chaos Plan so that every call it classifies is
// appended to log, capturing the run's full (from, to, kind, call,
// fault) trace. A nil plan records every call with FaultNone injected —
// a pure tracer. Use two logs over two identical runs to assert the
// pinned-numbering contract above.
func RecordingPlan(plan func(from, to int, payload []byte, call int64) Fault, log *CallLog) func(from, to int, payload []byte, call int64) Fault {
	return func(from, to int, payload []byte, call int64) Fault {
		f := FaultNone
		if plan != nil {
			f = plan(from, to, payload, call)
		}
		var kind byte
		if len(payload) > 0 {
			kind = payload[0]
		}
		log.mu.Lock()
		log.recs = append(log.recs, CallRecord{From: from, To: to, Kind: kind, Call: call, Fault: f})
		log.mu.Unlock()
		return f
	}
}
