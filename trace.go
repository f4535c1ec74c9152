package actdsm

import (
	"actdsm/internal/memlayout"
	"actdsm/internal/threads"
	"actdsm/internal/trace"
)

// Trace facade: record page-access streams from live runs, analyze them
// offline, and replay them as synthetic workloads (see internal/trace).
type (
	// Trace is a recorded page-access stream.
	Trace = trace.Trace
	// TraceEvent is one page access by one thread.
	TraceEvent = trace.Event
	// Recorder captures a Trace from a live engine.
	Recorder = trace.Recorder
)

// NewRecorder attaches a trace recorder to an engine's cluster; install
// its Hooks before running.
func NewRecorder(e *Engine) *Recorder { return trace.NewRecorder(e) }

// DecodeTrace parses a trace serialized with Trace.Encode.
func DecodeTrace(b []byte) (*Trace, error) { return trace.Decode(b) }

// ReplayTrace replays a captured trace on a fresh cluster with the given
// node count, returning the run's protocol counters and elapsed virtual
// time. The replay is an ordinary Workload run through NewSystem, so it
// accepts a WithConfig — its cluster (protocol, prefetch, batching,
// transport and chaos) or its placement — and a recorded access stream
// can be driven against any cluster shape or protocol variant. Nodes
// and Pages come from the arguments and the trace itself.
func ReplayTrace(t *Trace, nodes int, opts ...SystemOption) (Snapshot, Time, error) {
	sys, err := NewSystem(&replayWorkload{t: t, body: t.ReplayBody()}, nodes, opts...)
	if err != nil {
		return Snapshot{}, 0, err
	}
	defer func() { _ = sys.Close() }()
	if err := sys.Run(); err != nil {
		return Snapshot{}, 0, err
	}
	return sys.Cluster().Stats().Snapshot(), sys.Elapsed(), nil
}

// replayWorkload adapts a captured trace to the Workload interface so
// replay runs through the same NewSystem/Run path as live apps. It has
// no Iterations method on purpose: a trace's epoch structure is
// whatever the recorded stream contains, so it is the canonical
// non-epoch Workload.
type replayWorkload struct {
	t *Trace
	// body is captured once — ReplayBody builds shared replay cursors,
	// so calling it per thread would give each thread its own copy.
	body func(tid int) threads.Body
}

var _ Workload = (*replayWorkload)(nil)

func (r *replayWorkload) Name() string { return "replay" }
func (r *replayWorkload) Threads() int { return r.t.Threads }

func (r *replayWorkload) Setup(l *memlayout.Layout) error {
	if r.t.Pages > 0 {
		_, err := l.Alloc("replay.pages", r.t.Pages*memlayout.PageSize)
		return err
	}
	return nil
}

func (r *replayWorkload) Body(tid int) threads.Body { return r.body(tid) }
