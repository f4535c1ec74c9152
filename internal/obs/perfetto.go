package obs

// Chrome trace-event / Perfetto JSON exporter. The output opens directly
// in ui.perfetto.dev (or chrome://tracing): DSM nodes render as
// processes, application threads as tracks inside them, with one span
// per scheduling slice, per-epoch protocol spans (barrier, prefetch,
// rendezvous wait) on a dedicated "protocol" track, instant markers for
// remote fetches and lock transfers, migration spans, and — on a
// separate wall-clock process — one span per transport call.
//
// Timeline reconstruction. Run-slice events carry virtual-time charges
// but no absolute start: the engine runs threads sequentially per node
// and only folds their charges into the node clock at barriers, where
// the latency-toleration model (sim.NodeIntervalTime) may overlap
// stalls with other threads' compute. The exporter therefore lays each
// node-epoch out from its EvNodeEpoch summary: slices are placed
// back-to-back in scheduling order and scaled by folded/Σraw so they
// tile the folded window exactly; the barrier, prefetch and wait spans
// follow. Per-epoch span totals thus sum to the node's wall (virtual)
// time by construction; the raw unscaled charges are preserved in each
// span's args.

import (
	"encoding/json"
	"fmt"
	"io"
	"sort"

	"actdsm/internal/dsm"
	"actdsm/internal/msg"
	"actdsm/internal/sim"
)

// traceEvent is one entry of the trace-event JSON array.
type traceEvent struct {
	Name string         `json:"name"`
	Ph   string         `json:"ph"`
	PID  int64          `json:"pid"`
	TID  int64          `json:"tid"`
	TS   float64        `json:"ts"`            // microseconds
	Dur  float64        `json:"dur,omitempty"` // microseconds
	S    string         `json:"s,omitempty"`   // instant scope
	Cat  string         `json:"cat,omitempty"`
	Args map[string]any `json:"args,omitempty"`
}

// Track ids inside a node process. Thread tracks use the application
// thread id + trackThreadBase so the protocol track sorts first.
const (
	trackProtocol   = 0
	trackThreadBase = 1
)

func usec(t sim.Time) float64 { return float64(t) / 1e3 }

// WriteTrace renders the recorder's events as Chrome trace-event JSON.
// If the ring wrapped, the surviving events are still written — the tail
// of a run is worth looking at — but the call returns an error naming
// the dropped and recorded counts, so a partial timeline is never
// mistaken for a whole one.
func (r *Recorder) WriteTrace(w io.Writer) error {
	if !r.Enabled() {
		return fmt.Errorf("obs: recorder disabled, no trace to export")
	}
	evs := r.Events()
	if err := TraceJSON(evs, w); err != nil {
		return err
	}
	if dropped := r.Dropped(); dropped > 0 {
		return fmt.Errorf("obs: trace truncated: ring dropped the oldest %d events, recorded %d; raise Config.BufferEvents",
			dropped, len(evs))
	}
	return nil
}

// epochAccum buffers one node's events between two EvNodeEpoch records.
type epochAccum struct {
	slices []Event
	// marks are instant events (remote fetches, lock transfers) queued
	// per thread (key = TID; -1 collects node-scope marks), drained into
	// the owning slice's span when the epoch is laid out.
	marks map[int32][]Event
}

func newEpochAccum() *epochAccum {
	return &epochAccum{marks: make(map[int32][]Event)}
}

// TraceJSON renders events (as returned by Recorder.Events) as Chrome
// trace-event JSON. Node n becomes process pid n; its protocol activity
// (barrier, prefetch, wait, GC-side fetches) renders on track 0 and each
// application thread t on track t+1. Transport calls render on one extra
// process with wall-clock timestamps, one track per calling node.
func TraceJSON(events []Event, w io.Writer) error {
	var out []traceEvent

	// Pass 1: extent of the node / thread id spaces, for metadata.
	nnodes, nthreads := 0, 0
	hasTransport := false
	for _, e := range events {
		if int(e.Node) >= nnodes {
			nnodes = int(e.Node) + 1
		}
		if (e.Kind == EvMigrate || e.Kind == EvTransportCall) && int(e.Arg) >= nnodes {
			nnodes = int(e.Arg) + 1
		}
		if e.Kind == EvRunSlice || e.Kind == EvMigrate {
			if int(e.TID) >= nthreads {
				nthreads = int(e.TID) + 1
			}
		}
		if e.Kind == EvTransportCall {
			hasTransport = true
		}
	}
	transportPID := int64(nnodes)

	// Metadata: stable process / thread naming.
	for n := 0; n < nnodes; n++ {
		out = append(out,
			traceEvent{Name: "process_name", Ph: "M", PID: int64(n), Args: map[string]any{"name": fmt.Sprintf("node %d", n)}},
			traceEvent{Name: "process_sort_index", Ph: "M", PID: int64(n), Args: map[string]any{"sort_index": n}},
			traceEvent{Name: "thread_name", Ph: "M", PID: int64(n), TID: trackProtocol, Args: map[string]any{"name": "protocol"}},
		)
	}
	if hasTransport {
		out = append(out,
			traceEvent{Name: "process_name", Ph: "M", PID: transportPID, Args: map[string]any{"name": "transport (wall clock)"}},
			traceEvent{Name: "process_sort_index", Ph: "M", PID: transportPID, Args: map[string]any{"sort_index": nnodes}},
		)
		for n := 0; n < nnodes; n++ {
			out = append(out, traceEvent{Name: "thread_name", Ph: "M", PID: transportPID, TID: int64(n),
				Args: map[string]any{"name": fmt.Sprintf("from node %d", n)}})
		}
	}
	// Thread tracks are named on the node that first runs them; after a
	// migration the destination names its track too. Collect lazily.
	named := make(map[[2]int64]bool)
	nameThread := func(pid int64, tid int32) {
		key := [2]int64{pid, int64(tid)}
		if tid < 0 || named[key] {
			return
		}
		named[key] = true
		out = append(out, traceEvent{Name: "thread_name", Ph: "M", PID: pid, TID: int64(tid) + trackThreadBase,
			Args: map[string]any{"name": fmt.Sprintf("thread %d", tid)}})
	}

	// Pass 2: lay out node-epoch windows.
	acc := make([]*epochAccum, nnodes)
	for i := range acc {
		acc[i] = newEpochAccum()
	}
	var prefetchPages = make(map[int64]int64) // node → pages, from EvPrefetchRound

	emitMark := func(m Event, ts float64) {
		pid := int64(m.Node)
		track := int64(trackProtocol)
		if m.TID >= 0 {
			track = int64(m.TID) + trackThreadBase
		}
		switch m.Kind {
		case EvRemoteFetch:
			out = append(out, traceEvent{
				Name: "fetch " + dsm.FetchKind(m.Detail).String(),
				Ph:   "i", S: "t", PID: pid, TID: track, TS: ts, Cat: "fetch",
				Args: map[string]any{"page": m.Arg, "wire_ns": int64(m.Dur), "tid": m.TID},
			})
		case EvLockAcquire, EvLockRelease:
			name := "lock acquire"
			if m.Kind == EvLockRelease {
				name = "lock release"
			}
			out = append(out, traceEvent{
				Name: name, Ph: "i", S: "t", PID: pid, TID: track, TS: ts, Cat: "lock",
				Args: map[string]any{"lock": m.Arg},
			})
		}
	}

	layoutEpoch := func(ep Event) {
		node := int(ep.Node)
		a := acc[node]
		acc[node] = newEpochAccum()
		var raw sim.Time
		for _, s := range a.slices {
			raw += s.Dur
		}
		scale := 1.0
		if raw > 0 && ep.Dur > 0 {
			scale = float64(ep.Dur) / float64(raw)
		}
		cursor := float64(ep.Time) // ns
		for _, s := range a.slices {
			span := float64(s.Dur) * scale
			nameThread(int64(node), s.TID)
			out = append(out, traceEvent{
				Name: "run", Ph: "X", PID: int64(node), TID: int64(s.TID) + trackThreadBase,
				TS: cursor / 1e3, Dur: span / 1e3, Cat: "slice",
				Args: map[string]any{
					"epoch":         s.Epoch,
					"compute_ns":    int64(s.Compute),
					"stall_ns":      int64(s.Stall),
					"overhead_ns":   int64(s.Overhead),
					"page_stall_ns": int64(s.PageStall),
					"diff_stall_ns": int64(s.DiffStall),
					"lock_stall_ns": int64(s.LockStall),
					"scale":         scale,
				},
			})
			// Marks queued on this thread land inside the span, evenly
			// spaced (their intra-slice times are not modelled).
			if ms := a.marks[s.TID]; len(ms) > 0 {
				step := span / float64(len(ms)+1)
				for i, m := range ms {
					emitMark(m, (cursor+step*float64(i+1))/1e3)
				}
				delete(a.marks, s.TID)
			}
			cursor += span
		}
		endFold := float64(ep.Time + ep.Dur)
		// Leftover marks (server-side fetches, lock traffic with no
		// following slice this epoch) pin to the fold boundary.
		var rest []int32
		for tid := range a.marks {
			rest = append(rest, tid)
		}
		sort.Slice(rest, func(i, j int) bool { return rest[i] < rest[j] })
		for _, tid := range rest {
			for _, m := range a.marks[tid] {
				emitMark(m, endFold/1e3)
			}
		}
		// Protocol spans: barrier, prefetch, rendezvous wait.
		ts := endFold
		if ep.Barrier > 0 {
			out = append(out, traceEvent{
				Name: "barrier", Ph: "X", PID: int64(node), TID: trackProtocol,
				TS: ts / 1e3, Dur: usec(ep.Barrier), Cat: "protocol",
				Args: map[string]any{"epoch": ep.Epoch},
			})
			ts += float64(ep.Barrier)
		}
		if ep.Prefetch > 0 {
			out = append(out, traceEvent{
				Name: "prefetch", Ph: "X", PID: int64(node), TID: trackProtocol,
				TS: ts / 1e3, Dur: usec(ep.Prefetch), Cat: "protocol",
				Args: map[string]any{"epoch": ep.Epoch, "pages": prefetchPages[int64(node)]},
			})
			ts += float64(ep.Prefetch)
		}
		delete(prefetchPages, int64(node))
		if ep.Wait > 0 {
			out = append(out, traceEvent{
				Name: "wait", Ph: "X", PID: int64(node), TID: trackProtocol,
				TS: ts / 1e3, Dur: usec(ep.Wait), Cat: "protocol",
				Args: map[string]any{"epoch": ep.Epoch},
			})
		}
	}

	for _, e := range events {
		switch e.Kind {
		case EvRunSlice:
			acc[e.Node].slices = append(acc[e.Node].slices, e)
		case EvNodeEpoch:
			layoutEpoch(e)
		case EvRemoteFetch, EvLockAcquire, EvLockRelease:
			a := acc[e.Node]
			key := e.TID
			if key < 0 {
				key = -1
			}
			a.marks[key] = append(a.marks[key], e)
		case EvPrefetchRound:
			prefetchPages[int64(e.Node)] = e.Bytes
		case EvMigrate:
			nameThread(int64(e.Node), e.TID)
			nameThread(int64(e.Arg), e.TID)
			out = append(out, traceEvent{
				Name: "migrate", Ph: "X", PID: int64(e.Node), TID: int64(e.TID) + trackThreadBase,
				TS: usec(e.Time), Dur: usec(e.Dur), Cat: "migrate",
				Args: map[string]any{"tid": e.TID, "from": e.Node, "to": e.Arg},
			})
			out = append(out, traceEvent{
				Name: "migrate in", Ph: "i", S: "t", PID: int64(e.Arg), TID: int64(e.TID) + trackThreadBase,
				TS: usec(e.Time + e.Dur), Cat: "migrate",
				Args: map[string]any{"tid": e.TID, "from": e.Node},
			})
		case EvTransportCall:
			start := e.WallTS - e.Wall
			if start < 0 {
				start = 0
			}
			out = append(out, traceEvent{
				Name: msg.Kind(e.Detail).String(), Ph: "X", PID: transportPID, TID: int64(e.Node),
				TS: float64(start.Nanoseconds()) / 1e3, Dur: float64(e.Wall.Nanoseconds()) / 1e3,
				Cat: "transport",
				Args: map[string]any{
					"to": e.Arg, "bytes": e.Bytes, "failed": e.Failed, "epoch": e.Epoch,
				},
			})
		}
	}
	// Any slices/marks still buffered belong to an epoch that never closed
	// (run ended mid-epoch without a residual fold); drop them — the
	// engine emits a final EpochEnd on clean completion.

	enc := json.NewEncoder(w)
	return enc.Encode(struct {
		TraceEvents     []traceEvent `json:"traceEvents"`
		DisplayTimeUnit string       `json:"displayTimeUnit"`
	}{TraceEvents: out, DisplayTimeUnit: "ns"})
}
