package obs_test

// Acceptance tests for the observability layer (DESIGN.md §9):
//
//   - a deterministic SOR run with observability enabled emits
//     schema-valid Chrome trace-event JSON with a stable pid/tid mapping
//     and non-overlapping spans per track;
//   - the metrics dump covers 100% of dsm.Snapshot's fields, each
//     exactly once;
//   - the per-epoch breakdown's span totals tile the run's virtual wall
//     time within 1%;
//   - a disabled recorder adds zero allocations on the hot probe path.

import (
	"bytes"
	"encoding/json"
	"fmt"
	"reflect"
	"sort"
	"strings"
	"testing"
	"time"

	"actdsm"
	"actdsm/internal/dsm"
	"actdsm/internal/obs"
	"actdsm/internal/sim"
)

// observedRun executes one deterministic SOR workload with the recorder
// enabled and returns the finished system.
func observedRun(t *testing.T, opts ...actdsm.SystemOption) *actdsm.System {
	t.Helper()
	app, err := actdsm.NewApp("SOR", actdsm.AppConfig{Threads: 16, Scale: actdsm.ScaleTest})
	if err != nil {
		t.Fatalf("NewApp: %v", err)
	}
	opts = append([]actdsm.SystemOption{actdsm.WithObservability()}, opts...)
	sys, err := actdsm.NewSystem(app, 4, opts...)
	if err != nil {
		t.Fatalf("NewSystem: %v", err)
	}
	t.Cleanup(func() { _ = sys.Close() })
	if err := sys.Run(); err != nil {
		t.Fatalf("Run: %v", err)
	}
	return sys
}

// traceFile mirrors the exporter's JSON schema for validation.
type traceFile struct {
	TraceEvents []struct {
		Name string         `json:"name"`
		Ph   string         `json:"ph"`
		PID  int64          `json:"pid"`
		TID  int64          `json:"tid"`
		TS   float64        `json:"ts"`
		Dur  float64        `json:"dur"`
		Cat  string         `json:"cat"`
		Args map[string]any `json:"args"`
	} `json:"traceEvents"`
	DisplayTimeUnit string `json:"displayTimeUnit"`
}

func TestTraceJSONStructure(t *testing.T) {
	sys := observedRun(t, actdsm.WithClusterConfig(actdsm.ClusterConfig{BatchDiffs: true, PrefetchBudget: -1}))
	var buf bytes.Buffer
	if err := sys.Recorder().WriteTrace(&buf); err != nil {
		t.Fatalf("WriteTrace: %v", err)
	}
	var tf traceFile
	if err := json.Unmarshal(buf.Bytes(), &tf); err != nil {
		t.Fatalf("trace output is not valid JSON: %v", err)
	}
	if len(tf.TraceEvents) == 0 {
		t.Fatal("trace has no events")
	}

	const nodes = 4
	transportPID := int64(nodes)

	// Stable pid mapping: every node pid has a process_name metadata
	// record naming it "node N", and the transport process is labelled.
	names := map[int64]string{}
	for _, e := range tf.TraceEvents {
		if e.Ph == "M" && e.Name == "process_name" {
			names[e.PID], _ = e.Args["name"].(string)
		}
	}
	for n := int64(0); n < nodes; n++ {
		if want := fmt.Sprintf("node %d", n); names[n] != want {
			t.Errorf("pid %d named %q, want %q", n, names[n], want)
		}
	}
	if !strings.HasPrefix(names[transportPID], "transport") {
		t.Errorf("transport pid %d named %q", transportPID, names[transportPID])
	}

	// Every non-metadata event lands on a known process, with valid
	// phase, non-negative timestamps, and slices on thread tracks.
	phases := map[string]bool{"X": true, "i": true, "M": true}
	perTrack := map[[2]int64][][2]float64{} // (pid,tid) → [start,end)
	for _, e := range tf.TraceEvents {
		if !phases[e.Ph] {
			t.Fatalf("unexpected phase %q in event %q", e.Ph, e.Name)
		}
		if e.Ph == "M" {
			continue
		}
		if e.PID < 0 || e.PID > transportPID {
			t.Fatalf("event %q on unknown pid %d", e.Name, e.PID)
		}
		if e.TS < 0 || e.Dur < 0 {
			t.Fatalf("event %q has negative ts/dur (%v/%v)", e.Name, e.TS, e.Dur)
		}
		if e.Cat == "slice" && e.TID < 1 {
			t.Fatalf("run slice on non-thread track tid=%d", e.TID)
		}
		if e.Ph == "X" && e.PID != transportPID {
			k := [2]int64{e.PID, e.TID}
			perTrack[k] = append(perTrack[k], [2]float64{e.TS, e.TS + e.Dur})
		}
	}

	// Balanced nesting: complete events on one virtual-time track must
	// tile without partial overlap (the exporter lays slices and protocol
	// spans back to back). Allow sub-nanosecond float slack.
	const eps = 1e-3 // µs
	for k, spans := range perTrack {
		sort.Slice(spans, func(i, j int) bool { return spans[i][0] < spans[j][0] })
		for i := 1; i < len(spans); i++ {
			if spans[i][0] < spans[i-1][1]-eps {
				t.Fatalf("track pid=%d tid=%d: span %v overlaps previous %v",
					k[0], k[1], spans[i], spans[i-1])
			}
		}
	}

	// The deterministic SOR run with prefetch enabled produces at least
	// one event of each core kind.
	cats := map[string]int{}
	for _, e := range tf.TraceEvents {
		cats[e.Cat]++
	}
	for _, want := range []string{"slice", "protocol", "fetch", "transport"} {
		if cats[want] == 0 {
			t.Errorf("trace has no %q events (got %v)", want, cats)
		}
	}
}

func TestTraceDeterministicMapping(t *testing.T) {
	// Two identical runs produce identical virtual-time layouts: same
	// pid/tid set and identical slice/protocol span geometry (transport
	// events are wall-clock and excluded).
	render := func() string {
		sys := observedRun(t)
		var buf bytes.Buffer
		if err := sys.Recorder().WriteTrace(&buf); err != nil {
			t.Fatalf("WriteTrace: %v", err)
		}
		var tf traceFile
		if err := json.Unmarshal(buf.Bytes(), &tf); err != nil {
			t.Fatalf("parse: %v", err)
		}
		var lines []string
		for _, e := range tf.TraceEvents {
			if e.Cat == "transport" || e.Ph == "M" {
				continue
			}
			lines = append(lines, fmt.Sprintf("%s|%s|%d|%d|%.3f|%.3f", e.Name, e.Ph, e.PID, e.TID, e.TS, e.Dur))
		}
		sort.Strings(lines)
		return strings.Join(lines, "\n")
	}
	if a, b := render(), render(); a != b {
		t.Error("virtual-time trace layout differs between identical runs")
	}
}

func TestBreakdownSumsToWall(t *testing.T) {
	sys := observedRun(t, actdsm.WithClusterConfig(actdsm.ClusterConfig{BatchDiffs: true, PrefetchBudget: -1}))
	b := sys.Recorder().Breakdown()
	if len(b.Epochs) == 0 {
		t.Fatal("no epochs in breakdown")
	}
	wall := sys.Elapsed()
	if b.Wall != wall {
		t.Errorf("breakdown wall %d != engine elapsed %d", b.Wall, wall)
	}
	// Per-node identity: the four spans tile [Start, End] exactly.
	var perNode [4]sim.Time
	for _, ep := range b.Epochs {
		for _, nb := range ep.Nodes {
			total := nb.Folded + nb.Barrier + nb.Prefetch + nb.Wait
			if nb.Start+total != nb.End() {
				t.Fatalf("epoch %d node %d: spans %d do not tile [%d,%d]",
					ep.Epoch, nb.Node, total, nb.Start, nb.End())
			}
			perNode[nb.Node] += total
		}
		perNode[0] += ep.MigrationCost // charged between episodes
	}
	// Whole-run criterion: per-epoch span totals sum to the wall time
	// within 1% (exact when no migrations interleave).
	for n, sum := range perNode {
		diff := float64(wall-sum) / float64(wall)
		if diff < 0 {
			diff = -diff
		}
		if diff > 0.01 {
			t.Errorf("node %d: span total %d vs wall %d (%.2f%% off)", n, sum, wall, 100*diff)
		}
	}
}

func TestMetricsCoverSnapshot(t *testing.T) {
	sys := observedRun(t, actdsm.WithClusterConfig(actdsm.ClusterConfig{BatchDiffs: true, PrefetchBudget: -1}))
	snap := sys.Cluster().Stats().Snapshot()
	var buf bytes.Buffer
	if err := sys.Recorder().WriteMetrics(snap, &buf); err != nil {
		t.Fatalf("WriteMetrics: %v", err)
	}
	text := buf.String()
	if strings.Contains(text, "# UNHANDLED") {
		t.Fatalf("metrics dump contains unhandled snapshot fields:\n%s", text)
	}

	countHelp := func(metric string) int {
		return strings.Count(text, "# HELP "+metric+" ")
	}
	for _, f := range reflect.VisibleFields(reflect.TypeOf(snap)) {
		switch {
		case f.Anonymous: // the counter block; its promoted fields follow
		case f.Type.Kind() == reflect.Int64:
			name := obs.MetricName(f.Name)
			if got := countHelp(name); got != 1 {
				t.Errorf("field %s: metric %s appears %d times, want exactly 1", f.Name, name, got)
			}
			// The sample line must be present with the field's value.
			want := fmt.Sprintf("\n%s %d\n", name, reflect.ValueOf(snap).FieldByIndex(f.Index).Int())
			if !strings.Contains(text, want) {
				t.Errorf("field %s: sample line %q missing", f.Name, strings.TrimSpace(want))
			}
		case f.Type.Kind() == reflect.Array:
			name := obs.HistName(f.Name)
			if got := countHelp(name); got != 1 {
				t.Errorf("field %s: histogram %s appears %d times, want exactly 1", f.Name, name, got)
			}
			if !strings.Contains(text, name+"_bucket{le=\"+Inf\"}") {
				t.Errorf("field %s: histogram %s lacks +Inf bucket", f.Name, name)
			}
		case f.Name == "Calls":
			for _, m := range []string{
				"actdsm_call_count_total", "actdsm_call_errors_total",
				"actdsm_call_retries_total", "actdsm_call_bytes_total",
				"actdsm_call_latency_seconds",
			} {
				if got := countHelp(m); got != 1 {
					t.Errorf("call metric %s appears %d times, want exactly 1", m, got)
				}
			}
			if len(snap.Calls) == 0 {
				t.Error("run produced no transport calls to cover")
			}
			for _, c := range snap.Calls {
				if !strings.Contains(text, fmt.Sprintf("actdsm_call_count_total{kind=%q} %d", c.Kind, c.Count)) {
					t.Errorf("call kind %s missing from dump", c.Kind)
				}
			}
		case f.Name == "Links":
			for _, m := range []string{
				"actdsm_link_calls_total", "actdsm_link_bytes_total",
				"actdsm_link_latency_seconds_total",
			} {
				if got := countHelp(m); got != 1 {
					t.Errorf("link metric %s appears %d times, want exactly 1", m, got)
				}
			}
			if len(snap.Links) == 0 {
				t.Error("run produced no per-link traffic to cover")
			}
			for _, l := range snap.Links {
				if !strings.Contains(text, fmt.Sprintf("actdsm_link_calls_total{from=\"%d\",to=\"%d\"} %d", l.From, l.To, l.Calls)) {
					t.Errorf("link %d->%d missing from dump", l.From, l.To)
				}
			}
		default:
			t.Errorf("snapshot field %s has unrecognized shape %s: teach the dump and this test", f.Name, f.Type.Kind())
		}
	}
	// Recorder meta-counters ride along.
	if countHelp("actdsm_obs_events_total") != 1 {
		t.Error("recorder meta-counter actdsm_obs_events_total missing")
	}
}

// TestMetricsFailoverCounters pins the exposition names of the fault-
// tolerance counters (DESIGN.md §12). The reflection walk above already
// proves they are emitted; this test freezes the exact names and sample
// values a failover dashboard would scrape, so a Stats rename cannot
// silently move them.
func TestMetricsFailoverCounters(t *testing.T) {
	var snap dsm.Snapshot
	snap.Crashes = 1
	snap.Rejoins = 2
	snap.ReplicaDeltas = 3
	snap.ReplicaBytes = 4
	snap.Failovers = 5
	snap.RecoveryFetches = 6
	snap.RecoveryRounds = 7
	var buf bytes.Buffer
	if err := obs.MetricsText(snap, &buf); err != nil {
		t.Fatalf("MetricsText: %v", err)
	}
	text := buf.String()
	for _, want := range []string{
		"actdsm_crashes_total 1",
		"actdsm_rejoins_total 2",
		"actdsm_replica_deltas_total 3",
		"actdsm_replica_bytes_total 4",
		"actdsm_failovers_total 5",
		"actdsm_recovery_fetches_total 6",
		"actdsm_recovery_rounds_total 7",
	} {
		if !strings.Contains(text, "\n"+want+"\n") {
			t.Errorf("failover metric sample %q missing from dump", want)
		}
	}
}

func TestRecorderRingWrap(t *testing.T) {
	r := obs.NewRecorder(obs.Config{Enabled: true, BufferEvents: 8})
	for i := 0; i < 20; i++ {
		r.LockStall(0, 0, 1, 1) // attribution only, no ring write
		r.SliceEnd(0, 0, i, sim.ThreadInterval{Compute: sim.Time(i + 1)})
	}
	evs := r.Events()
	if len(evs) != 8 {
		t.Fatalf("ring holds %d events, want 8", len(evs))
	}
	if r.Dropped() != 12 {
		t.Fatalf("Dropped = %d, want 12", r.Dropped())
	}
	for i, e := range evs {
		if want := sim.Time(12 + i + 1); e.Compute != want {
			t.Fatalf("event %d out of order: compute %d, want %d", i, e.Compute, want)
		}
	}
	// A wrapped ring still exports its tail, but as an error.
	var buf bytes.Buffer
	err := r.WriteTrace(&buf)
	if err == nil || !strings.Contains(err.Error(), "dropped the oldest 12 events, recorded 8") {
		t.Fatalf("WriteTrace on a wrapped ring: err = %v, want the dropped/recorded counts", err)
	}
	if !json.Valid(buf.Bytes()) {
		t.Fatalf("truncated trace is not valid JSON: %q", buf.String())
	}
}

func TestObsDisabledZeroAllocs(t *testing.T) {
	r := obs.NewRecorder(obs.Config{})
	if r.Enabled() {
		t.Fatal("zero config must be disabled")
	}
	if r.Probe() != nil {
		t.Fatal("disabled recorder must return a nil probe (cluster fast path)")
	}
	ti := sim.ThreadInterval{Compute: 1, Stall: 2, Overhead: 3}
	allocs := testing.AllocsPerRun(1000, func() {
		r.SliceEnd(0, 1, 2, ti)
		r.LockStall(0, 1, 3, 4)
		r.EpochEnd(0, 2, 10, 20, 30, 40, 50)
		r.Migrated(1, 0, 1, 5, 6)
	})
	if allocs != 0 {
		t.Errorf("disabled recorder allocates %.1f per op, want 0", allocs)
	}
}

// BenchmarkObsOverhead measures the disabled-path cost of the
// engine-side hooks: it must stay allocation-free.
func BenchmarkObsOverhead(b *testing.B) {
	r := obs.NewRecorder(obs.Config{})
	ti := sim.ThreadInterval{Compute: 100, Stall: 50, Overhead: 10}
	b.ReportAllocs()
	for i := 0; i < b.N; i++ {
		r.SliceEnd(0, 1, 2, ti)
		r.LockStall(0, 1, 3, 4)
		r.EpochEnd(0, 2, 10, 20, 30, 40, 50)
	}
}

// BenchmarkObsEnabled measures the enabled-path cost per event.
func BenchmarkObsEnabled(b *testing.B) {
	r := obs.NewRecorder(obs.Config{Enabled: true, BufferEvents: 1 << 12})
	ti := sim.ThreadInterval{Compute: 100, Stall: 50, Overhead: 10}
	b.ReportAllocs()
	for i := 0; i < b.N; i++ {
		r.SliceEnd(0, 1, 2, ti)
	}
}

// TestProbeTypesRoundTrip pins the event classification enums the
// exporters depend on.
func TestProbeTypesRoundTrip(t *testing.T) {
	for k := obs.EvRunSlice; k <= obs.EvTransportCall; k++ {
		if k.String() == "unknown" {
			t.Errorf("event kind %d has no name", k)
		}
	}
	for _, k := range []dsm.FetchKind{dsm.FetchPage, dsm.FetchDiff, dsm.FetchDiffBatch} {
		if k.String() == "unknown" {
			t.Errorf("fetch kind %d has no name", k)
		}
	}
}

// TestTransportCallWallClock sanity-checks that transport spans carry
// real wall-clock durations.
func TestTransportCallWallClock(t *testing.T) {
	sys := observedRun(t)
	var calls int
	for _, e := range sys.Recorder().Events() {
		if e.Kind == obs.EvTransportCall {
			calls++
			if e.Wall < 0 || e.Wall > time.Minute {
				t.Fatalf("implausible wall latency %v", e.Wall)
			}
		}
	}
	if calls == 0 {
		t.Error("no transport-call events recorded")
	}
}
