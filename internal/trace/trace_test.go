package trace

import (
	"errors"
	"testing"
	"testing/quick"

	"actdsm/internal/apps"
	"actdsm/internal/core"
	"actdsm/internal/dsm"
	"actdsm/internal/memlayout"
	"actdsm/internal/threads"
	"actdsm/internal/vm"
)

func TestEncodeDecodeRoundTrip(t *testing.T) {
	check := func(evs []struct {
		Iter uint8
		TID  uint8
		Page uint8
		W    bool
	}) bool {
		tr := &Trace{Threads: 256, Pages: 256, Iterations: 256}
		for _, e := range evs {
			tr.Events = append(tr.Events, Event{
				Iter: int32(e.Iter), TID: int32(e.TID),
				Page: vm.PageID(e.Page), Write: e.W,
			})
		}
		got, err := Decode(tr.Encode())
		if err != nil {
			return false
		}
		if got.Threads != tr.Threads || got.Pages != tr.Pages ||
			got.Iterations != tr.Iterations || len(got.Events) != len(tr.Events) {
			return false
		}
		for i := range tr.Events {
			if got.Events[i] != tr.Events[i] {
				return false
			}
		}
		return true
	}
	if err := quick.Check(check, &quick.Config{MaxCount: 50}); err != nil {
		t.Fatal(err)
	}
}

func TestDecodeErrors(t *testing.T) {
	if _, err := Decode(nil); !errors.Is(err, ErrMalformed) {
		t.Fatalf("err = %v", err)
	}
	if _, err := Decode(make([]byte, 20)); !errors.Is(err, ErrMalformed) {
		t.Fatalf("bad magic: %v", err)
	}
	tr := &Trace{Threads: 1, Pages: 1, Iterations: 1,
		Events: []Event{{Iter: 0, TID: 0, Page: 0}}}
	b := tr.Encode()
	if _, err := Decode(b[:len(b)-1]); !errors.Is(err, ErrMalformed) {
		t.Fatalf("truncated: %v", err)
	}
	// Out-of-range event.
	bad := &Trace{Threads: 1, Pages: 1, Iterations: 1,
		Events: []Event{{Iter: 0, TID: 5, Page: 0}}}
	if _, err := Decode(bad.Encode()); err == nil {
		t.Fatal("expected validation error")
	}
}

func TestMatrixFromTrace(t *testing.T) {
	tr := &Trace{Threads: 3, Pages: 4, Iterations: 2}
	add := func(iter, tid, page int) {
		tr.Events = append(tr.Events, Event{Iter: int32(iter), TID: int32(tid), Page: vm.PageID(page)})
	}
	add(0, 0, 0)
	add(0, 0, 1)
	add(0, 1, 1)
	add(0, 1, 2)
	add(1, 2, 0) // only iteration 1
	m := tr.Matrix(0)
	if m.At(0, 1) != 1 {
		t.Fatalf("corr(0,1) = %d", m.At(0, 1))
	}
	if m.At(0, 2) != 0 {
		t.Fatalf("corr(0,2) = %d (iteration filter leaked)", m.At(0, 2))
	}
	all := tr.Matrix(-1)
	if all.At(0, 2) != 1 {
		t.Fatalf("all-iterations corr(0,2) = %d", all.At(0, 2))
	}
	d := tr.Densities(-1)
	if d[0][1] != 1 || d[1][1] != 1 || d[2][0] != 1 {
		t.Fatalf("densities = %v", d)
	}
}

// TestCaptureReplayEquivalence records a live Water run, then replays the
// trace on a fresh cluster and checks the replayed run's correlation
// matrix matches one computed offline from the trace.
func TestCaptureReplayEquivalence(t *testing.T) {
	app, err := apps.New("Water", apps.Config{Threads: 8})
	if err != nil {
		t.Fatal(err)
	}
	layout := memlayout.NewLayout()
	if err := app.Setup(layout); err != nil {
		t.Fatal(err)
	}
	cl, err := dsm.New(dsm.Config{Nodes: 4, Pages: layout.TotalPages()})
	if err != nil {
		t.Fatal(err)
	}
	defer func() { _ = cl.Close() }()
	e, err := threads.NewEngine(cl, threads.Config{Threads: 8})
	if err != nil {
		t.Fatal(err)
	}
	rec := NewRecorder(e)
	e.SetHooks(rec.Hooks(threads.Hooks{}))
	if err := e.Run(app.Body); err != nil {
		t.Fatal(err)
	}
	tr := rec.Trace()
	if err := tr.Validate(); err != nil {
		t.Fatal(err)
	}
	if len(tr.Events) == 0 || tr.Iterations != app.Iterations() {
		t.Fatalf("trace: %d events, %d iterations", len(tr.Events), tr.Iterations)
	}

	// Offline matrix from the captured stream.
	offline := tr.Matrix(1)

	// Replay on a fresh cluster with active tracking of iteration 1:
	// the tracked matrix must equal the offline one (same access sets).
	cl2, err := dsm.New(dsm.Config{Nodes: 4, Pages: tr.Pages})
	if err != nil {
		t.Fatal(err)
	}
	defer func() { _ = cl2.Close() }()
	e2, err := threads.NewEngine(cl2, threads.Config{Threads: tr.Threads})
	if err != nil {
		t.Fatal(err)
	}
	rec2 := NewRecorder(e2)
	e2.SetHooks(rec2.Hooks(threads.Hooks{}))
	if err := e2.Run(tr.ReplayBody()); err != nil {
		t.Fatal(err)
	}
	replayed := rec2.Trace().Matrix(1)
	if replayed.N() != offline.N() {
		t.Fatalf("matrix sizes differ")
	}
	for i := 0; i < offline.N(); i++ {
		for j := 0; j < offline.N(); j++ {
			if offline.At(i, j) != replayed.At(i, j) {
				t.Fatalf("corr(%d,%d): offline %d, replayed %d",
					i, j, offline.At(i, j), replayed.At(i, j))
			}
		}
	}
}

func TestReplayOnDifferentClusterShape(t *testing.T) {
	// A captured trace can be replayed on a different node count — the
	// point of trace-driven experimentation.
	tr := &Trace{Threads: 4, Pages: 2, Iterations: 2}
	for iter := 0; iter < 2; iter++ {
		for tid := 0; tid < 4; tid++ {
			tr.Events = append(tr.Events, Event{
				Iter: int32(iter), TID: int32(tid),
				Page: vm.PageID(tid % 2), Write: tid%2 == 0,
			})
		}
	}
	for _, nodes := range []int{1, 2, 4} {
		cl, err := dsm.New(dsm.Config{Nodes: nodes, Pages: tr.Pages})
		if err != nil {
			t.Fatal(err)
		}
		e, err := threads.NewEngine(cl, threads.Config{Threads: tr.Threads})
		if err != nil {
			t.Fatal(err)
		}
		if err := e.Run(tr.ReplayBody()); err != nil {
			t.Fatalf("nodes=%d: %v", nodes, err)
		}
		if e.Iteration() != tr.Iterations {
			t.Fatalf("nodes=%d: %d iterations", nodes, e.Iteration())
		}
		_ = cl.Close()
	}
}

// TestRecorderAndDensityCoexist checks composable access hooks: a trace
// recorder and a density tracker observe the same run simultaneously.
func TestRecorderAndDensityCoexist(t *testing.T) {
	cl, err := dsm.New(dsm.Config{Nodes: 2, Pages: 2})
	if err != nil {
		t.Fatal(err)
	}
	defer func() { _ = cl.Close() }()
	e, err := threads.NewEngine(cl, threads.Config{Threads: 2})
	if err != nil {
		t.Fatal(err)
	}
	rec := NewRecorder(e)
	den := core.NewDensityTracker(e, 0)
	e.SetHooks(rec.Hooks(den.Hooks(threads.Hooks{})))
	den.Start()
	err = e.Run(func(tid int) threads.Body {
		return func(ctx *threads.Ctx) error {
			for k := 0; k < 3; k++ {
				if _, err := ctx.Span(tid*memlayout.PageSize, 4, vm.Read); err != nil {
					return err
				}
			}
			ctx.EndIteration()
			return nil
		}
	})
	if err != nil {
		t.Fatal(err)
	}
	if got := len(rec.Trace().Events); got != 6 {
		t.Fatalf("recorder saw %d events, want 6", got)
	}
	if got := den.Counts()[0][0]; got != 3 {
		t.Fatalf("density counts = %d, want 3", got)
	}
}
