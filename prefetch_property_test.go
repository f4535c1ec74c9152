package actdsm_test

import (
	"errors"
	"testing"

	"actdsm"
)

// TestSystemLifecycleErrors pins the two-phase System lifecycle: all
// configuration entry points (SetHooks, TrackIteration) and Run itself
// report ErrAlreadyRan once Run has been invoked, instead of silently
// accepting configuration that can never take effect.
func TestSystemLifecycleErrors(t *testing.T) {
	app, err := actdsm.NewApp("SOR", actdsm.AppConfig{Threads: 8})
	if err != nil {
		t.Fatal(err)
	}
	sys, err := actdsm.NewSystem(app, 2)
	if err != nil {
		t.Fatal(err)
	}
	defer func() { _ = sys.Close() }()
	if err := sys.SetHooks(actdsm.Hooks{}); err != nil {
		t.Fatalf("SetHooks before Run: %v", err)
	}
	if _, err := sys.TrackIteration(1); err != nil {
		t.Fatalf("TrackIteration before Run: %v", err)
	}
	if err := sys.Run(); err != nil {
		t.Fatal(err)
	}
	if err := sys.SetHooks(actdsm.Hooks{}); !errors.Is(err, actdsm.ErrAlreadyRan) {
		t.Fatalf("SetHooks after Run: %v, want ErrAlreadyRan", err)
	}
	if _, err := sys.TrackIteration(2); !errors.Is(err, actdsm.ErrAlreadyRan) {
		t.Fatalf("TrackIteration after Run: %v, want ErrAlreadyRan", err)
	}
	if err := sys.Run(); !errors.Is(err, actdsm.ErrAlreadyRan) {
		t.Fatalf("second Run: %v, want ErrAlreadyRan", err)
	}
}

// runVerified executes app on 8 nodes with Verify enabled and tracking
// armed for iteration 1, with or without the prefetch + batching layer,
// and returns the run's statistics. A Verify failure surfaces as a Run
// error, so a passing return means the numerical output was correct.
func runVerified(t *testing.T, name string, prefetch bool) actdsm.Snapshot {
	t.Helper()
	const threads, nodes = 16, 8
	app, err := actdsm.NewApp(name, actdsm.AppConfig{Threads: threads, Verify: true})
	if err != nil {
		t.Fatal(err)
	}
	opts := []actdsm.SystemOption{}
	if prefetch {
		opts = append(opts,
			actdsm.WithConfig(actdsm.SystemConfig{Cluster: actdsm.ClusterConfig{PrefetchBudget: -1, BatchDiffs: true}}))
	}
	sys, err := actdsm.NewSystem(app, nodes, opts...)
	if err != nil {
		t.Fatal(err)
	}
	defer func() { _ = sys.Close() }()
	// Track in both configurations so their protocol work is identical;
	// the prefetch run's predictor switches from the fault-window
	// fallback to the tracker's bitmaps once iteration 1 completes.
	if _, err := sys.TrackIteration(1); err != nil {
		t.Fatal(err)
	}
	if err := sys.Run(); err != nil {
		t.Fatalf("%s (prefetch=%v): %v", name, prefetch, err)
	}
	return sys.Cluster().Stats().Snapshot()
}

// TestPrefetchPreservesOutputAndReducesCalls is the facade-level
// acceptance property: on the paper's workloads, turning on prefetch +
// batched diff fetches must not change what the application computes
// (Verify passes in both runs) or how it synchronizes (identical barrier
// and lock counters), while cutting remote data-movement round trips
// (PageRequest + DiffRequest + DiffBatchRequest) by at least 20%.
func TestPrefetchPreservesOutputAndReducesCalls(t *testing.T) {
	for _, name := range []string{"SOR", "Ocean"} {
		t.Run(name, func(t *testing.T) {
			demand := runVerified(t, name, false)
			pref := runVerified(t, name, true)

			if demand.Barriers != pref.Barriers {
				t.Fatalf("Barriers diverge: %d demand, %d prefetch", demand.Barriers, pref.Barriers)
			}
			if demand.LockAcquires != pref.LockAcquires {
				t.Fatalf("LockAcquires diverge: %d demand, %d prefetch",
					demand.LockAcquires, pref.LockAcquires)
			}
			if pref.PrefetchedPages == 0 || pref.PrefetchHits == 0 {
				t.Fatalf("prefetch inactive: pages %d, hits %d",
					pref.PrefetchedPages, pref.PrefetchHits)
			}
			before, after := demand.DemandCalls(), pref.DemandCalls()
			if before == 0 {
				t.Fatal("demand run made no data-movement calls; test proves nothing")
			}
			reduction := 1 - float64(after)/float64(before)
			t.Logf("%s: demand calls %d -> %d (%.1f%% reduction), prefetch hits %d, wasted %d, late %d",
				name, before, after, 100*reduction, pref.PrefetchHits, pref.PrefetchWasted, pref.PrefetchLate)
			if reduction < 0.20 {
				t.Fatalf("demand-call reduction %.1f%% < 20%% (before %d, after %d)",
					100*reduction, before, after)
			}
		})
	}
}
