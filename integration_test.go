package actdsm_test

import (
	"testing"

	"actdsm"
	"actdsm/internal/vm"
)

// TestFullStackSoak drives every major mechanism in one run: an
// application with numerical verification, aggressive diff garbage
// collection, active correlation tracking mid-run, and a min-cost
// migration applied while the application keeps running — the paper's
// complete track → place → migrate loop under GC pressure.
func TestFullStackSoak(t *testing.T) {
	app, err := actdsm.NewApp("Ocean", actdsm.AppConfig{
		Threads: 16, Iterations: 10, Verify: true,
	})
	if err != nil {
		t.Fatal(err)
	}
	// Start from the worst case: random placement; tiny GC threshold so
	// collection rounds interleave with everything else.
	bad := actdsm.RandomBalanced(16, 4, actdsm.NewRNG(11))
	sys, err := actdsm.NewSystem(app, 4,
		actdsm.WithConfig(actdsm.SystemConfig{
			Placement:   bad,
			ShuffleSeed: 5,
			Cluster:     actdsm.ClusterConfig{GCThresholdBytes: 4096},
		}),
	)
	if err != nil {
		t.Fatal(err)
	}
	defer func() { _ = sys.Close() }()

	tracker, err := sys.TrackIteration(1)
	if err != nil {
		t.Fatal(err)
	}
	eng := sys.Engine()
	migrated := false
	var missesBefore, missesAfter int64
	lastStats := sys.Cluster().Stats().Snapshot()
	err = sys.SetHooks(actdsm.Hooks{OnIteration: func(iter int) {
		cur := sys.Cluster().Stats().Snapshot()
		delta := cur.Sub(lastStats).RemoteMisses
		lastStats = cur
		switch {
		case iter == 0 || iter == 1:
			// warmup / tracked
		case !migrated && tracker.Done():
			missesBefore = delta
			m := tracker.Matrix()
			target := actdsm.MinCost(m, 4)
			aligned := actdsm.AlignLabels(target, eng.Placement(), 4)
			if _, err := eng.ApplyPlacement(aligned); err != nil {
				t.Errorf("migration: %v", err)
			}
			migrated = true
		case iter == 9:
			missesAfter = delta
		}
	}})
	if err := sys.Run(); err != nil {
		t.Fatal(err)
	}
	if !migrated {
		t.Fatal("migration never happened")
	}
	st := sys.Cluster().Stats().Snapshot()
	if st.GCRounds == 0 {
		t.Fatal("GC never triggered despite tiny threshold")
	}
	if tracker.TrackingFaults() == 0 {
		t.Fatal("no tracking faults")
	}
	// The coherence invariant must hold at the end.
	if err := sys.Cluster().CheckCoherence(); err != nil {
		t.Fatal(err)
	}
	// Min-cost placement must not be worse than the random start in
	// steady state (Ocean's nearest-neighbour structure makes it
	// strictly better in practice).
	if missesAfter > missesBefore {
		t.Fatalf("misses after migration %d > before %d", missesAfter, missesBefore)
	}
}

// TestFullStackSoakTCP repeats a shorter soak over real sockets.
func TestFullStackSoakTCP(t *testing.T) {
	app, err := actdsm.NewApp("Spatial", actdsm.AppConfig{
		Threads: 8, Iterations: 4, Verify: true,
	})
	if err != nil {
		t.Fatal(err)
	}
	sys, err := actdsm.NewSystem(app, 3,
		actdsm.WithConfig(actdsm.SystemConfig{Cluster: actdsm.ClusterConfig{UseTCP: true, GCThresholdBytes: 8192}}))
	if err != nil {
		t.Fatal(err)
	}
	defer func() { _ = sys.Close() }()
	tracker, err := sys.TrackIteration(1)
	if err != nil {
		t.Fatal(err)
	}
	if err := sys.Run(); err != nil {
		t.Fatal(err)
	}
	if !tracker.Done() {
		t.Fatal("tracking incomplete over TCP")
	}
	if err := sys.Cluster().CheckCoherence(); err != nil {
		t.Fatal(err)
	}
}

// TestSystemPlacementController wires the online controller through the
// facade: SystemConfig.Controller alone (no explicit TrackIteration)
// must arm a tracker, trigger evaluations, and surface the decision
// counters in the stats snapshot. The workload pairs thread t with
// t XOR 4, so the default stretch placement splits every pair across
// nodes — obvious headroom the default hysteresis must clear.
func TestSystemPlacementController(t *testing.T) {
	const nthreads, iters = 8, 8
	var region actdsm.Region
	app, err := actdsm.NewCustomApp("pairs", nthreads, iters,
		func(l *actdsm.Layout) error {
			var err error
			region, err = l.Alloc("pairs.data", nthreads*actdsm.PageSize)
			return err
		},
		func(tid int) actdsm.Body {
			return func(ctx *actdsm.Ctx) error {
				for i := 0; i < iters; i++ {
					b, err := ctx.SpanRegion(region, tid*actdsm.PageSize, 8, vm.Write)
					if err != nil {
						return err
					}
					b[0]++
					partner := (tid ^ 4) * actdsm.PageSize
					if _, err := ctx.SpanRegion(region, partner, 8, vm.Read); err != nil {
						return err
					}
					ctx.EndIteration()
				}
				return nil
			}
		})
	if err != nil {
		t.Fatal(err)
	}
	ctrlCfg := actdsm.DefaultControllerConfig()
	ctrlCfg.Period = 1
	sys, err := actdsm.NewSystem(app, 4, actdsm.WithConfig(actdsm.SystemConfig{Controller: &ctrlCfg}))
	if err != nil {
		t.Fatal(err)
	}
	defer func() { _ = sys.Close() }()
	if err := sys.Run(); err != nil {
		t.Fatal(err)
	}
	if ctrl := sys.PlacementController(); ctrl == nil {
		t.Fatal("controller not constructed")
	} else if err := ctrl.Err(); err != nil {
		t.Fatal(err)
	}
	snap := sys.Cluster().Stats().Snapshot()
	if snap.PlacementTriggers == 0 {
		t.Fatal("controller never triggered")
	}
	if snap.PlacementApplied+snap.PlacementSkipped != snap.PlacementTriggers {
		t.Fatalf("decisions don't add up: %d applied + %d skipped != %d triggers",
			snap.PlacementApplied, snap.PlacementSkipped, snap.PlacementTriggers)
	}
	if snap.PlacementApplied == 0 {
		t.Fatal("split pairs should clear default hysteresis at least once")
	}
}
