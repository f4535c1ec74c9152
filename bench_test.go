package actdsm_test

// One benchmark per table and figure of the paper, plus the ablation,
// cut-cost, prefetch and trace-replay comparisons. By default the
// experiment benchmarks run at test scale; set ACT_FULL=1 to use the
// paper's Table 1 inputs (minutes instead of seconds). The substrate
// micro-benchmarks (diff create/apply, warm span, remote miss, barrier,
// min-cost solve) are rungs of the benchmark module's per-layer ladder
// (benchmark/ladder_test.go), where they are tracked.

import (
	"os"
	"testing"

	"actdsm"
)

func benchOptions(b *testing.B) actdsm.ExperimentOptions {
	b.Helper()
	o := actdsm.ExperimentOptions{Seed: 1999}
	if os.Getenv("ACT_FULL") != "" {
		o.Scale = actdsm.ScalePaper
	} else {
		o.Scale = actdsm.ScaleTest
	}
	return o
}

// BenchmarkTable1 regenerates application characteristics (paper Table 1).
func BenchmarkTable1(b *testing.B) {
	o := benchOptions(b)
	for i := 0; i < b.N; i++ {
		if _, err := actdsm.Table1(o); err != nil {
			b.Fatal(err)
		}
	}
}

// BenchmarkTable2 regenerates the cut-cost/remote-miss regression (paper
// Table 2 and Figure 1). The y-axis of Figure 1 is Table2Row.RemoteMisses
// against Table2Row.CutCosts.
func BenchmarkTable2(b *testing.B) {
	o := benchOptions(b)
	o.RandomConfigs = 20 // keep the default bench affordable
	if os.Getenv("ACT_FULL") != "" {
		o.RandomConfigs = 300
	}
	for i := 0; i < b.N; i++ {
		if _, err := actdsm.Table2(o); err != nil {
			b.Fatal(err)
		}
	}
}

// BenchmarkTable3 regenerates the 32/48/64-thread correlation maps (paper
// Table 3).
func BenchmarkTable3(b *testing.B) {
	o := benchOptions(b)
	for i := 0; i < b.N; i++ {
		if _, err := actdsm.Table3(o); err != nil {
			b.Fatal(err)
		}
	}
}

// BenchmarkTable4 regenerates the FFT-versus-input maps (paper Table 4).
func BenchmarkTable4(b *testing.B) {
	o := benchOptions(b)
	for i := 0; i < b.N; i++ {
		if _, err := actdsm.Table4(o); err != nil {
			b.Fatal(err)
		}
	}
}

// BenchmarkTable5 regenerates the tracking-overhead measurements (paper
// Table 5).
func BenchmarkTable5(b *testing.B) {
	o := benchOptions(b)
	for i := 0; i < b.N; i++ {
		if _, err := actdsm.Table5(o); err != nil {
			b.Fatal(err)
		}
	}
}

// BenchmarkTable6 regenerates the placement-performance comparison (paper
// Table 6).
func BenchmarkTable6(b *testing.B) {
	o := benchOptions(b)
	for i := 0; i < b.N; i++ {
		if _, err := actdsm.Table6(o); err != nil {
			b.Fatal(err)
		}
	}
}

// BenchmarkFigure2 regenerates the passive information-gathering curves
// (paper Figure 2).
func BenchmarkFigure2(b *testing.B) {
	o := benchOptions(b)
	// The full app set is covered by the test suite; benchmark the two
	// extremes the paper highlights (SOR gathers almost everything,
	// Water stays partial for many rounds).
	o.Apps = []string{"SOR", "Water"}
	for i := 0; i < b.N; i++ {
		if _, err := actdsm.Figure2(o); err != nil {
			b.Fatal(err)
		}
	}
}

// BenchmarkFigure3 regenerates the free-zone analysis (paper Figure 3).
func BenchmarkFigure3(b *testing.B) {
	o := benchOptions(b)
	for i := 0; i < b.N; i++ {
		if _, err := actdsm.Figure3(o); err != nil {
			b.Fatal(err)
		}
	}
}

// BenchmarkAblationHeuristics regenerates the §5.1 heuristic-quality
// comparison.
func BenchmarkAblationHeuristics(b *testing.B) {
	o := benchOptions(b)
	o.Apps = []string{"SOR", "FFT6", "Water"}
	for i := 0; i < b.N; i++ {
		if _, err := actdsm.AblationHeuristics(o); err != nil {
			b.Fatal(err)
		}
	}
}

// BenchmarkAblationScaling regenerates the §4.2 tracking-cost-scaling
// measurement.
func BenchmarkAblationScaling(b *testing.B) {
	o := benchOptions(b)
	for i := 0; i < b.N; i++ {
		if _, err := actdsm.AblationScaling(o); err != nil {
			b.Fatal(err)
		}
	}
}

// BenchmarkCutCost measures cut-cost evaluation on a 64-thread matrix.
func BenchmarkCutCost(b *testing.B) {
	m := actdsm.NewMatrix(64)
	rng := actdsm.NewRNG(3)
	for i := 0; i < 64; i++ {
		for j := i + 1; j < 64; j++ {
			m.Set(i, j, int64(rng.Intn(100)))
		}
	}
	assign := actdsm.Stretch(64, 8)
	b.ReportAllocs()
	b.ResetTimer()
	for i := 0; i < b.N; i++ {
		_ = m.CutCost(assign)
	}
}

// BenchmarkTrackedIteration measures one fully tracked SOR run (the cost
// the paper's Table 5 amortizes).
func BenchmarkTrackedIteration(b *testing.B) {
	for i := 0; i < b.N; i++ {
		if _, err := actdsm.TrackMatrix("SOR", 64, 8, actdsm.ScaleTest); err != nil {
			b.Fatal(err)
		}
	}
}

// BenchmarkAblationDensity regenerates the §1 density-vs-page-set
// comparison.
func BenchmarkAblationDensity(b *testing.B) {
	o := benchOptions(b)
	o.Apps = []string{"SOR", "Water"}
	for i := 0; i < b.N; i++ {
		if _, err := actdsm.AblationDensity(o); err != nil {
			b.Fatal(err)
		}
	}
}

// BenchmarkAblationProtocol regenerates the §6 multi-writer vs
// single-writer comparison.
func BenchmarkAblationProtocol(b *testing.B) {
	o := benchOptions(b)
	o.Apps = []string{"SOR", "Water", "Ocean"}
	for i := 0; i < b.N; i++ {
		if _, err := actdsm.AblationProtocol(o); err != nil {
			b.Fatal(err)
		}
	}
}

// BenchmarkPrefetchComparison regenerates the demand-vs-prefetch
// comparison (DESIGN.md §7; the BENCH_prefetch.json data) and asserts
// its acceptance properties every iteration: prefetch active, and
// demand calls cut by at least 20% on both SOR and Ocean. The custom
// metrics report the per-app reduction plus hit/wasted accounting.
func BenchmarkPrefetchComparison(b *testing.B) {
	o := benchOptions(b)
	var rows []actdsm.PrefetchRow
	for i := 0; i < b.N; i++ {
		var err error
		rows, err = actdsm.PrefetchComparison(o)
		if err != nil {
			b.Fatal(err)
		}
		for _, r := range rows {
			if r.PrefetchedPages == 0 || r.PrefetchHits == 0 {
				b.Fatalf("%s: prefetch inactive (pages %d, hits %d)",
					r.App, r.PrefetchedPages, r.PrefetchHits)
			}
			if r.Reduction < 0.20 {
				b.Fatalf("%s: demand-call reduction %.1f%% < 20%% (%d -> %d)",
					r.App, 100*r.Reduction, r.DemandCalls, r.PrefetchCalls)
			}
		}
	}
	b.StopTimer()
	for _, r := range rows {
		b.ReportMetric(100*r.Reduction, r.App+"-reduction-%")
		b.ReportMetric(float64(r.PrefetchHits), r.App+"-hits")
		b.ReportMetric(float64(r.PrefetchWasted), r.App+"-wasted")
	}
}

// BenchmarkTraceReplay measures capture + replay of a Water trace — the
// workload-generator path of the harness.
func BenchmarkTraceReplay(b *testing.B) {
	app, err := actdsm.NewApp("Water", actdsm.AppConfig{Threads: 16})
	if err != nil {
		b.Fatal(err)
	}
	sys, err := actdsm.NewSystem(app, 4)
	if err != nil {
		b.Fatal(err)
	}
	rec := actdsm.NewRecorder(sys.Engine())
	if err := sys.SetHooks(rec.Hooks(actdsm.Hooks{})); err != nil {
		b.Fatal(err)
	}
	if err := sys.Run(); err != nil {
		b.Fatal(err)
	}
	tr := rec.Trace()
	_ = sys.Close()
	b.ResetTimer()
	for i := 0; i < b.N; i++ {
		if _, _, err := actdsm.ReplayTrace(tr, 8,
			actdsm.WithConfig(actdsm.SystemConfig{Cluster: actdsm.ClusterConfig{Protocol: actdsm.MultiWriter}})); err != nil {
			b.Fatal(err)
		}
	}
}
