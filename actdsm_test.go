package actdsm_test

import (
	"strings"
	"testing"

	"actdsm"
	"actdsm/internal/vm"
)

func TestFacadeQuickstartFlow(t *testing.T) {
	app, err := actdsm.NewApp("SOR", actdsm.AppConfig{Threads: 16, Verify: true})
	if err != nil {
		t.Fatal(err)
	}
	sys, err := actdsm.NewSystem(app, 4)
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
		t.Fatal("tracking incomplete")
	}
	m := tracker.Matrix()
	if m.N() != 16 {
		t.Fatalf("matrix size %d", m.N())
	}
	stretch := actdsm.Stretch(16, 4)
	random := actdsm.RandomBalanced(16, 4, actdsm.NewRNG(1))
	if m.CutCost(stretch) > m.CutCost(random) {
		t.Fatalf("stretch cut %d > random cut %d on SOR", m.CutCost(stretch), m.CutCost(random))
	}
	if sys.Elapsed() <= 0 {
		t.Fatal("no virtual time elapsed")
	}
	if sys.Cluster().Stats().Snapshot().RemoteMisses == 0 {
		t.Fatal("no remote misses")
	}
	if sys.App().Name() != "SOR" || sys.Layout().TotalPages() == 0 {
		t.Fatal("accessors broken")
	}
	if err := sys.Run(); err == nil {
		t.Fatal("second Run should fail")
	}
}

func TestFacadeCustomApp(t *testing.T) {
	var region actdsm.Region
	app, err := actdsm.NewCustomApp("counter", 4, 2,
		func(l *actdsm.Layout) error {
			var err error
			region, err = l.Alloc("counter.data", 4*actdsm.PageSize)
			return err
		},
		func(tid int) actdsm.Body {
			return func(ctx *actdsm.Ctx) error {
				for iter := 0; iter < 2; iter++ {
					v, err := ctx.F32(region, tid*actdsm.PageSize/4, 1, vm.Write)
					if err != nil {
						return err
					}
					v.Set(0, v.Get(0)+1)
					ctx.EndIteration()
				}
				return nil
			}
		})
	if err != nil {
		t.Fatal(err)
	}
	if app.Name() != "counter" || app.Threads() != 4 || app.Iterations() != 2 {
		t.Fatal("custom app metadata wrong")
	}
	sys, err := actdsm.NewSystem(app, 2)
	if err != nil {
		t.Fatal(err)
	}
	defer func() { _ = sys.Close() }()
	if err := sys.Run(); err != nil {
		t.Fatal(err)
	}
	if sys.Engine().Iteration() != 2 {
		t.Fatalf("iterations = %d", sys.Engine().Iteration())
	}
}

func TestFacadeCustomAppValidation(t *testing.T) {
	setup := func(*actdsm.Layout) error { return nil }
	body := func(int) actdsm.Body { return nil }
	if _, err := actdsm.NewCustomApp("x", 0, 1, setup, body); err == nil {
		t.Fatal("expected threads error")
	}
	if _, err := actdsm.NewCustomApp("x", 1, 0, setup, body); err == nil {
		t.Fatal("expected iterations error")
	}
	if _, err := actdsm.NewCustomApp("x", 1, 1, nil, body); err == nil {
		t.Fatal("expected setup error")
	}
	if _, err := actdsm.NewCustomApp("x", 1, 1, setup, nil); err == nil {
		t.Fatal("expected body error")
	}
}

func TestFacadeSystemOverTCP(t *testing.T) {
	app, err := actdsm.NewApp("Water", actdsm.AppConfig{Threads: 8, Verify: true})
	if err != nil {
		t.Fatal(err)
	}
	sys, err := actdsm.NewSystem(app, 2,
		actdsm.WithConfig(actdsm.SystemConfig{Cluster: actdsm.ClusterConfig{UseTCP: true, GCThresholdBytes: -1}}))
	if err != nil {
		t.Fatal(err)
	}
	defer func() { _ = sys.Close() }()
	if err := sys.Run(); err != nil {
		t.Fatal(err)
	}
	if sys.Cluster().Stats().Snapshot().BytesTotal == 0 {
		t.Fatal("no bytes over TCP")
	}
}

func TestFacadeSystemOptions(t *testing.T) {
	app, err := actdsm.NewApp("SOR", actdsm.AppConfig{Threads: 8})
	if err != nil {
		t.Fatal(err)
	}
	place := []int{1, 1, 0, 0, 1, 0, 1, 0}
	sys, err := actdsm.NewSystem(app, 2,
		actdsm.WithConfig(actdsm.SystemConfig{Placement: place, ShuffleSeed: 3}))
	if err != nil {
		t.Fatal(err)
	}
	defer func() { _ = sys.Close() }()
	got := sys.Engine().Placement()
	for i := range place {
		if got[i] != place[i] {
			t.Fatalf("placement = %v", got)
		}
	}
}

func TestFacadeRunAndTables(t *testing.T) {
	res, err := actdsm.Run(actdsm.RunConfig{
		App: "Water", Threads: 8, Nodes: 4, Iterations: 2, TrackIter: -1,
	})
	if err != nil {
		t.Fatal(err)
	}
	if res.Elapsed <= 0 {
		t.Fatal("no time")
	}
	rows, err := actdsm.Table1(actdsm.ExperimentOptions{
		Threads: 8, Nodes: 2, Apps: []string{"Water"},
	})
	if err != nil {
		t.Fatal(err)
	}
	if out := actdsm.FormatTable1(rows); !strings.Contains(out, "Water") {
		t.Fatalf("table1 output:\n%s", out)
	}
}

func TestFacadeNamesAndConstants(t *testing.T) {
	names := actdsm.AppNames()
	if len(names) != 10 {
		t.Fatalf("AppNames = %v", names)
	}
	if len(actdsm.PaperApps) != 10 {
		t.Fatalf("PaperApps = %v", actdsm.PaperApps)
	}
	if actdsm.PageSize != 4096 {
		t.Fatalf("PageSize = %d", actdsm.PageSize)
	}
	app, err := actdsm.NewApp("LU1k", actdsm.AppConfig{Threads: 4})
	if err != nil {
		t.Fatal(err)
	}
	pages, err := actdsm.SharedPages(app)
	if err != nil || pages <= 0 {
		t.Fatalf("SharedPages = %d, %v", pages, err)
	}
}

func TestFacadeMatrixHelpers(t *testing.T) {
	m := actdsm.NewMatrix(4)
	m.Set(0, 1, 3)
	if m.CutCost([]int{0, 1, 0, 1}) != 3 {
		t.Fatal("cut cost wrong")
	}
	if opt, err := actdsm.Optimal(m, 2); err != nil || m.CutCost(opt) != 0 {
		t.Fatalf("optimal: %v %v", opt, err)
	}
	plan := actdsm.Plan([]int{0, 0, 1, 1}, []int{1, 1, 0, 0}, 2)
	if len(plan) != 0 {
		t.Fatalf("plan after relabel = %v", plan)
	}
}

func TestFacadeTraceRoundTrip(t *testing.T) {
	app, err := actdsm.NewApp("SOR", actdsm.AppConfig{Threads: 8})
	if err != nil {
		t.Fatal(err)
	}
	sys, err := actdsm.NewSystem(app, 2)
	if err != nil {
		t.Fatal(err)
	}
	defer func() { _ = sys.Close() }()
	rec := actdsm.NewRecorder(sys.Engine())
	if err := sys.SetHooks(rec.Hooks(actdsm.Hooks{})); err != nil {
		t.Fatal(err)
	}
	if err := sys.Run(); err != nil {
		t.Fatal(err)
	}
	tr := rec.Trace()
	decoded, err := actdsm.DecodeTrace(tr.Encode())
	if err != nil {
		t.Fatal(err)
	}
	if len(decoded.Events) != len(tr.Events) {
		t.Fatalf("events: %d != %d", len(decoded.Events), len(tr.Events))
	}
	stats, elapsed, err := actdsm.ReplayTrace(decoded, 4,
		actdsm.WithConfig(actdsm.SystemConfig{Cluster: actdsm.ClusterConfig{Protocol: actdsm.MultiWriter}}))
	if err != nil {
		t.Fatal(err)
	}
	if stats.RemoteMisses == 0 || elapsed <= 0 {
		t.Fatalf("replay: %d misses, %v elapsed", stats.RemoteMisses, elapsed)
	}
	// The single-writer replay of the same trace must also succeed.
	swStats, _, err := actdsm.ReplayTrace(decoded, 4,
		actdsm.WithConfig(actdsm.SystemConfig{Cluster: actdsm.ClusterConfig{Protocol: actdsm.SingleWriter}}))
	if err != nil {
		t.Fatal(err)
	}
	if swStats.BytesDiff != 0 {
		t.Fatal("single-writer replay created diffs")
	}
}

func TestFacadeNewSystemErrors(t *testing.T) {
	app, err := actdsm.NewCustomApp("bad", 2, 1,
		func(l *actdsm.Layout) error { return errSetup },
		func(tid int) actdsm.Body {
			return func(ctx *actdsm.Ctx) error { return nil }
		})
	if err != nil {
		t.Fatal(err)
	}
	if _, err := actdsm.NewSystem(app, 2); err == nil {
		t.Fatal("expected setup error")
	}
	// Invalid placement length surfaces from the engine.
	good, err := actdsm.NewApp("SOR", actdsm.AppConfig{Threads: 4})
	if err != nil {
		t.Fatal(err)
	}
	if _, err := actdsm.NewSystem(good, 2, actdsm.WithConfig(actdsm.SystemConfig{Placement: []int{0}})); err == nil {
		t.Fatal("expected placement error")
	}
}

var errSetup = errOf("setup failed")

type errOf string

func (e errOf) Error() string { return string(e) }

func TestReplayTraceErrors(t *testing.T) {
	tr := &actdsm.Trace{Threads: 2, Pages: 1, Iterations: 1}
	if _, _, err := actdsm.ReplayTrace(tr, 0,
		actdsm.WithConfig(actdsm.SystemConfig{Cluster: actdsm.ClusterConfig{Protocol: actdsm.MultiWriter}})); err == nil {
		t.Fatal("expected error for zero nodes")
	}
}
