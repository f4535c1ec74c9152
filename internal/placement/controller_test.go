package placement

import (
	"testing"

	"actdsm/internal/core"
	"actdsm/internal/dsm"
	"actdsm/internal/memlayout"
	"actdsm/internal/sim"
	"actdsm/internal/threads"
	"actdsm/internal/vm"
)

// controllerRig is one cluster + engine + tracker + controller stack
// for controller tests, mirroring the facade's hook composition.
type controllerRig struct {
	cluster *dsm.Cluster
	engine  *threads.Engine
	tracker *core.ActiveTracker
	ctrl    *Controller
}

func newControllerRig(t *testing.T, nodes, pages, nthreads int, topo *sim.Topology, cfg ControllerConfig) *controllerRig {
	t.Helper()
	cl, err := dsm.New(dsm.Config{Nodes: nodes, Pages: pages, Topology: topo})
	if err != nil {
		t.Fatal(err)
	}
	t.Cleanup(func() { _ = cl.Close() })
	eng, err := threads.NewEngine(cl, threads.Config{Threads: nthreads})
	if err != nil {
		t.Fatal(err)
	}
	tracker := core.NewActiveTracker(eng, 0)
	ctrl, err := NewController(cl, eng, tracker, cfg)
	if err != nil {
		t.Fatal(err)
	}
	eng.SetHooks(tracker.Hooks(ctrl.Hooks(threads.Hooks{})))
	tracker.Start()
	return &controllerRig{cluster: cl, engine: eng, tracker: tracker, ctrl: ctrl}
}

// pairBody returns a body where threads t and t^2 share a page (pairs
// {0,2} and {1,3} under 4 threads): the default block placement on 2
// nodes splits both pairs across nodes, so min-cost placement has an
// obvious, large improvement.
func pairBody(iters int) func(tid int) threads.Body {
	return func(tid int) threads.Body {
		page := tid % 2 // 0 and 2 write page 0, 1 and 3 write page 1
		return func(ctx *threads.Ctx) error {
			for i := 0; i < iters; i++ {
				b, err := ctx.Span(page*memlayout.PageSize, 8, vm.Write)
				if err != nil {
					return err
				}
				b[0]++
				ctx.EndIteration()
			}
			return nil
		}
	}
}

func TestControllerAppliesAndMovesHomes(t *testing.T) {
	cfg := DefaultControllerConfig()
	cfg.Period = 1
	cfg.Hysteresis = 0
	rig := newControllerRig(t, 2, 4, 4, nil, cfg)
	if err := rig.engine.Run(pairBody(6)); err != nil {
		t.Fatal(err)
	}
	if err := rig.ctrl.Err(); err != nil {
		t.Fatal(err)
	}
	snap := rig.cluster.Stats().Snapshot()
	if snap.PlacementTriggers == 0 {
		t.Fatal("controller never triggered")
	}
	if snap.PlacementApplied == 0 {
		t.Fatalf("controller never applied: %+v triggers, %+v skipped",
			snap.PlacementTriggers, snap.PlacementSkipped)
	}
	if snap.PlacementThreadMoves == 0 {
		t.Fatal("split pairs should force thread moves")
	}
	// Pairs end up co-located.
	p := rig.engine.Placement()
	if p[0] != p[2] || p[1] != p[3] {
		t.Fatalf("pairs not co-located: %v", p)
	}
}

func TestControllerHysteresisSuppressesAll(t *testing.T) {
	cfg := DefaultControllerConfig()
	cfg.Period = 1
	cfg.Hysteresis = 1.0 // would need cost to drop below zero
	rig := newControllerRig(t, 2, 4, 4, nil, cfg)
	if err := rig.engine.Run(pairBody(6)); err != nil {
		t.Fatal(err)
	}
	snap := rig.cluster.Stats().Snapshot()
	if snap.PlacementApplied != 0 {
		t.Fatalf("hysteresis 1.0 should suppress every decision, applied %d", snap.PlacementApplied)
	}
	if snap.PlacementSkipped == 0 {
		t.Fatal("suppressed decisions should count as skipped")
	}
	if snap.PlacementThreadMoves != 0 || snap.PlacementHomeMoves != 0 {
		t.Fatalf("suppressed controller moved anyway: %d threads, %d homes",
			snap.PlacementThreadMoves, snap.PlacementHomeMoves)
	}
}

func TestControllerRespectsBudgets(t *testing.T) {
	cfg := DefaultControllerConfig()
	cfg.Period = 1
	cfg.Hysteresis = 0
	cfg.ThreadBudget = 1
	cfg.HomeBudget = 1
	rig := newControllerRig(t, 2, 4, 4, nil, cfg)
	if err := rig.engine.Run(pairBody(8)); err != nil {
		t.Fatal(err)
	}
	if err := rig.ctrl.Err(); err != nil {
		t.Fatal(err)
	}
	snap := rig.cluster.Stats().Snapshot()
	if snap.PlacementApplied == 0 {
		t.Fatal("budgeted controller should still apply")
	}
	if snap.PlacementThreadMoves > snap.PlacementApplied {
		t.Fatalf("thread budget 1 exceeded: %d moves over %d applications",
			snap.PlacementThreadMoves, snap.PlacementApplied)
	}
	if snap.PlacementHomeMoves > snap.PlacementApplied {
		t.Fatalf("home budget 1 exceeded: %d moves over %d applications",
			snap.PlacementHomeMoves, snap.PlacementApplied)
	}
}

func TestControllerDisabledSides(t *testing.T) {
	cfg := DefaultControllerConfig()
	cfg.Period = 1
	cfg.Hysteresis = 0
	cfg.ThreadBudget = 0 // data-only
	rig := newControllerRig(t, 2, 4, 4, nil, cfg)
	if err := rig.engine.Run(pairBody(6)); err != nil {
		t.Fatal(err)
	}
	snap := rig.cluster.Stats().Snapshot()
	if snap.PlacementThreadMoves != 0 {
		t.Fatalf("thread side disabled but moved %d threads", snap.PlacementThreadMoves)
	}
}

// TestControllerNoOscillation runs an alternating two-phase workload:
// odd iterations pair {0,2}/{1,3}, even iterations pair {0,1}/{2,3}
// (the latter matching block placement exactly). EWMA smoothing blends
// the phases, so after the controller settles it must stop flip-
// flopping placement every period.
func TestControllerNoOscillation(t *testing.T) {
	cfg := DefaultControllerConfig()
	cfg.Period = 1
	const iters = 16
	rig := newControllerRig(t, 2, 8, 4, nil, cfg)
	body := func(tid int) threads.Body {
		return func(ctx *threads.Ctx) error {
			for i := 0; i < iters; i++ {
				var page int
				if i%2 == 0 {
					page = tid % 2 // pairs {0,2},{1,3}
				} else {
					page = 4 + tid/2 // pairs {0,1},{2,3}
				}
				b, err := ctx.Span(page*memlayout.PageSize, 8, vm.Write)
				if err != nil {
					return err
				}
				b[0]++
				ctx.EndIteration()
			}
			return nil
		}
	}
	if err := rig.engine.Run(body); err != nil {
		t.Fatal(err)
	}
	if err := rig.ctrl.Err(); err != nil {
		t.Fatal(err)
	}
	snap := rig.cluster.Stats().Snapshot()
	if snap.PlacementTriggers < 4 {
		t.Fatalf("expected repeated evaluations, got %d", snap.PlacementTriggers)
	}
	// An oscillating controller would re-place on nearly every
	// evaluation; a settled one applies a bounded number of times.
	if snap.PlacementApplied > snap.PlacementTriggers/2 {
		t.Fatalf("controller oscillates: applied %d of %d evaluations",
			snap.PlacementApplied, snap.PlacementTriggers)
	}
	if snap.PlacementThreadMoves > 8 {
		t.Fatalf("controller churns threads: %d moves over %d iterations",
			snap.PlacementThreadMoves, iters)
	}
}

func TestControllerValidation(t *testing.T) {
	if _, err := NewController(nil, nil, nil, ControllerConfig{}); err == nil {
		t.Fatal("nil deps should be rejected")
	}
	cl, err := dsm.New(dsm.Config{Nodes: 2, Pages: 2})
	if err != nil {
		t.Fatal(err)
	}
	defer func() { _ = cl.Close() }()
	eng, err := threads.NewEngine(cl, threads.Config{Threads: 2})
	if err != nil {
		t.Fatal(err)
	}
	tr := core.NewActiveTracker(eng, 0)
	if _, err := NewController(cl, eng, tr, ControllerConfig{Hysteresis: -0.1}); err == nil {
		t.Fatal("negative hysteresis should be rejected")
	}
	c, err := NewController(cl, eng, tr, ControllerConfig{})
	if err != nil {
		t.Fatal(err)
	}
	// Only Period has a zero-value default; zero budgets stay zero and
	// disable both sides, as ControllerConfig documents.
	if c.cfg != (ControllerConfig{Period: 2}) {
		t.Fatalf("zero config became %+v, want only Period 2", c.cfg)
	}
}

func TestJointCostUniformMatchesCutCost(t *testing.T) {
	m := core.NewMatrix(4)
	m.Set(0, 2, 10)
	m.Set(1, 3, 7)
	m.Set(0, 1, 3)
	assign := []int{0, 0, 1, 1}
	got := JointCost(CostInput{Matrix: m, Nodes: 2}, assign, nil)
	want := float64(m.CutCost(assign))
	if got != want {
		t.Fatalf("uniform joint cost %v != cut cost %v", got, want)
	}
}

func TestJointCostTopologyWeighting(t *testing.T) {
	m := core.NewMatrix(2)
	m.Set(0, 1, 1)
	topo := sim.FastSlowTopology(4, sim.DefaultCosts(), 2, 1, 4)
	in := CostInput{Matrix: m, Topo: topo, Nodes: 4}
	fast := JointCost(in, []int{0, 2}, nil) // two fast nodes
	slow := JointCost(in, []int{0, 1}, nil) // fast ↔ slow link
	if slow <= fast {
		t.Fatalf("slow link should cost more: fast %v, slow %v", fast, slow)
	}
}

func TestBestHomes(t *testing.T) {
	// Page 0 written heavily from node 1, page 1 lightly from node 1,
	// both homed at node 0.
	in := CostInput{
		Writes: [][]int64{{0, 10}, {0, 2}},
		Nodes:  2,
	}
	homes := []int{0, 0}
	moves := BestHomes(in, []int{0, 1}, homes, -1)
	if len(moves) != 2 {
		t.Fatalf("expected 2 moves, got %v", moves)
	}
	if moves[0].Page != 0 || moves[0].To != 1 || moves[1].Page != 1 {
		t.Fatalf("gain ordering wrong: %v", moves)
	}
	if moves[0].Gain <= moves[1].Gain {
		t.Fatalf("gains not descending: %v", moves)
	}
	// Budget truncates to the top gain; zero disables.
	if got := BestHomes(in, []int{0, 1}, homes, 1); len(got) != 1 || got[0].Page != 0 {
		t.Fatalf("budget 1 wrong: %v", got)
	}
	if got := BestHomes(in, []int{0, 1}, homes, 0); got != nil {
		t.Fatalf("budget 0 should disable, got %v", got)
	}
	// Already-optimal homes propose nothing.
	if got := BestHomes(in, []int{0, 1}, []int{1, 1}, -1); len(got) != 0 {
		t.Fatalf("optimal homes should yield no moves, got %v", got)
	}
}

func TestPlanAndAlignEdgeCases(t *testing.T) {
	cur := []int{0, 0, 1, 1}
	// Identical target: no moves.
	if moves := Plan(cur, cur, 2); len(moves) != 0 {
		t.Fatalf("identical plan should be empty, got %v", moves)
	}
	// Label-permuted target: AlignLabels maps it back to a no-op.
	perm := []int{1, 1, 0, 0}
	aligned := AlignLabels(perm, cur, 2)
	if moves := Plan(cur, aligned, 2); len(moves) != 0 {
		t.Fatalf("permuted labels should align to a no-op, got %v (aligned %v)", moves, aligned)
	}
	// A genuine swap survives alignment.
	target := []int{0, 1, 0, 1}
	moves := Plan(cur, AlignLabels(target, cur, 2), 2)
	if len(moves) == 0 || len(moves) > 2 {
		t.Fatalf("swap should cost 1-2 moves, got %v", moves)
	}
}
