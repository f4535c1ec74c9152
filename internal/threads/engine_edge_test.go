package threads

import (
	"errors"
	"testing"

	"actdsm/internal/dsm"
	"actdsm/internal/memlayout"
	"actdsm/internal/sim"
	"actdsm/internal/vm"
)

func TestDeadlockDetected(t *testing.T) {
	// Thread 0 takes a lock and finishes without releasing; thread 1
	// then waits forever. The engine must detect the deadlock rather
	// than hang.
	e := newTestEngine(t, 1, 1, 2, Config{})
	err := e.Run(func(tid int) Body {
		return func(ctx *Ctx) error {
			if tid == 0 {
				return ctx.Lock(5) // never unlocked
			}
			ctx.Barrier() // let thread 0 win the lock first... but
			// thread 0 never reaches the barrier, so instead:
			return nil
		}
	})
	// Thread 0 holds the lock and exits; no deadlock yet — this variant
	// must simply complete (lock leaked but nobody waits).
	if err != nil {
		t.Fatalf("leaked lock should not fail the run: %v", err)
	}

	e2 := newTestEngine(t, 1, 1, 2, Config{})
	err = e2.Run(func(tid int) Body {
		return func(ctx *Ctx) error {
			if tid == 0 {
				return ctx.Lock(5) // acquires and exits holding it
			}
			// Thread 1 runs second (engine order) and waits forever.
			return ctx.Lock(5)
		}
	})
	if !errors.Is(err, ErrDeadlock) {
		t.Fatalf("err = %v, want ErrDeadlock", err)
	}
}

func TestAdvanceNode(t *testing.T) {
	e := newTestEngine(t, 2, 1, 2, Config{})
	e.AdvanceNode(1, 500)
	if e.NodeClock(1) != 500 || e.NodeClock(0) != 0 {
		t.Fatalf("clocks: %d, %d", e.NodeClock(0), e.NodeClock(1))
	}
}

func TestMigrateInvalidNode(t *testing.T) {
	e := newTestEngine(t, 2, 1, 2, Config{})
	if err := e.Migrate(0, 9); err == nil {
		t.Fatal("expected error for invalid node")
	}
	if err := e.Migrate(0, -1); err == nil {
		t.Fatal("expected error for negative node")
	}
	// Self-migration is free.
	before := e.NodeClock(0)
	if err := e.Migrate(0, e.NodeOf(0)); err != nil {
		t.Fatal(err)
	}
	if e.NodeClock(0) != before {
		t.Fatal("self-migration charged time")
	}
}

func TestMigrationChargesBothEndpoints(t *testing.T) {
	e := newTestEngine(t, 3, 1, 3, Config{Placement: []int{0, 1, 2}})
	if err := e.Migrate(0, 1); err != nil {
		t.Fatal(err)
	}
	if e.NodeClock(0) == 0 || e.NodeClock(1) == 0 {
		t.Fatal("migration endpoints not charged")
	}
	if e.NodeClock(2) != 0 {
		t.Fatal("bystander node charged")
	}
}

func TestSpanRegionAndTypedViews(t *testing.T) {
	e := newTestEngine(t, 1, 2, 1, Config{})
	region := memlayout.Region{Off: memlayout.PageSize, Size: memlayout.PageSize}
	err := e.Run(func(tid int) Body {
		return func(ctx *Ctx) error {
			f64, err := ctx.F64(region, 1, 2, vm.Write)
			if err != nil {
				return err
			}
			f64.Set(0, 2.5)
			i32, err := ctx.I32(region, 10, 1, vm.Write)
			if err != nil {
				return err
			}
			i32.Set(0, -7)
			// Raw span over the same bytes agrees.
			raw, err := ctx.SpanRegion(region, 8, 8, vm.Read)
			if err != nil {
				return err
			}
			if memlayout.ViewF64(raw).Get(0) != 2.5 {
				t.Error("F64 write not visible through raw span")
			}
			i32b, err := ctx.I32(region, 10, 1, vm.Read)
			if err != nil {
				return err
			}
			if i32b.Get(0) != -7 {
				t.Error("I32 write lost")
			}
			ctx.EndIteration()
			return nil
		}
	})
	if err != nil {
		t.Fatal(err)
	}
}

func TestCtxAccessors(t *testing.T) {
	e := newTestEngine(t, 2, 1, 4, Config{Placement: []int{0, 0, 1, 1}})
	err := e.Run(func(tid int) Body {
		return func(ctx *Ctx) error {
			if ctx.TID() != tid {
				t.Errorf("TID = %d, want %d", ctx.TID(), tid)
			}
			if ctx.NumThreads() != 4 || ctx.NumNodes() != 2 {
				t.Error("counts wrong")
			}
			wantNode := 0
			if tid >= 2 {
				wantNode = 1
			}
			if ctx.Node() != wantNode {
				t.Errorf("Node = %d, want %d", ctx.Node(), wantNode)
			}
			ctx.EndIteration()
			return nil
		}
	})
	if err != nil {
		t.Fatal(err)
	}
}

func TestComputeChargesTime(t *testing.T) {
	e := newTestEngine(t, 1, 1, 1, Config{})
	err := e.Run(func(tid int) Body {
		return func(ctx *Ctx) error {
			ctx.Compute(-5) // ignored
			ctx.Compute(1000)
			ctx.EndIteration()
			return nil
		}
	})
	if err != nil {
		t.Fatal(err)
	}
	want := 1000 * int64(e.costs.ComputePerWord)
	if got := int64(e.NodeClock(0)); got < want {
		t.Fatalf("node clock %d < compute charge %d", got, want)
	}
}

// runUnderComputeScales runs two threads, one per node, through one
// compute-bound iteration on a cluster whose Topology gives node n the
// compute scale scales[n], and returns the elapsed virtual time. With
// no scales the cluster has no Topology at all.
func runUnderComputeScales(t *testing.T, scales ...float64) int64 {
	t.Helper()
	var topo *sim.Topology
	if scales != nil {
		topo = sim.NewTopology(2, sim.Costs{})
		for n, s := range scales {
			topo.SetComputeScale(n, s)
		}
	}
	c, err := dsm.New(dsm.Config{Nodes: 2, Pages: 1, Topology: topo})
	if err != nil {
		t.Fatal(err)
	}
	defer func() { _ = c.Close() }()
	e, err := NewEngine(c, Config{Threads: 2, Placement: []int{0, 1}})
	if err != nil {
		t.Fatal(err)
	}
	err = e.Run(func(tid int) Body {
		return func(ctx *Ctx) error {
			ctx.Compute(100000)
			ctx.EndIteration()
			return nil
		}
	})
	if err != nil {
		t.Fatal(err)
	}
	return int64(e.Elapsed())
}

// TestNodeSpeedsScaleCompute pins how node speed, set through the
// cluster Topology's compute scale, scales compute: nodes at scale 1/2
// compute twice as fast, and because the barrier makes the slowest
// node the critical path, speeding up one node alone does not shorten
// the run.
func TestNodeSpeedsScaleCompute(t *testing.T) {
	base := runUnderComputeScales(t)
	if fast := runUnderComputeScales(t, 0.5, 0.5); fast >= base {
		t.Fatalf("2x nodes not faster: %d vs %d", fast, base)
	}
	if half := runUnderComputeScales(t, 0.5, 1); half < base*95/100 {
		t.Fatalf("speeding one node broke the critical path: %d vs %d", half, base)
	}
}

// TestTopologyDerivesNodeSpeeds pins the heterogeneous-topology
// integration: the engine derives node speeds from the cluster
// Topology's compute scaling, so a uniform topology charges what no
// topology does and a slow node stretches the run.
func TestTopologyDerivesNodeSpeeds(t *testing.T) {
	base := runUnderComputeScales(t)
	if uniform := runUnderComputeScales(t, 1, 1); uniform != base {
		t.Fatalf("uniform topology charged %d, no topology %d", uniform, base)
	}
	// Node 1 computes at quadruple cost: the barrier's critical path
	// must stretch.
	if stretched := runUnderComputeScales(t, 1, 4); stretched <= base {
		t.Fatalf("slow-node topology did not stretch the run: %d vs %d", stretched, base)
	}
}
