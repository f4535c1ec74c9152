package threads

import (
	"errors"
	"fmt"
	"testing"

	"actdsm/internal/dsm"
	"actdsm/internal/memlayout"
	"actdsm/internal/pool"
	"actdsm/internal/sim"
	"actdsm/internal/vm"
)

func newTestEngine(t *testing.T, nodes, pages, nthreads int, cfg Config) *Engine {
	t.Helper()
	c, err := dsm.New(dsm.Config{Nodes: nodes, Pages: pages})
	if err != nil {
		t.Fatal(err)
	}
	t.Cleanup(func() { _ = c.Close() })
	cfg.Threads = nthreads
	e, err := NewEngine(c, cfg)
	if err != nil {
		t.Fatal(err)
	}
	return e
}

func TestBlockPlacement(t *testing.T) {
	cases := []struct {
		threads, nodes int
		want           []int
	}{
		{4, 2, []int{0, 0, 1, 1}},
		{5, 2, []int{0, 0, 0, 1, 1}},
		{6, 3, []int{0, 0, 1, 1, 2, 2}},
		{3, 4, []int{0, 1, 2}},
	}
	for _, c := range cases {
		got := BlockPlacement(c.threads, c.nodes)
		if len(got) != len(c.want) {
			t.Fatalf("%d/%d: got %v", c.threads, c.nodes, got)
		}
		for i := range got {
			if got[i] != c.want[i] {
				t.Fatalf("%d/%d: got %v, want %v", c.threads, c.nodes, got, c.want)
			}
		}
	}
}

func TestEngineValidation(t *testing.T) {
	c, err := dsm.New(dsm.Config{Nodes: 2, Pages: 1})
	if err != nil {
		t.Fatal(err)
	}
	defer func() { _ = c.Close() }()
	if _, err := NewEngine(c, Config{Threads: 0}); err == nil {
		t.Fatal("expected error for zero threads")
	}
	if _, err := NewEngine(c, Config{Threads: 2, Placement: []int{0}}); err == nil {
		t.Fatal("expected error for short placement")
	}
	if _, err := NewEngine(c, Config{Threads: 2, Placement: []int{0, 9}}); err == nil {
		t.Fatal("expected error for invalid node")
	}
}

func TestRunBarriersAndIterations(t *testing.T) {
	e := newTestEngine(t, 2, 2, 4, Config{SchedulerEnabled: true})
	var iterations []int
	barriers := 0
	e.SetHooks(Hooks{
		OnIteration: func(i int) { iterations = append(iterations, i) },
		OnBarrier:   func() { barriers++ },
	})
	err := e.Run(func(tid int) Body {
		return func(ctx *Ctx) error {
			for iter := 0; iter < 3; iter++ {
				ctx.Barrier() // internal phase barrier
				ctx.EndIteration()
			}
			return nil
		}
	})
	if err != nil {
		t.Fatal(err)
	}
	if len(iterations) != 3 || iterations[2] != 2 {
		t.Fatalf("iterations = %v", iterations)
	}
	if barriers != 6 {
		t.Fatalf("barriers = %d, want 6", barriers)
	}
	if e.Iteration() != 3 {
		t.Fatalf("Iteration() = %d", e.Iteration())
	}
}

func TestSharedCounterThroughBarrier(t *testing.T) {
	// Each thread increments its own slot, then after a barrier thread 0
	// sums all slots: classic SPMD reduction. Verifies engine + DSM
	// integration end to end.
	e := newTestEngine(t, 4, 1, 8, Config{SchedulerEnabled: true})
	var got float32
	err := e.Run(func(tid int) Body {
		return func(ctx *Ctx) error {
			v, err := ctx.F32(memlayout.Region{Off: 0, Size: 64}, tid, 1, vm.Write)
			if err != nil {
				return err
			}
			v.Set(0, float32(tid+1))
			ctx.Compute(1)
			ctx.Barrier()
			if ctx.TID() == 0 {
				all, err := ctx.F32(memlayout.Region{Off: 0, Size: 64}, 0, 8, vm.Read)
				if err != nil {
					return err
				}
				for i := 0; i < 8; i++ {
					got += all.Get(i)
				}
			}
			ctx.EndIteration()
			return nil
		}
	})
	if err != nil {
		t.Fatal(err)
	}
	if got != 36 { // 1+2+...+8
		t.Fatalf("sum = %v, want 36", got)
	}
}

func TestElapsedAdvances(t *testing.T) {
	e := newTestEngine(t, 2, 1, 2, Config{SchedulerEnabled: true})
	err := e.Run(func(tid int) Body {
		return func(ctx *Ctx) error {
			ctx.Compute(1000)
			ctx.EndIteration()
			return nil
		}
	})
	if err != nil {
		t.Fatal(err)
	}
	if e.Elapsed() <= 0 {
		t.Fatal("virtual time did not advance")
	}
	if e.NodeClock(0) != e.NodeClock(1) {
		t.Fatalf("clocks diverge after barrier: %d vs %d", e.NodeClock(0), e.NodeClock(1))
	}
}

func TestSchedulerModeAffectsTime(t *testing.T) {
	// A workload with remote stalls takes longer with the scheduler
	// disabled (stalls serialize) — the basis of Table 5's overhead.
	run := func(schedOn bool) int64 {
		e := newTestEngine(t, 2, 8, 8, Config{SchedulerEnabled: schedOn})
		err := e.Run(func(tid int) Body {
			return func(ctx *Ctx) error {
				// Every thread touches every page: plenty of
				// remote misses on nodes that don't manage them.
				for p := 0; p < 8; p++ {
					if _, err := ctx.Span(p*memlayout.PageSize, 4, vm.Write); err != nil {
						return err
					}
					ctx.Compute(200)
				}
				ctx.EndIteration()
				return nil
			}
		})
		if err != nil {
			t.Fatal(err)
		}
		return int64(e.Elapsed())
	}
	on, off := run(true), run(false)
	if off <= on {
		t.Fatalf("scheduler-off time %d <= scheduler-on time %d", off, on)
	}
}

func TestLocksExcludeAndPropagate(t *testing.T) {
	e := newTestEngine(t, 2, 1, 4, Config{SchedulerEnabled: true})
	const lock = int32(3)
	err := e.Run(func(tid int) Body {
		return func(ctx *Ctx) error {
			// All threads increment one shared counter under a lock.
			if err := ctx.Lock(lock); err != nil {
				return err
			}
			v, err := ctx.F32(memlayout.Region{Off: 0, Size: 4}, 0, 1, vm.Write)
			if err != nil {
				return err
			}
			v.Set(0, v.Get(0)+1)
			if err := ctx.Unlock(lock); err != nil {
				return err
			}
			ctx.Barrier()
			// Everyone verifies the total.
			r, err := ctx.F32(memlayout.Region{Off: 0, Size: 4}, 0, 1, vm.Read)
			if err != nil {
				return err
			}
			if got := r.Get(0); got != 4 {
				return fmt.Errorf("thread %d read %v, want 4", ctx.TID(), got)
			}
			ctx.EndIteration()
			return nil
		}
	})
	if err != nil {
		t.Fatal(err)
	}
}

func TestUnlockWithoutLockFails(t *testing.T) {
	e := newTestEngine(t, 1, 1, 1, Config{})
	err := e.Run(func(tid int) Body {
		return func(ctx *Ctx) error { return ctx.Unlock(99) }
	})
	if err == nil {
		t.Fatal("expected error")
	}
}

func TestBodyErrorPropagates(t *testing.T) {
	e := newTestEngine(t, 2, 1, 4, Config{})
	sentinel := errors.New("app failed")
	err := e.Run(func(tid int) Body {
		return func(ctx *Ctx) error {
			if tid == 2 {
				return sentinel
			}
			ctx.Barrier()
			return nil
		}
	})
	if !errors.Is(err, sentinel) {
		t.Fatalf("err = %v, want wrapped sentinel", err)
	}
}

func TestRunTwiceFails(t *testing.T) {
	e := newTestEngine(t, 1, 1, 1, Config{})
	body := func(tid int) Body {
		return func(ctx *Ctx) error { return nil }
	}
	if err := e.Run(body); err != nil {
		t.Fatal(err)
	}
	if err := e.Run(body); err == nil {
		t.Fatal("expected error on second Run")
	}
}

func TestMigrationMovesAccesses(t *testing.T) {
	e := newTestEngine(t, 2, 2, 2, Config{Placement: []int{0, 1}, SchedulerEnabled: true})
	moved := false
	e.SetHooks(Hooks{OnIteration: func(iter int) {
		if iter == 0 {
			if err := e.Migrate(1, 0); err != nil {
				t.Error(err)
			}
			moved = true
		}
	}})
	var nodesSeen []int
	err := e.Run(func(tid int) Body {
		return func(ctx *Ctx) error {
			for i := 0; i < 2; i++ {
				if tid == 1 {
					nodesSeen = append(nodesSeen, ctx.Node())
				}
				ctx.EndIteration()
			}
			return nil
		}
	})
	if err != nil {
		t.Fatal(err)
	}
	if !moved {
		t.Fatal("migration hook did not run")
	}
	if len(nodesSeen) != 2 || nodesSeen[0] != 1 || nodesSeen[1] != 0 {
		t.Fatalf("thread 1 nodes = %v, want [1 0]", nodesSeen)
	}
	if e.NodeOf(1) != 0 {
		t.Fatalf("NodeOf(1) = %d", e.NodeOf(1))
	}
}

func TestApplyPlacement(t *testing.T) {
	e := newTestEngine(t, 4, 1, 8, Config{})
	moved, err := e.ApplyPlacement([]int{3, 3, 2, 2, 1, 1, 0, 0})
	if err != nil {
		t.Fatal(err)
	}
	if moved != 8 {
		t.Fatalf("moved = %d, want 8", moved)
	}
	if _, err := e.ApplyPlacement([]int{0}); err == nil {
		t.Fatal("expected length error")
	}
	// Re-applying is a no-op.
	moved, err = e.ApplyPlacement([]int{3, 3, 2, 2, 1, 1, 0, 0})
	if err != nil || moved != 0 {
		t.Fatalf("moved = %d err = %v", moved, err)
	}
}

func TestShuffleChangesLocalOrder(t *testing.T) {
	// With a shuffle seed, per-node execution order varies across
	// intervals; capture the order via OnThreadRun.
	collect := func(seed uint64) []int {
		e := newTestEngine(t, 1, 1, 6, Config{ShuffleSeed: seed})
		var order []int
		e.SetHooks(Hooks{OnThreadRun: func(node, tid int) { order = append(order, tid) }})
		err := e.Run(func(tid int) Body {
			return func(ctx *Ctx) error {
				ctx.EndIteration()
				return nil
			}
		})
		if err != nil {
			t.Fatal(err)
		}
		return order
	}
	// Each thread runs two slices (to the iteration barrier, then to
	// completion), so the trace is two rounds.
	fixed := collect(0)
	if len(fixed) != 12 {
		t.Fatalf("trace length = %d, want 12", len(fixed))
	}
	for i, tid := range fixed {
		if tid != i%6 {
			t.Fatalf("unshuffled order = %v", fixed)
		}
	}
	a, b := collect(7), collect(7)
	same := true
	for i := range a {
		if a[i] != b[i] {
			same = false
		}
	}
	if !same {
		t.Fatal("same seed gave different orders")
	}
	c := collect(8)
	diff := false
	for i := range a {
		if a[i] != c[i] {
			diff = true
		}
	}
	if !diff {
		t.Fatal("different seeds gave identical orders (improbable)")
	}
}

func TestOnThreadRunSeesNode(t *testing.T) {
	e := newTestEngine(t, 2, 1, 4, Config{Placement: []int{0, 0, 1, 1}})
	seen := map[int]int{}
	e.SetHooks(Hooks{OnThreadRun: func(node, tid int) { seen[tid] = node }})
	err := e.Run(func(tid int) Body {
		return func(ctx *Ctx) error { ctx.EndIteration(); return nil }
	})
	if err != nil {
		t.Fatal(err)
	}
	want := map[int]int{0: 0, 1: 0, 2: 1, 3: 1}
	for tid, n := range want {
		if seen[tid] != n {
			t.Fatalf("seen = %v", seen)
		}
	}
}

// TestEpochScratchZeroAllocs holds the engine's per-epoch tables to their
// first allocation: once warm, folding the threads' charges into the node
// clocks and drawing each node's shuffled execution order allocate
// nothing.
func TestEpochScratchZeroAllocs(t *testing.T) {
	if pool.Race {
		t.Skip("race instrumentation allocates")
	}
	const nodes, nthreads = 8, 64
	e := newTestEngine(t, nodes, 1, nthreads, Config{ShuffleSeed: 7})
	e.threads = make([]*thread, nthreads)
	for i := range e.threads {
		e.threads[i] = &thread{id: i, state: stateRunnable}
	}
	epoch := func() {
		for i, th := range e.threads {
			th.cur = sim.ThreadInterval{Compute: sim.Time(i + 1), Stall: 3}
		}
		e.foldIntervals()
		e.refreshOrder()
	}
	epoch()
	if allocs := testing.AllocsPerRun(1000, epoch); allocs != 0 {
		t.Errorf("warm fold + order refresh: %v allocs/op, want 0", allocs)
	}
}
