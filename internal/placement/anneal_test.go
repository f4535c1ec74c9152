package placement

import (
	"errors"
	"testing"
	"testing/quick"

	"actdsm/internal/core"
	"actdsm/internal/sim"
)

func TestAnnealRecoversBlocks(t *testing.T) {
	m := blockMatrix(4, 4)
	rng := sim.NewRNG(3)
	start := RandomBalanced(16, 4, rng)
	out := Anneal(m, start, 4000, rng)
	opt, err := Optimal(m, 4)
	if err != nil {
		t.Fatal(err)
	}
	if m.CutCost(out) != m.CutCost(opt) {
		t.Fatalf("anneal cut %d, optimal %d", m.CutCost(out), m.CutCost(opt))
	}
}

func TestAnnealNeverWorseThanStart(t *testing.T) {
	check := func(seed uint64) bool {
		rng := sim.NewRNG(seed)
		n := 12
		m := core.NewMatrix(n)
		for i := 0; i < n; i++ {
			for j := i + 1; j < n; j++ {
				m.Set(i, j, int64(rng.Intn(40)))
			}
		}
		start := RandomBalanced(n, 3, rng)
		out := Anneal(m, start, 1500, rng)
		// Populations preserved.
		cs, co := counts(start, 3), counts(out, 3)
		for k := range cs {
			if cs[k] != co[k] {
				return false
			}
		}
		return m.CutCost(out) <= m.CutCost(start)
	}
	if err := quick.Check(check, &quick.Config{MaxCount: 30}); err != nil {
		t.Fatal(err)
	}
}

func TestAnnealDegenerateInputs(t *testing.T) {
	m := core.NewMatrix(1)
	out := Anneal(m, []int{0}, 100, sim.NewRNG(1))
	if len(out) != 1 || out[0] != 0 {
		t.Fatalf("out = %v", out)
	}
	m2 := ringMatrix(4)
	start := Stretch(4, 2)
	if got := Anneal(m2, start, 0, sim.NewRNG(1)); len(got) != 4 {
		t.Fatalf("zero-step anneal = %v", got)
	}
}

func TestSwapDeltaMatchesRecompute(t *testing.T) {
	check := func(seed uint64) bool {
		rng := sim.NewRNG(seed)
		n := 10
		m := core.NewMatrix(n)
		for i := 0; i < n; i++ {
			for j := i + 1; j < n; j++ {
				m.Set(i, j, int64(rng.Intn(25)))
			}
		}
		assign := RandomBalanced(n, 2, rng)
		i, j := rng.Intn(n), rng.Intn(n)
		if assign[i] == assign[j] {
			return true
		}
		before := m.CutCost(assign)
		delta := swapDelta(m, assign, i, j)
		assign[i], assign[j] = assign[j], assign[i]
		return m.CutCost(assign) == before+delta
	}
	if err := quick.Check(check, nil); err != nil {
		t.Fatal(err)
	}
}

func TestOptimalCapacities(t *testing.T) {
	// One 4-thread block, one 2-thread block; capacities 4 and 2.
	m := core.NewMatrix(6)
	for i := 0; i < 4; i++ {
		for j := i + 1; j < 4; j++ {
			m.Set(i, j, 10)
		}
	}
	m.Set(4, 5, 10)
	out, err := OptimalCapacities(m, []int{4, 2})
	if err != nil {
		t.Fatal(err)
	}
	if m.CutCost(out) != 0 {
		t.Fatalf("cut = %d, want 0 (%v)", m.CutCost(out), out)
	}
	got := counts(out, 2)
	if got[0] != 4 || got[1] != 2 {
		t.Fatalf("populations %v", got)
	}
	if _, err := OptimalCapacities(core.NewMatrix(20), []int{10, 10}); err == nil {
		t.Fatal("expected size error")
	}
	if _, err := OptimalCapacities(m, []int{4, 4}); err == nil || errors.Is(err, ErrTooLarge) {
		t.Fatalf("err = %v, want the capacity-sum error", err)
	}
	// A negative capacity summing to the thread count is refused, by the
	// exact solver and the heuristic alike, instead of indexing with it.
	if _, err := OptimalCapacities(m, []int{-1, 7}); err == nil {
		t.Fatal("expected negative-capacity error")
	}
	if _, err := MinCostCapacities(m, []int{-1, 7}); err == nil {
		t.Fatal("expected negative-capacity error from MinCostCapacities")
	}
}

func TestOptimalCapacitiesMatchesOptimalWhenBalanced(t *testing.T) {
	rng := sim.NewRNG(17)
	for trial := 0; trial < 10; trial++ {
		n := 8
		m := core.NewMatrix(n)
		for i := 0; i < n; i++ {
			for j := i + 1; j < n; j++ {
				m.Set(i, j, int64(rng.Intn(30)))
			}
		}
		a, err := Optimal(m, 2)
		if err != nil {
			t.Fatal(err)
		}
		b, err := OptimalCapacities(m, []int{4, 4})
		if err != nil {
			t.Fatal(err)
		}
		if m.CutCost(a) != m.CutCost(b) {
			t.Fatalf("balanced optimal %d != capacity optimal %d", m.CutCost(a), m.CutCost(b))
		}
	}
}
