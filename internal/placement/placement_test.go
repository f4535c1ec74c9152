package placement

import (
	"errors"
	"slices"
	"testing"
	"testing/quick"

	"actdsm/internal/core"
	"actdsm/internal/sim"
)

// ringMatrix builds a nearest-neighbour ring correlation matrix.
func ringMatrix(n int) *core.Matrix {
	m := core.NewMatrix(n)
	for i := 0; i < n; i++ {
		m.Set(i, (i+1)%n, 10)
	}
	return m
}

// blockMatrix builds b blocks of size s with heavy intra-block sharing and
// light background sharing (the LU/FFT structure of Table 3).
func blockMatrix(b, s int) *core.Matrix {
	n := b * s
	m := core.NewMatrix(n)
	for i := 0; i < n; i++ {
		for j := i + 1; j < n; j++ {
			v := int64(1)
			if i/s == j/s {
				v = 20
			}
			m.Set(i, j, v)
		}
	}
	return m
}

func counts(assign []int, nodes int) []int {
	c := make([]int, nodes)
	for _, n := range assign {
		c[n]++
	}
	return c
}

func TestStretchBalanced(t *testing.T) {
	for _, tc := range []struct{ threads, nodes int }{{64, 8}, {48, 8}, {32, 4}, {7, 3}} {
		a := Stretch(tc.threads, tc.nodes)
		c := counts(a, tc.nodes)
		lo, hi := c[0], c[0]
		for _, v := range c {
			if v < lo {
				lo = v
			}
			if v > hi {
				hi = v
			}
		}
		if hi-lo > 1 {
			t.Fatalf("%d/%d: counts %v", tc.threads, tc.nodes, c)
		}
		// Contiguity: node indices never decrease.
		for i := 1; i < len(a); i++ {
			if a[i] < a[i-1] {
				t.Fatalf("stretch not contiguous: %v", a)
			}
		}
	}
}

func TestStretchOptimalOnRing(t *testing.T) {
	m := ringMatrix(16)
	st := Stretch(16, 4)
	opt, err := Optimal(m, 4)
	if err != nil {
		t.Fatal(err)
	}
	if m.CutCost(st) != m.CutCost(opt) {
		t.Fatalf("stretch cut %d != optimal cut %d on ring", m.CutCost(st), m.CutCost(opt))
	}
}

func TestMinCostRecoversBlocks(t *testing.T) {
	// 4 blocks of 4 threads on 4 nodes: min-cost must place each block
	// on its own node, cutting only the background sharing.
	m := blockMatrix(4, 4)
	a := MinCost(m, 4)
	c := counts(a, 4)
	for _, v := range c {
		if v != 4 {
			t.Fatalf("unbalanced: %v", c)
		}
	}
	for blk := 0; blk < 4; blk++ {
		node := a[blk*4]
		for i := 1; i < 4; i++ {
			if a[blk*4+i] != node {
				t.Fatalf("block %d split: %v", blk, a)
			}
		}
	}
	opt, err := Optimal(m, 4)
	if err != nil {
		t.Fatal(err)
	}
	if m.CutCost(a) != m.CutCost(opt) {
		t.Fatalf("min-cost %d != optimal %d", m.CutCost(a), m.CutCost(opt))
	}
}

func TestMinCostNearOptimalRandom(t *testing.T) {
	// Paper §5.1: the heuristics land within 1% of optimal on its
	// applications; on small random instances we allow 5%.
	rng := sim.NewRNG(1234)
	for trial := 0; trial < 20; trial++ {
		n := 12
		m := core.NewMatrix(n)
		for i := 0; i < n; i++ {
			for j := i + 1; j < n; j++ {
				m.Set(i, j, int64(rng.Intn(50)))
			}
		}
		mc := MinCost(m, 3)
		opt, err := Optimal(m, 3)
		if err != nil {
			t.Fatal(err)
		}
		mcc, occ := m.CutCost(mc), m.CutCost(opt)
		if mcc < occ {
			t.Fatalf("min-cost %d beat 'optimal' %d — solver bug", mcc, occ)
		}
		if float64(mcc) > float64(occ)*1.05+1 {
			t.Fatalf("trial %d: min-cost %d vs optimal %d (>5%% off)", trial, mcc, occ)
		}
	}
}

// TestOptimalUnequalCapacities holds Optimal to the true optimum when
// threads % nodes != 0: 10 threads on 4 nodes make capacities 3, 3, 2, 2,
// so the nodes are not interchangeable and the two 3-thread groups fit
// only the first two nodes.
func TestOptimalUnequalCapacities(t *testing.T) {
	m := core.NewMatrix(10)
	for _, g := range [][]int{{0, 1}, {2, 3}, {4, 5, 6}, {7, 8, 9}} {
		for a, i := range g {
			for _, j := range g[a+1:] {
				m.Set(i, j, 10)
			}
		}
	}
	opt, err := Optimal(m, 4)
	if err != nil {
		t.Fatal(err)
	}
	if cut := m.CutCost(opt); cut != 0 {
		t.Fatalf("Optimal cut = %d, want 0 (%v)", cut, opt)
	}
	if got := counts(opt, 4); !slices.Equal(got, []int{3, 3, 2, 2}) {
		t.Fatalf("populations %v, want [3 3 2 2]", got)
	}
}

func TestOptimalTooLarge(t *testing.T) {
	if _, err := Optimal(core.NewMatrix(20), 4); !errors.Is(err, ErrTooLarge) {
		t.Fatalf("err = %v", err)
	}
}

func TestRefineNeverWorsens(t *testing.T) {
	check := func(seed uint64) bool {
		rng := sim.NewRNG(seed)
		n := 10
		m := core.NewMatrix(n)
		for i := 0; i < n; i++ {
			for j := i + 1; j < n; j++ {
				m.Set(i, j, int64(rng.Intn(30)))
			}
		}
		start := RandomBalanced(n, 2, rng)
		refined := Refine(m, start)
		// Balance preserved.
		cs, cr := counts(start, 2), counts(refined, 2)
		if cs[0] != cr[0] || cs[1] != cr[1] {
			return false
		}
		return m.CutCost(refined) <= m.CutCost(start)
	}
	if err := quick.Check(check, &quick.Config{MaxCount: 50}); err != nil {
		t.Fatal(err)
	}
}

func TestRandomBalanced(t *testing.T) {
	rng := sim.NewRNG(9)
	a := RandomBalanced(64, 8, rng)
	for _, v := range counts(a, 8) {
		if v != 8 {
			t.Fatalf("counts = %v", counts(a, 8))
		}
	}
	b := RandomBalanced(64, 8, rng)
	same := true
	for i := range a {
		if a[i] != b[i] {
			same = false
		}
	}
	if same {
		t.Fatal("two random placements identical (improbable)")
	}
}

func TestRandomMin(t *testing.T) {
	rng := sim.NewRNG(5)
	for trial := 0; trial < 50; trial++ {
		a, err := RandomMin(64, 8, 2, rng)
		if err != nil {
			t.Fatal(err)
		}
		for n, v := range counts(a, 8) {
			if v < 2 {
				t.Fatalf("node %d has %d threads", n, v)
			}
		}
	}
	if _, err := RandomMin(4, 8, 2, rng); err == nil {
		t.Fatal("expected infeasibility error")
	}
}

func TestPlanAndAlignLabels(t *testing.T) {
	// Target is current with node labels permuted: after alignment, no
	// moves at all.
	current := []int{0, 0, 1, 1, 2, 2}
	target := []int{2, 2, 0, 0, 1, 1}
	moves := Plan(current, target, 3)
	if len(moves) != 0 {
		t.Fatalf("moves = %v, want none after relabeling", moves)
	}
	// A genuinely different mapping produces the minimal set of moves.
	target2 := []int{0, 1, 0, 1, 2, 2}
	moves = Plan(current, target2, 3)
	if len(moves) != 2 {
		t.Fatalf("moves = %v, want 2", moves)
	}
	for _, mv := range moves {
		if current[mv.Thread] != mv.From {
			t.Fatalf("bad move source: %+v", mv)
		}
	}
}

func TestAlignLabelsGreedyPath(t *testing.T) {
	// 9 nodes exercises the greedy matcher.
	threads := 18
	current := Stretch(threads, 9)
	target := make([]int, threads)
	for i, n := range current {
		target[i] = (n + 3) % 9
	}
	aligned := AlignLabels(target, current, 9)
	for i := range aligned {
		if aligned[i] != current[i] {
			t.Fatalf("greedy alignment failed at %d: %v", i, aligned)
		}
	}
}

func TestMinCostOddSizes(t *testing.T) {
	// 10 threads on 4 nodes: capacities 3,3,2,2.
	m := ringMatrix(10)
	a := MinCost(m, 4)
	c := counts(a, 4)
	total := 0
	for _, v := range c {
		if v < 2 || v > 3 {
			t.Fatalf("counts = %v", c)
		}
		total += v
	}
	if total != 10 {
		t.Fatalf("counts = %v", c)
	}
}

func TestMinCostBeatsRandomOnStructure(t *testing.T) {
	m := blockMatrix(8, 8) // 64 threads
	rng := sim.NewRNG(77)
	mc := MinCost(m, 8)
	worst := int64(0)
	for i := 0; i < 10; i++ {
		r := RandomBalanced(64, 8, rng)
		if c := m.CutCost(r); c > worst {
			worst = c
		}
	}
	if m.CutCost(mc) >= worst {
		t.Fatalf("min-cost %d not better than random %d", m.CutCost(mc), worst)
	}
}
