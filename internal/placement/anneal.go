package placement

import (
	"math"

	"actdsm/internal/core"
	"actdsm/internal/sim"
)

// Anneal improves a balanced placement by simulated annealing over
// pairwise swaps — a heavier-weight member of the heuristic family the
// paper's §5.1 explores alongside cluster analysis. Unlike Refine's
// greedy descent it can escape local minima; with the temperature
// schedule below it typically matches Refine on block-structured
// matrices and occasionally beats it on irregular ones.
//
// steps bounds the number of proposed swaps; rng drives the proposal and
// acceptance randomness (deterministic for a fixed seed).
func Anneal(m *core.Matrix, assign []int, steps int, rng *sim.RNG) []int {
	n := m.N()
	if n < 2 || steps <= 0 {
		return append([]int(nil), assign...)
	}
	cur := append([]int(nil), assign...)
	curCost := m.CutCost(cur)
	best := append([]int(nil), cur...)
	bestCost := curCost

	// Geometric cooling from a temperature scaled to typical edge
	// weights.
	t0 := float64(m.Max()) * 2
	if t0 < 1 {
		t0 = 1
	}
	cool := math.Pow(1e-3, 1/float64(steps)) // t0 → t0/1000 over the run

	temp := t0
	for s := 0; s < steps; s++ {
		i := rng.Intn(n)
		j := rng.Intn(n)
		if cur[i] == cur[j] {
			temp *= cool
			continue
		}
		delta := swapDelta(m, cur, i, j)
		if delta <= 0 || rng.Float64() < math.Exp(-float64(delta)/temp) {
			cur[i], cur[j] = cur[j], cur[i]
			curCost += delta
			if curCost < bestCost {
				bestCost = curCost
				copy(best, cur)
			}
		}
		temp *= cool
	}
	// Polish the annealed result with greedy descent.
	return Refine(m, best)
}

// swapDelta returns the cut-cost change of swapping threads i and j
// (which must be on different nodes).
func swapDelta(m *core.Matrix, assign []int, i, j int) int64 {
	ni, nj := assign[i], assign[j]
	var delta int64
	for k := 0; k < m.N(); k++ {
		if k == i || k == j {
			continue
		}
		switch assign[k] {
		case ni:
			// i leaves k's node (pairs ik become cut), j joins it.
			delta += m.At(i, k) - m.At(j, k)
		case nj:
			delta += m.At(j, k) - m.At(i, k)
		}
	}
	return delta
}
