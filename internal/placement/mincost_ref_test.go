package placement

import (
	"math"
	"slices"
	"sort"
	"testing"

	"actdsm/internal/core"
	"actdsm/internal/sim"
)

// TestMinCostMatchesReference holds MinCost, MinCostCapacities and Refine
// to the reference copies below, the code as it was before it kept its
// working tables, on 240 seeded matrices: 2 to 40 threads on 1 to 8
// nodes, weights from 0–2 (ties everywhere) to 0–999, even capacities and
// uneven ones (zero-capacity nodes among them). Every assignment must be
// identical, so the clusters' order and every tie-break are unchanged.
func TestMinCostMatchesReference(t *testing.T) {
	rng := sim.NewRNG(44)
	uneven := 0
	for trial := 0; trial < 240; trial++ {
		threads := 2 + rng.Intn(39)
		nodes := 1 + rng.Intn(min(8, threads))
		weights := []int{3, 10, 1000}[trial%3]
		m := core.NewMatrix(threads)
		for i := 0; i < threads; i++ {
			for j := i + 1; j < threads; j++ {
				m.Set(i, j, int64(rng.Intn(weights)))
			}
		}
		if got, want := MinCost(m, nodes), refMinCostCaps(m, capacities(threads, nodes)); !slices.Equal(got, want) {
			t.Fatalf("trial %d: MinCost(%d threads, %d nodes) = %v, reference %v", trial, threads, nodes, got, want)
		}
		caps := make([]int, nodes)
		for range threads {
			caps[rng.Intn(nodes)]++
		}
		if !slices.Equal(caps, capacities(threads, nodes)) {
			uneven++
		}
		got, err := MinCostCapacities(m, caps)
		if err != nil {
			t.Fatal(err)
		}
		if want := refMinCostCaps(m, caps); !slices.Equal(got, want) {
			t.Fatalf("trial %d: MinCostCapacities(%d threads, caps %v) = %v, reference %v", trial, threads, caps, got, want)
		}
		start := make([]int, threads)
		for i := range start {
			start[i] = rng.Intn(nodes)
		}
		if got, want := Refine(m, start), refRefine(m, start); !slices.Equal(got, want) {
			t.Fatalf("trial %d: Refine(%v) = %v, reference %v", trial, start, got, want)
		}
	}
	if uneven < 200 {
		t.Fatalf("only %d of 240 trials had uneven capacities", uneven)
	}
}

// refMinCostCaps is minCostCaps as it was before its working tables were
// kept: it allocates its merged clusters and cluster lists on every merge.
func refMinCostCaps(m *core.Matrix, caps []int) []int {
	threads := m.N()
	nodes := len(caps)
	maxCap := 0
	for _, c := range caps {
		if c > maxCap {
			maxCap = c
		}
	}

	// Agglomerative phase. clusters[i] = member thread ids.
	clusters := make([][]int, threads)
	for i := range clusters {
		clusters[i] = []int{i}
	}
	affinity := func(a, b []int) int64 {
		var s int64
		for _, i := range a {
			for _, j := range b {
				s += m.At(i, j)
			}
		}
		return s
	}
	for len(clusters) > nodes {
		bi, bj := -1, -1
		var best int64 = -1
		smallestFirst := false
		for i := 0; i < len(clusters); i++ {
			for j := i + 1; j < len(clusters); j++ {
				if len(clusters[i])+len(clusters[j]) > maxCap {
					continue
				}
				a := affinity(clusters[i], clusters[j])
				if a > best {
					best, bi, bj = a, i, j
				}
			}
		}
		if bi < 0 {
			// No feasible merge under the cap: merge the two
			// smallest clusters disregarding affinity so we always
			// converge to exactly `nodes` clusters.
			smallestFirst = true
		}
		if smallestFirst {
			// Find the two smallest clusters whose union is
			// smallest; with caps respected above this only
			// triggers when fragmentation blocks progress.
			bi, bj = 0, 1
			for i := 0; i < len(clusters); i++ {
				for j := i + 1; j < len(clusters); j++ {
					if len(clusters[i])+len(clusters[j]) < len(clusters[bi])+len(clusters[bj]) {
						bi, bj = i, j
					}
				}
			}
		}
		merged := append(append([]int(nil), clusters[bi]...), clusters[bj]...)
		next := make([][]int, 0, len(clusters)-1)
		for k, cl := range clusters {
			if k != bi && k != bj {
				next = append(next, cl)
			}
		}
		clusters = append(next, merged)
	}

	// Map the largest clusters onto the highest-capacity nodes, then
	// balance: move threads out of oversized clusters into undersized
	// ones, choosing the least-attached thread each time.
	order := make([]int, nodes)
	for i := range order {
		order[i] = i
	}
	sort.Slice(order, func(a, b int) bool { return len(clusters[order[a]]) > len(clusters[order[b]]) })
	nodeOrder := make([]int, nodes)
	for i := range nodeOrder {
		nodeOrder[i] = i
	}
	sort.Slice(nodeOrder, func(a, b int) bool { return caps[nodeOrder[a]] > caps[nodeOrder[b]] })
	assign := make([]int, threads)
	for rank, ci := range order {
		node := nodeOrder[rank]
		for _, tid := range clusters[ci] {
			assign[tid] = node
		}
	}
	assign = refRebalance(m, assign, caps)
	return refRefine(m, assign)
}

// refRebalance is rebalance, copied unchanged: it enforces node
// capacities by relocating the least-attached threads from over-full nodes
// to under-full ones.
func refRebalance(m *core.Matrix, assign []int, caps []int) []int {
	nodes := len(caps)
	counts := make([]int, nodes)
	for _, n := range assign {
		counts[n]++
	}
	attach := func(tid, node int) int64 {
		var s int64
		for j := 0; j < m.N(); j++ {
			if j != tid && assign[j] == node {
				s += m.At(tid, j)
			}
		}
		return s
	}
	for {
		over := -1
		for n := 0; n < nodes; n++ {
			if counts[n] > caps[n] {
				over = n
				break
			}
		}
		if over < 0 {
			return assign
		}
		under := -1
		for n := 0; n < nodes; n++ {
			if counts[n] < caps[n] {
				under = n
				break
			}
		}
		// Move the thread losing the least affinity.
		bestTid, bestDelta := -1, int64(math.MaxInt64)
		for tid := range assign {
			if assign[tid] != over {
				continue
			}
			delta := attach(tid, over) - attach(tid, under)
			if delta < bestDelta {
				bestDelta, bestTid = delta, tid
			}
		}
		assign[bestTid] = under
		counts[over]--
		counts[under]++
	}
}

// refRefine is Refine as it was before its rows shared one table: one row
// per thread, and a fresh row per swap.
func refRefine(m *core.Matrix, assign []int) []int {
	out := append([]int(nil), assign...)
	n := m.N()
	// external[i][node] = Σ correlation of i with threads on node.
	ext := make([][]int64, n)
	for i := range ext {
		ext[i] = make([]int64, maxNode(out)+1)
		for j := 0; j < n; j++ {
			if j != i {
				ext[i][out[j]] += m.At(i, j)
			}
		}
	}
	for {
		bestGain := int64(0)
		bi, bj := -1, -1
		for i := 0; i < n; i++ {
			for j := i + 1; j < n; j++ {
				ni, nj := out[i], out[j]
				if ni == nj {
					continue
				}
				// Swapping i and j changes cut by:
				gain := (ext[i][nj] - ext[i][ni]) + (ext[j][ni] - ext[j][nj]) - 2*m.At(i, j)
				if gain > bestGain {
					bestGain, bi, bj = gain, i, j
				}
			}
		}
		if bi < 0 {
			return out
		}
		ni, nj := out[bi], out[bj]
		out[bi], out[bj] = nj, ni
		for k := 0; k < n; k++ {
			if k == bi || k == bj {
				continue
			}
			ext[k][ni] += m.At(k, bj) - m.At(k, bi)
			ext[k][nj] += m.At(k, bi) - m.At(k, bj)
		}
		ext[bi], ext[bj] = refRecomputeExt(m, out, bi), refRecomputeExt(m, out, bj)
	}
}

func refRecomputeExt(m *core.Matrix, assign []int, i int) []int64 {
	ext := make([]int64, maxNode(assign)+1)
	for j := 0; j < m.N(); j++ {
		if j != i {
			ext[assign[j]] += m.At(i, j)
		}
	}
	return ext
}
