package placement

import (
	"errors"
	"fmt"
	"math"
	"sort"

	"actdsm/internal/core"
	"actdsm/internal/sim"
)

// ErrTooLarge reports an exact-solver instance beyond its practical size.
var ErrTooLarge = errors.New("placement: instance too large for exact solver")

// Stretch maintains the initial thread ordering and divides the threads
// equally among the nodes: with 64 threads on 4 nodes, threads 0–15 on
// node 0, 16–31 on node 1, and so on. It is exactly right for
// nearest-neighbour sharing and no worse than anything else for uniform
// all-to-all sharing (paper §5.1).
func Stretch(threads, nodes int) []int {
	out := make([]int, threads)
	per := threads / nodes
	extra := threads % nodes
	tid := 0
	for n := 0; n < nodes; n++ {
		cnt := per
		if n < extra {
			cnt++
		}
		for i := 0; i < cnt && tid < threads; i++ {
			out[tid] = n
			tid++
		}
	}
	return out
}

// RandomBalanced returns a uniformly random balanced placement: node
// populations match Stretch's, threads shuffled.
func RandomBalanced(threads, nodes int, rng *sim.RNG) []int {
	base := Stretch(threads, nodes)
	rng.Shuffle(len(base), func(i, j int) { base[i], base[j] = base[j], base[i] })
	return base
}

// RandomMin returns a random placement with possibly unequal node
// populations but at least minPerNode threads on every node — the paper's
// Table 2 methodology ("no node ever ended up with fewer than two
// threads").
func RandomMin(threads, nodes, minPerNode int, rng *sim.RNG) ([]int, error) {
	if threads < nodes*minPerNode {
		return nil, fmt.Errorf("placement: %d threads cannot give %d nodes %d each", threads, nodes, minPerNode)
	}
	out := make([]int, threads)
	// Seed the minimum population, then scatter the rest uniformly.
	perm := rng.Perm(threads)
	idx := 0
	for n := 0; n < nodes; n++ {
		for k := 0; k < minPerNode; k++ {
			out[perm[idx]] = n
			idx++
		}
	}
	for ; idx < threads; idx++ {
		out[perm[idx]] = rng.Intn(nodes)
	}
	return out, nil
}

// capacities returns the balanced per-node thread capacities.
func capacities(threads, nodes int) []int {
	caps := make([]int, nodes)
	per := threads / nodes
	extra := threads % nodes
	for n := range caps {
		caps[n] = per
		if n < extra {
			caps[n]++
		}
	}
	return caps
}

// CapacitiesForSpeeds apportions threads to nodes proportionally to their
// CPU speeds (largest-remainder method), for the heterogeneous clusters
// the paper's §2 motivates. Every node receives at least one thread when
// threads ≥ nodes.
func CapacitiesForSpeeds(threads int, speeds []float64) ([]int, error) {
	nodes := len(speeds)
	if nodes == 0 {
		return nil, errors.New("placement: no node speeds")
	}
	var total float64
	for n, s := range speeds {
		if s <= 0 {
			return nil, fmt.Errorf("placement: node %d speed %v not positive", n, s)
		}
		total += s
	}
	caps := make([]int, nodes)
	rem := make([]float64, nodes)
	assigned := 0
	for n, s := range speeds {
		exact := float64(threads) * s / total
		caps[n] = int(exact)
		rem[n] = exact - float64(caps[n])
		assigned += caps[n]
	}
	for assigned < threads {
		best := 0
		for n := 1; n < nodes; n++ {
			if rem[n] > rem[best] {
				best = n
			}
		}
		caps[best]++
		rem[best] = -1
		assigned++
	}
	if threads >= nodes {
		// Donate from the largest node to any empty one.
		for n := range caps {
			if caps[n] > 0 {
				continue
			}
			donor := 0
			for k := 1; k < nodes; k++ {
				if caps[k] > caps[donor] {
					donor = k
				}
			}
			caps[donor]--
			caps[n]++
		}
	}
	return caps, nil
}

// StretchCapacities is Stretch with explicit per-node capacities:
// contiguous thread blocks sized by caps.
func StretchCapacities(threads int, caps []int) ([]int, error) {
	total := 0
	for _, c := range caps {
		if c < 0 {
			return nil, errors.New("placement: negative capacity")
		}
		total += c
	}
	if total != threads {
		return nil, fmt.Errorf("placement: capacities sum to %d for %d threads", total, threads)
	}
	out := make([]int, 0, threads)
	for n, c := range caps {
		for i := 0; i < c; i++ {
			out = append(out, n)
		}
	}
	return out, nil
}

// MinCostCapacities is MinCost with explicit per-node capacities.
func MinCostCapacities(m *core.Matrix, caps []int) ([]int, error) {
	threads := m.N()
	total := 0
	for _, c := range caps {
		total += c
	}
	if total != threads {
		return nil, fmt.Errorf("placement: capacities sum to %d for %d threads", total, threads)
	}
	return minCostCaps(m, caps), nil
}

// MinCost computes a balanced placement with low cut cost: agglomerative
// clustering on thread correlations (merge the pair of clusters with the
// highest inter-cluster affinity whose union still fits a node), followed
// by Kernighan–Lin-style pairwise swap refinement. The paper reports this
// family of heuristics lands within 1 % of optimal on its applications.
func MinCost(m *core.Matrix, nodes int) []int {
	return minCostCaps(m, capacities(m.N(), nodes))
}

// minCostCaps is the clustering + refinement pipeline for arbitrary
// per-node capacities.
func minCostCaps(m *core.Matrix, caps []int) []int {
	threads := m.N()
	nodes := len(caps)
	maxCap := 0
	for _, c := range caps {
		if c > maxCap {
			maxCap = c
		}
	}

	// Agglomerative phase. clusters[i] = member thread ids, each a window
	// of one members array; a merge lays the clusters out anew in the
	// spare array, so merging allocates nothing.
	members, spare := make([]int, threads), make([]int, threads)
	clusters := make([][]int, threads)
	for i := range clusters {
		members[i] = i
		clusters[i] = members[i : i+1 : i+1]
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
		// The other clusters keep their order and the merged one, bi's
		// members then bj's, goes last.
		a, b := clusters[bi], clusters[bj]
		laid, k := spare[:0], 0
		for i, cl := range clusters {
			if i != bi && i != bj {
				laid = append(laid, cl...)
				clusters[k] = laid[len(laid)-len(cl) : len(laid) : len(laid)]
				k++
			}
		}
		laid = append(append(laid, a...), b...)
		clusters[k] = laid[len(laid)-len(a)-len(b):]
		clusters = clusters[:k+1]
		members, spare = spare, members
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
	assign = rebalance(m, assign, caps)
	return Refine(m, assign)
}

// rebalance enforces node capacities by relocating the least-attached
// threads from over-full nodes to under-full ones.
func rebalance(m *core.Matrix, assign []int, caps []int) []int {
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

// Refine improves a balanced placement by greedy pairwise swaps until no
// swap reduces the cut cost (a Kernighan–Lin-style local search that
// preserves node populations).
func Refine(m *core.Matrix, assign []int) []int {
	out := append([]int(nil), assign...)
	n := m.N()
	// ext[i] = row i of one table: ext[i][node] = Σ correlation of i with
	// threads on node. A swap keeps every node's population, so the rows
	// keep their width and the swapped pair's are refilled in place.
	width := maxNode(out) + 1
	table := make([]int64, n*width)
	ext := make([][]int64, n)
	for i := range ext {
		ext[i] = table[i*width : (i+1)*width : (i+1)*width]
		fillExt(m, out, i, ext[i])
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
		fillExt(m, out, bi, ext[bi])
		fillExt(m, out, bj, ext[bj])
	}
}

// fillExt sets row[node] to the correlation of thread i with the other
// threads assign puts on node.
func fillExt(m *core.Matrix, assign []int, i int, row []int64) {
	clear(row)
	for j := 0; j < m.N(); j++ {
		if j != i {
			row[assign[j]] += m.At(i, j)
		}
	}
}

func maxNode(assign []int) int {
	mx := 0
	for _, n := range assign {
		if n > mx {
			mx = n
		}
	}
	return mx
}

// Optimal finds the balanced placement with the minimum cut cost by
// branch-and-bound. Practical up to roughly 16 threads; larger instances
// return ErrTooLarge.
func Optimal(m *core.Matrix, nodes int) ([]int, error) {
	threads := m.N()
	if threads > 16 {
		return nil, ErrTooLarge
	}
	caps := capacities(threads, nodes)
	best := append([]int(nil), Stretch(threads, nodes)...)
	best = Refine(m, best)
	bestCost := m.CutCost(best)

	assign := make([]int, threads)
	counts := make([]int, nodes)
	var dfs func(tid int, cost int64)
	dfs = func(tid int, cost int64) {
		if cost >= bestCost {
			return
		}
		if tid == threads {
			bestCost = cost
			copy(best, assign)
			return
		}
		// Symmetry breaking: a thread may open at most one new node.
		maxNodeSoFar := -1
		for i := 0; i < tid; i++ {
			if assign[i] > maxNodeSoFar {
				maxNodeSoFar = assign[i]
			}
		}
		limit := maxNodeSoFar + 1
		if limit >= nodes {
			limit = nodes - 1
		}
		for n := 0; n <= limit; n++ {
			if counts[n] >= caps[n] {
				continue
			}
			var added int64
			for i := 0; i < tid; i++ {
				if assign[i] != n {
					added += m.At(i, tid)
				}
			}
			assign[tid] = n
			counts[n]++
			dfs(tid+1, cost+added)
			counts[n]--
		}
	}
	dfs(0, 0)
	return best, nil
}

// Move is one thread migration in a reconfiguration plan.
type Move struct {
	Thread   int
	From, To int
}

// Plan computes the single round of migrations taking current to target
// after relabeling target's nodes to minimize the number of moves (cut
// cost is invariant under node relabeling, so the cheapest labeling is
// free).
func Plan(current, target []int, nodes int) []Move {
	relabeled := AlignLabels(target, current, nodes)
	var moves []Move
	for tid := range current {
		if current[tid] != relabeled[tid] {
			moves = append(moves, Move{Thread: tid, From: current[tid], To: relabeled[tid]})
		}
	}
	return moves
}

// AlignLabels permutes target's node labels to maximize agreement with
// current. For up to 8 nodes the optimal permutation is found
// exhaustively; beyond that a greedy matching is used.
func AlignLabels(target, current []int, nodes int) []int {
	// overlap[a][b] = threads target places on a that current has on b.
	overlap := make([][]int, nodes)
	for a := range overlap {
		overlap[a] = make([]int, nodes)
	}
	for tid := range target {
		overlap[target[tid]][current[tid]]++
	}
	var perm []int
	if nodes <= 8 {
		perm = bestPermutation(overlap, nodes)
	} else {
		perm = greedyPermutation(overlap, nodes)
	}
	out := make([]int, len(target))
	for tid := range target {
		out[tid] = perm[target[tid]]
	}
	return out
}

func bestPermutation(overlap [][]int, nodes int) []int {
	perm := make([]int, nodes)
	used := make([]bool, nodes)
	best := make([]int, nodes)
	for i := range best {
		best[i] = i
	}
	bestScore := -1
	var dfs func(a, score int)
	dfs = func(a, score int) {
		if a == nodes {
			if score > bestScore {
				bestScore = score
				copy(best, perm)
			}
			return
		}
		for b := 0; b < nodes; b++ {
			if used[b] {
				continue
			}
			used[b] = true
			perm[a] = b
			dfs(a+1, score+overlap[a][b])
			used[b] = false
		}
	}
	dfs(0, 0)
	return best
}

func greedyPermutation(overlap [][]int, nodes int) []int {
	perm := make([]int, nodes)
	usedA := make([]bool, nodes)
	usedB := make([]bool, nodes)
	for k := 0; k < nodes; k++ {
		ba, bb, bs := -1, -1, -1
		for a := 0; a < nodes; a++ {
			if usedA[a] {
				continue
			}
			for b := 0; b < nodes; b++ {
				if usedB[b] {
					continue
				}
				if overlap[a][b] > bs {
					ba, bb, bs = a, b, overlap[a][b]
				}
			}
		}
		perm[ba] = bb
		usedA[ba] = true
		usedB[bb] = true
	}
	return perm
}
