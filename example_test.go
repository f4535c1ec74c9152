package actdsm_test

import (
	"fmt"

	"actdsm"
)

// Cut costs compare candidate thread placements: the aggregate
// correlation of thread pairs split across nodes.
func ExampleMatrix_CutCost() {
	// A ring of four threads, each sharing 10 pages with its successor.
	m := actdsm.NewMatrix(4)
	for i := 0; i < 4; i++ {
		m.Set(i, (i+1)%4, 10)
	}
	contiguous := []int{0, 0, 1, 1} // neighbours together
	alternating := []int{0, 1, 0, 1}
	fmt.Println(m.CutCost(contiguous), m.CutCost(alternating))
	// Output: 20 40
}

// Stretch divides threads into contiguous equal blocks — the paper's
// simplest placement heuristic.
func ExampleStretch() {
	fmt.Println(actdsm.Stretch(8, 4))
	fmt.Println(actdsm.Stretch(7, 3))
	// Output:
	// [0 0 1 1 2 2 3 3]
	// [0 0 0 1 1 2 2]
}

// MinCost groups threads by affinity; on block-structured sharing it
// recovers the blocks exactly.
func ExampleMinCost() {
	// Two heavy 2-thread blocks.
	m := actdsm.NewMatrix(4)
	m.Set(0, 1, 100)
	m.Set(2, 3, 100)
	m.Set(1, 2, 1) // light background
	assign := actdsm.MinCost(m, 2)
	fmt.Println(assign[0] == assign[1], assign[2] == assign[3], assign[0] != assign[2])
	fmt.Println(m.CutCost(assign))
	// Output:
	// true true true
	// 1
}

// CapacitiesForSpeeds sizes per-node thread counts for heterogeneous
// clusters (paper §2's motivation for unequal thread counts).
func ExampleCapacitiesForSpeeds() {
	caps, _ := actdsm.CapacitiesForSpeeds(16, []float64{3, 1})
	fmt.Println(caps)
	// Output: [12 4]
}

// Plan computes the single round of migrations between two placements,
// relabeling nodes first so equivalent placements need no moves at all.
func ExamplePlan() {
	current := []int{0, 0, 1, 1}
	relabeled := []int{1, 1, 0, 0} // same grouping, different labels
	fmt.Println(len(actdsm.Plan(current, relabeled, 2)))
	different := []int{0, 1, 0, 1}
	fmt.Println(len(actdsm.Plan(current, different, 2)))
	// Output:
	// 0
	// 2
}

// The README quickstart: track one iteration of SOR on a 4-node cluster,
// then compare the min-cost placement's cut cost with stretch's. (The
// quickstart also prints m.RenderASCII(), left out here: the map's rows
// end in spaces, which an Output block cannot hold.) The run is in
// virtual time, so the tracked pages, and the cut costs, are the same on
// every run.
func ExampleNewSystem() {
	app, _ := actdsm.NewApp("SOR", actdsm.AppConfig{Threads: 32, Verify: true})
	sys, _ := actdsm.NewSystem(app, 4) // 4-node DSM cluster
	defer sys.Close()

	tracker, _ := sys.TrackIteration(1) // active correlation tracking
	if err := sys.Run(); err != nil {
		fmt.Println(err)
		return
	}

	m := tracker.Matrix()        // thread correlations
	best := actdsm.MinCost(m, 4) // placement from cut costs
	fmt.Println(m.CutCost(best), m.CutCost(actdsm.Stretch(32, 4)))
	// Output: 6 6
}
