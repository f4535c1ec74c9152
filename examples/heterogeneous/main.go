// Heterogeneous: the paper's §2 motivation for unequal thread counts —
// "Unequal numbers of threads might be desirable in the presence of
// heterogeneous node capacity, whether due to competing applications or
// simply because some machines are faster than others."
//
// A four-node cluster where node 0 is 3× faster runs SOR under three
// placements: balanced stretch (ignores speeds), capacity-proportional
// stretch (more threads on the fast node), and capacity-aware min-cost
// (capacity-proportional and sharing-aware, from a tracked correlation
// matrix).
package main

import (
	"fmt"
	"os"

	"actdsm"
)

const (
	threads = 32
	nodes   = 4
	iters   = 8
)

var speeds = []float64{3, 1, 1, 1}

// topology describes the hardware: a node's compute scale is a cost
// multiplier, the inverse of its speed. The links stay uniform.
func topology() *actdsm.Topology {
	t := actdsm.NewTopology(nodes, actdsm.DefaultCosts())
	for n, s := range speeds {
		t.SetComputeScale(n, 1/s)
	}
	return t
}

func main() {
	if err := run(); err != nil {
		fmt.Fprintln(os.Stderr, "heterogeneous:", err)
		os.Exit(1)
	}
}

func runWith(placement []int) (actdsm.Time, int64, error) {
	app, err := actdsm.NewApp("SOR", actdsm.AppConfig{
		Threads: threads, Iterations: iters, Verify: true,
	})
	if err != nil {
		return 0, 0, err
	}
	sys, err := actdsm.NewSystem(app, nodes, actdsm.WithConfig(actdsm.SystemConfig{
		Cluster:   actdsm.ClusterConfig{Topology: topology()},
		Placement: placement,
	}))
	if err != nil {
		return 0, 0, err
	}
	defer func() { _ = sys.Close() }()
	if err := sys.Run(); err != nil {
		return 0, 0, err
	}
	return sys.Elapsed(), sys.Cluster().Stats().Snapshot().RemoteMisses, nil
}

func run() error {
	// Thread correlations from a quick tracked run (homogeneous — the
	// sharing pattern does not depend on node speeds).
	m, err := actdsm.TrackMatrix("SOR", threads, nodes, actdsm.ScaleTest)
	if err != nil {
		return err
	}
	caps, err := actdsm.CapacitiesForSpeeds(threads, speeds)
	if err != nil {
		return err
	}
	capStretch, err := actdsm.StretchCapacities(threads, caps)
	if err != nil {
		return err
	}
	capMinCost, err := actdsm.MinCostCapacities(m, caps)
	if err != nil {
		return err
	}

	fmt.Printf("cluster: node speeds %v → capacities %v\n\n", speeds, caps)
	fmt.Printf("%-28s  %12s  %12s  %10s\n", "placement", "time (ms)", "remote miss", "cut cost")
	for _, cfg := range []struct {
		label  string
		assign []int
	}{
		{"balanced stretch", actdsm.Stretch(threads, nodes)},
		{"capacity stretch", capStretch},
		{"capacity min-cost", capMinCost},
	} {
		elapsed, misses, err := runWith(cfg.assign)
		if err != nil {
			return fmt.Errorf("%s: %w", cfg.label, err)
		}
		fmt.Printf("%-28s  %12.3f  %12d  %10d\n",
			cfg.label, elapsed.Seconds()*1e3, misses, m.CutCost(cfg.assign))
	}
	fmt.Println("\nBalanced placement leaves the fast node idle at every barrier;")
	fmt.Println("capacity-proportional placement uses it, and the sharing-aware")
	fmt.Println("variant keeps neighbouring threads together at the same time.")
	return nil
}
