// Tuning: use correlation maps as a performance-tuning aid (paper §3 and
// Figure 3). For the 32-thread FFT, compare how much of the sharing stays
// inside the "free zones" of a four-node versus an eight-node
// configuration, then validate the prediction by running both.
package main

import (
	"fmt"
	"os"

	"actdsm"
)

func main() {
	if err := run(); err != nil {
		fmt.Fprintln(os.Stderr, "tuning:", err)
		os.Exit(1)
	}
}

func run() error {
	const threads = 32

	// Track once to obtain the correlation map.
	m, err := actdsm.TrackMatrix("FFT6", threads, 4, actdsm.ScaleTest)
	if err != nil {
		return err
	}

	fmt.Println("FFT, 32 threads — free zones ('O' = sharing inside a node):")
	for _, nodes := range []int{4, 8} {
		assign := actdsm.Stretch(threads, nodes)
		fmt.Printf("\n%d nodes: cut cost %d, %.1f%% of sharing is free\n%s",
			nodes, m.CutCost(assign), 100*m.FreeSharing(assign),
			m.FreeZoneOverlay(assign))
	}

	// The map alone cannot decide which is faster (paper §3: "not
	// enough information without running both") — so run both.
	fmt.Println("\nvalidating by running both configurations:")
	for _, nodes := range []int{4, 8} {
		res, err := actdsm.Run(actdsm.RunConfig{
			App: "FFT6", Threads: threads, Nodes: nodes,
			Iterations: 4, TrackIter: -1,
		})
		if err != nil {
			return err
		}
		// Steady-state iteration time (skip the cold start).
		var steady actdsm.Time
		for _, t := range res.IterTime[1:] {
			steady += t
		}
		steady /= actdsm.Time(len(res.IterTime) - 1)
		fmt.Printf("  %d nodes: %.3f ms/iteration, %d remote misses total\n",
			nodes, steady.Seconds()*1e3, res.Stats.RemoteMisses)
	}
	fmt.Println("\nMore nodes add compute but break sharing clusters apart;")
	fmt.Println("whether 8 nodes beats 4 depends on the communication/computation")
	fmt.Println("ratio — exactly the trade-off the paper's Figure 3 illustrates.")

	return sweepPrefetchBudget()
}

// sweepPrefetchBudget tunes the second knob correlation data feeds: the
// per-node, per-epoch page budget of the prefetch layer (DESIGN.md §7).
// Budget 0 is demand-only; -1 is unbounded. A small budget captures most
// of the round-trip savings on a regular workload; past the app's
// per-epoch sharing set, extra budget buys nothing and only risks wasted
// prefetches (pages invalidated before first touch).
func sweepPrefetchBudget() error {
	const app, threads, nodes = "Ocean", 64, 8
	fmt.Printf("\nprefetch-budget sweep (%s, %d threads, %d nodes, tracked):\n", app, threads, nodes)
	fmt.Printf("  %8s %13s %6s %7s %6s %6s %12s\n",
		"budget", "demand calls", "hits", "wasted", "late", "rounds", "elapsed")
	for _, budget := range []int{0, 1, 2, 4, 8, -1} {
		res, err := actdsm.Run(actdsm.RunConfig{
			App: app, Threads: threads, Nodes: nodes,
			TrackIter: 1,
			Cluster:   actdsm.ClusterConfig{PrefetchBudget: budget, BatchDiffs: budget != 0},
		})
		if err != nil {
			return err
		}
		s := res.Stats
		label := fmt.Sprint(budget)
		if budget < 0 {
			label = "∞"
		}
		fmt.Printf("  %8s %13d %6d %7d %6d %6d %12d\n",
			label, s.DemandCalls(), s.PrefetchHits, s.PrefetchWasted,
			s.PrefetchLate, s.PrefetchRounds, int64(res.Elapsed))
	}
	fmt.Println("\nThe knob maps to ClusterConfig.PrefetchBudget on the System API")
	fmt.Println("(paired with ClusterConfig.BatchDiffs to coalesce the fetches).")
	return nil
}
