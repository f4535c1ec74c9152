// Placement: reconfigure a *running* application through thread
// migration (paper §5). The FFT starts under a deliberately bad random
// placement; active correlation tracking runs on one iteration; the
// min-cost heuristic derives a better mapping from the cut costs; and a
// single round of migrations applies it mid-run. Per-iteration times and
// remote misses before and after show the effect.
package main

import (
	"fmt"
	"os"

	"actdsm"
)

func main() {
	if err := run(); err != nil {
		fmt.Fprintln(os.Stderr, "placement:", err)
		os.Exit(1)
	}
}

func run() error {
	const (
		threads = 64
		nodes   = 8
		iters   = 8
	)
	app, err := actdsm.NewApp("FFT7", actdsm.AppConfig{
		Threads: threads, Iterations: iters, Verify: true,
	})
	if err != nil {
		return err
	}
	// Start from a random placement — the situation after threads have
	// been created with no sharing knowledge.
	bad := actdsm.RandomBalanced(threads, nodes, actdsm.NewRNG(7))
	sys, err := actdsm.NewSystem(app, nodes, actdsm.WithConfig(actdsm.SystemConfig{Placement: bad}))
	if err != nil {
		return err
	}
	defer func() { _ = sys.Close() }()

	tracker, err := sys.TrackIteration(1)
	if err != nil {
		return err
	}
	eng := sys.Engine()
	cl := sys.Cluster()

	var iterTimes []actdsm.Time
	var iterMisses []int64
	var last actdsm.Time
	lastStats := cl.Stats().Snapshot()
	migratedAt := -1

	err = sys.SetHooks(actdsm.Hooks{OnIteration: func(iter int) {
		now := eng.Elapsed()
		cur := cl.Stats().Snapshot()
		iterTimes = append(iterTimes, now-last)
		iterMisses = append(iterMisses, cur.Sub(lastStats).RemoteMisses)
		last, lastStats = now, cur

		// As soon as tracking has completed, compute the min-cost
		// mapping and migrate everything in one round.
		if tracker.Done() && migratedAt < 0 {
			m := tracker.Matrix()
			target := actdsm.MinCost(m, nodes)
			aligned := actdsm.AlignLabels(target, eng.Placement(), nodes)
			moves, err := eng.ApplyPlacement(aligned)
			if err != nil {
				fmt.Fprintln(os.Stderr, "migration failed:", err)
				return
			}
			migratedAt = iter
			fmt.Printf("iteration %d: tracked; cut cost %d (random) -> %d (min-cost); migrated %d threads\n\n",
				iter, m.CutCost(bad), m.CutCost(aligned), moves)
		}
	}})
	if err != nil {
		return err
	}

	if err := sys.Run(); err != nil {
		return err
	}

	fmt.Printf("%-5s  %12s  %12s\n", "iter", "time (ms)", "remote miss")
	for i := range iterTimes {
		marker := ""
		switch {
		case i == 1:
			marker = "  <- tracked iteration"
		case i == migratedAt+1:
			marker = "  <- first iteration after migration"
		}
		fmt.Printf("%-5d  %12.3f  %12d%s\n",
			i, iterTimes[i].Seconds()*1e3, iterMisses[i], marker)
	}

	// Quantify the improvement over the steady states (iteration 0 vs a
	// mid-run iteration after migration; the final iteration also pays
	// run-teardown costs and would understate the gain).
	if migratedAt >= 0 && migratedAt+3 < len(iterTimes) {
		before := iterTimes[0]
		after := iterTimes[len(iterTimes)-2]
		fmt.Printf("\nsteady-state iteration time: %.3f ms before, %.3f ms after (%.2fx)\n",
			before.Seconds()*1e3, after.Seconds()*1e3,
			float64(before)/float64(after))
	}
	return nil
}
