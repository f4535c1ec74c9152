// Command actrun executes one application under a chosen placement policy
// and prints run statistics — a quick way to compare placements.
//
// Usage:
//
//	actrun -app LU1k [-threads 64] [-nodes 8] [-iters 5]
//	       [-placement stretch|mincost|random] [-scale test|paper]
//	       [-seed N] [-verify] [-tcp]
//	       [-trace-out FILE] [-metrics-out FILE] [-breakdown]
//
// The mincost policy first runs a short tracked execution to obtain
// thread correlations, then derives the placement with the min-cost
// heuristic (paper §5.1).
//
// -trace-out, -metrics-out, and -breakdown enable the observability
// recorder (DESIGN.md §9) and export the run's Perfetto timeline, a
// Prometheus-style metrics dump, and the per-epoch time breakdown. A
// timeline the event ring truncated is still written, then fails the
// run (Recorder.WriteTrace).
package main

import (
	"flag"
	"fmt"
	"io"
	"os"

	"actdsm"
)

func main() {
	if err := run(); err != nil {
		fmt.Fprintln(os.Stderr, "actrun:", err)
		os.Exit(1)
	}
}

func run() error {
	var (
		app       = flag.String("app", "SOR", "application name")
		threads   = flag.Int("threads", 64, "application threads")
		nodes     = flag.Int("nodes", 8, "cluster nodes")
		iters     = flag.Int("iters", 5, "iterations to run")
		policy    = flag.String("placement", "stretch", "stretch, mincost, or random")
		scaleFlag = flag.String("scale", "test", "input scale: test or paper")
		seed      = flag.Uint64("seed", 1, "seed for the random policy")
		verify    = flag.Bool("verify", false, "enable numerical verification")
		useTCP    = flag.Bool("tcp", false, "run the DSM protocol over loopback TCP")
		traceOut  = flag.String("trace-out", "", "write a Perfetto/Chrome trace-event JSON timeline to this file")
		metricOut = flag.String("metrics-out", "", "write a Prometheus-style metrics dump to this file")
		breakdown = flag.Bool("breakdown", false, "print the per-epoch time breakdown")
	)
	flag.Parse()
	observe := *traceOut != "" || *metricOut != "" || *breakdown

	scale := actdsm.ScaleTest
	if *scaleFlag == "paper" {
		scale = actdsm.ScalePaper
	} else if *scaleFlag != "test" {
		return fmt.Errorf("unknown scale %q", *scaleFlag)
	}

	var assign []int
	var cut int64 = -1
	switch *policy {
	case "stretch":
		assign = actdsm.Stretch(*threads, *nodes)
	case "random":
		assign = actdsm.RandomBalanced(*threads, *nodes, actdsm.NewRNG(*seed))
	case "mincost":
		m, err := actdsm.TrackMatrix(*app, *threads, *nodes, scale)
		if err != nil {
			return fmt.Errorf("tracking run: %w", err)
		}
		assign = actdsm.MinCost(m, *nodes)
		cut = m.CutCost(assign)
	default:
		return fmt.Errorf("unknown placement policy %q", *policy)
	}

	appInst, err := actdsm.NewApp(*app, actdsm.AppConfig{
		Threads: *threads, Iterations: *iters, Verify: *verify, Scale: scale,
	})
	if err != nil {
		return err
	}
	opts := []actdsm.SystemOption{actdsm.WithPlacement(assign)}
	if *useTCP {
		opts = append(opts, actdsm.WithTCP())
	}
	if observe {
		opts = append(opts, actdsm.WithObservability())
	}
	sys, err := actdsm.NewSystem(appInst, *nodes, opts...)
	if err != nil {
		return err
	}
	defer func() { _ = sys.Close() }()
	if err := sys.Run(); err != nil {
		return err
	}

	st := sys.Cluster().Stats().Snapshot()
	fmt.Printf("%s  threads=%d nodes=%d iters=%d placement=%s\n",
		*app, *threads, *nodes, sys.Engine().Iteration(), *policy)
	if cut >= 0 {
		fmt.Printf("  cut cost        %d\n", cut)
	}
	fmt.Printf("  simulated time  %.4f s\n", sys.Elapsed().Seconds())
	fmt.Printf("  remote misses   %d\n", st.RemoteMisses)
	fmt.Printf("  messages        %d\n", st.Messages)
	fmt.Printf("  total bytes     %.2f MB\n", float64(st.BytesTotal)/1e6)
	fmt.Printf("  diff bytes      %.2f MB\n", float64(st.BytesDiff)/1e6)
	fmt.Printf("  barriers        %d\n", st.Barriers)
	fmt.Printf("  lock acquires   %d\n", st.LockAcquires)
	fmt.Printf("  gc rounds       %d (pages collected %d)\n", st.GCRounds, st.GCCollections)

	if observe {
		rec := sys.Recorder()
		if *breakdown {
			fmt.Printf("\nper-epoch breakdown:\n%s", rec.Breakdown().String())
		}
		if *traceOut != "" {
			if err := writeWith(*traceOut, rec.WriteTrace); err != nil {
				return fmt.Errorf("%s: %w", *traceOut, err)
			}
			fmt.Printf("(wrote %s — open in ui.perfetto.dev)\n", *traceOut)
		}
		if *metricOut != "" {
			err := writeWith(*metricOut, func(w io.Writer) error {
				return rec.WriteMetrics(st, w)
			})
			if err != nil {
				return err
			}
			fmt.Printf("(wrote %s)\n", *metricOut)
		}
	}
	return nil
}

// writeWith creates path, streams through f, and closes it.
func writeWith(path string, f func(io.Writer) error) error {
	file, err := os.Create(path)
	if err != nil {
		return err
	}
	if err := f(file); err != nil {
		_ = file.Close()
		return err
	}
	return file.Close()
}
