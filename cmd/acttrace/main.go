// Command acttrace records a page-access trace from an application run,
// analyzes a saved trace offline, or replays one against a cluster.
//
// Usage:
//
//	acttrace record -app Water -threads 16 -nodes 4 -out water.trace
//	acttrace info   -in water.trace [-iter 1]
//	acttrace replay -in water.trace -nodes 8 [-protocol sw]
package main

import (
	"flag"
	"fmt"
	"os"

	"actdsm"
)

func main() {
	if err := run(); err != nil {
		fmt.Fprintln(os.Stderr, "acttrace:", err)
		os.Exit(1)
	}
}

func run() error {
	if len(os.Args) < 2 {
		return fmt.Errorf("usage: acttrace record|info|replay [flags]")
	}
	switch os.Args[1] {
	case "record":
		return record(os.Args[2:])
	case "info":
		return info(os.Args[2:])
	case "replay":
		return replay(os.Args[2:])
	default:
		return fmt.Errorf("unknown subcommand %q", os.Args[1])
	}
}

func record(args []string) error {
	fs := flag.NewFlagSet("record", flag.ContinueOnError)
	app := fs.String("app", "Water", "application name")
	threads := fs.Int("threads", 16, "application threads")
	nodes := fs.Int("nodes", 4, "cluster nodes")
	scale := fs.String("scale", "test", "input scale: test or paper")
	out := fs.String("out", "app.trace", "output file")
	if err := fs.Parse(args); err != nil {
		return err
	}
	sc := actdsm.ScaleTest
	if *scale == "paper" {
		sc = actdsm.ScalePaper
	}
	a, err := actdsm.NewApp(*app, actdsm.AppConfig{Threads: *threads, Scale: sc})
	if err != nil {
		return err
	}
	sys, err := actdsm.NewSystem(a, *nodes)
	if err != nil {
		return err
	}
	defer func() { _ = sys.Close() }()
	rec := actdsm.NewRecorder(sys.Engine())
	if err := sys.SetHooks(rec.Hooks(actdsm.Hooks{})); err != nil {
		return err
	}
	if err := sys.Run(); err != nil {
		return err
	}
	tr := rec.Trace()
	if err := os.WriteFile(*out, tr.Encode(), 0o644); err != nil {
		return err
	}
	fmt.Printf("recorded %d events over %d iterations (%d threads, %d pages) to %s\n",
		len(tr.Events), tr.Iterations, tr.Threads, tr.Pages, *out)
	return nil
}

func info(args []string) error {
	fs := flag.NewFlagSet("info", flag.ContinueOnError)
	in := fs.String("in", "app.trace", "trace file")
	iter := fs.Int("iter", -1, "restrict to one iteration (-1 = all)")
	nodes := fs.Int("nodes", 4, "nodes for cut-cost analysis")
	if err := fs.Parse(args); err != nil {
		return err
	}
	b, err := os.ReadFile(*in)
	if err != nil {
		return err
	}
	tr, err := actdsm.DecodeTrace(b)
	if err != nil {
		return err
	}
	fmt.Printf("%s: %d threads, %d pages, %d iterations, %d events\n",
		*in, tr.Threads, tr.Pages, tr.Iterations, len(tr.Events))
	m := tr.Matrix(*iter)
	s := actdsm.Summarize(m)
	fmt.Printf("total sharing %d, diagonal %.0f%%, background %.0f%% of pairs\n",
		m.TotalSharing(), 100*s.DiagonalFrac, 100*s.BackgroundFrac)
	fmt.Print(m.RenderASCII())
	mc := actdsm.MinCost(m, *nodes)
	st := actdsm.Stretch(tr.Threads, *nodes)
	fmt.Printf("cut costs on %d nodes: stretch %d, min-cost %d\n",
		*nodes, m.CutCost(st), m.CutCost(mc))
	return nil
}

func replay(args []string) error {
	fs := flag.NewFlagSet("replay", flag.ContinueOnError)
	in := fs.String("in", "app.trace", "trace file")
	nodes := fs.Int("nodes", 4, "cluster nodes")
	proto := fs.String("protocol", "mw", "coherence protocol: mw or sw")
	prefetch := fs.Int("prefetch", 0, "prefetch budget in pages/node/round (0 off, <0 unlimited)")
	batch := fs.Bool("batch", false, "coalesce diff fetches per writer node")
	tcp := fs.Bool("tcp", false, "replay over loopback TCP")
	if err := fs.Parse(args); err != nil {
		return err
	}
	b, err := os.ReadFile(*in)
	if err != nil {
		return err
	}
	tr, err := actdsm.DecodeTrace(b)
	if err != nil {
		return err
	}
	p := actdsm.MultiWriter
	if *proto == "sw" {
		p = actdsm.SingleWriter
	}
	cfg := actdsm.SystemConfig{Cluster: actdsm.ClusterConfig{
		Protocol:       p,
		PrefetchBudget: *prefetch,
		BatchDiffs:     *batch,
		UseTCP:         *tcp,
	}}
	stats, elapsed, err := actdsm.ReplayTrace(tr, *nodes, actdsm.WithConfig(cfg))
	if err != nil {
		return err
	}
	fmt.Printf("replayed on %d nodes (%s): %.4f simulated s, %d remote misses, %.2f MB\n",
		*nodes, *proto, elapsed.Seconds(), stats.RemoteMisses, float64(stats.BytesTotal)/1e6)
	if *prefetch != 0 || *batch {
		fmt.Print(stats.FormatPrefetch())
	}
	return nil
}
