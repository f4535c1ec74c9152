// Command actcheck drives the coherence model checker (internal/check):
// it replays small deterministic workloads under seeded schedules and
// chaos plans with the LRC oracle attached, and reports the first
// invariant violation as a minimal, ready-to-paste regression test.
//
// Usage:
//
//	actcheck [-seeds N] [-scenarios a,b,c] [-max-faults N]
//	         [-workers N] [-list] [-q] [-big-tree]
//
// A clean sweep exits 0. A failure is greedily shrunk (chaos events
// removed one at a time while the violation persists) and printed as a
// repro stanza; the exit status is 1. The checker is validated against
// deliberately broken protocols kept as patches under
// internal/check/testdata/mutations: `make check-mutations` applies each
// to a copy of the module and requires the sweeps its header names to
// fail with the violation it expects.
package main

import (
	"flag"
	"fmt"
	"os"
	"strings"

	"actdsm/internal/check"
)

func main() {
	if err := run(); err != nil {
		fmt.Fprintln(os.Stderr, "actcheck:", err)
		os.Exit(1)
	}
}

func run() error {
	var (
		seeds     = flag.Int("seeds", 200, "schedules to replay per scenario")
		scens     = flag.String("scenarios", "", "comma-separated scenario subset (default: all)")
		maxFaults = flag.Int("max-faults", 3, "max chaos events per generated plan")
		workers   = flag.Int("workers", 0, "parallel trials (0 = GOMAXPROCS)")
		list      = flag.Bool("list", false, "list scenarios and exit")
		quiet     = flag.Bool("q", false, "suppress progress output")
		big       = flag.Bool("big-tree", false, "sweep the large simulated-cluster set (64-node tree barriers) instead of the default scenarios")
	)
	flag.Parse()

	if *list {
		for _, sc := range append(check.Scenarios(), check.BigTreeScenarios()...) {
			fmt.Printf("%-14s %s x%d, %d threads on %d nodes\n",
				sc.Name, sc.App, sc.Iterations, sc.Threads, sc.Nodes)
		}
		return nil
	}

	var scenarios []check.Scenario
	if *big {
		scenarios = check.BigTreeScenarios()
	}
	if *scens != "" {
		scenarios = nil
		for _, name := range strings.Split(*scens, ",") {
			sc, err := check.ScenarioByName(strings.TrimSpace(name))
			if err != nil {
				return err
			}
			scenarios = append(scenarios, sc)
		}
	}

	cfg := check.SweepConfig{
		Scenarios: scenarios,
		Seeds:     *seeds,
		MaxFaults: *maxFaults,
		Workers:   *workers,
	}
	if !*quiet {
		cfg.Progress = func(done, total int) {
			if done%50 == 0 || done == total {
				fmt.Fprintf(os.Stderr, "\ractcheck: %d/%d trials", done, total)
				if done == total {
					fmt.Fprintln(os.Stderr)
				}
			}
		}
	}

	res, err := check.Sweep(cfg)
	if err != nil {
		return err
	}
	fmt.Printf("sweep: %d trials, %d aborted, %.2fs\n",
		res.Trials, res.Aborted, res.Elapsed.Seconds())

	if res.Failure == nil {
		fmt.Println("clean: no invariant violations")
		return nil
	}

	f := check.Shrink(res.Failure)
	fmt.Printf("FAIL: scenario %s seed %d plan %s\n", f.Scenario.Name, f.Seed, f.Plan)
	for _, v := range f.Violations {
		fmt.Printf("  %s\n", v)
	}
	fmt.Printf("\nminimal repro (paste into internal/check):\n\n%s\n", f.ReproStanza())
	os.Exit(1)
	return nil
}
