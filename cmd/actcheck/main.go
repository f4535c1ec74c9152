// Command actcheck drives the coherence model checker (internal/check):
// it replays small deterministic workloads under seeded schedules and
// chaos plans with the LRC oracle attached, and reports the first
// invariant violation as a minimal, ready-to-paste regression test.
//
// Usage:
//
//	actcheck [-seeds N] [-scenarios a,b,c] [-mutation NAME]
//	         [-max-faults N] [-workers N] [-list] [-q] [-big-tree]
//
// A clean sweep exits 0. A failure is greedily shrunk (chaos events
// removed one at a time while the violation persists) and printed as a
// repro stanza; the exit status is 1. -mutation runs every trial under a
// deliberately broken protocol (none, no-transitivity, no-notice-dedup,
// push-partial-apply, gc-skip-last-page) to validate that the checker
// detects that bug class — used by `make check-mutations` and CI.
package main

import (
	"flag"
	"fmt"
	"os"
	"strings"

	"actdsm/internal/check"
	"actdsm/internal/dsm"
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
		mutFlag   = flag.String("mutation", "none", "protocol mutation: none, no-transitivity, no-notice-dedup, push-partial-apply, gc-skip-last-page")
		maxFaults = flag.Int("max-faults", 3, "max chaos events per generated plan")
		workers   = flag.Int("workers", 0, "parallel trials (0 = GOMAXPROCS)")
		list      = flag.Bool("list", false, "list scenarios and exit")
		quiet     = flag.Bool("q", false, "suppress progress output")
		expect    = flag.Bool("expect-failure", false, "invert the exit status: fail if the sweep is clean (mutation validation)")
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

	mut, err := parseMutation(*mutFlag)
	if err != nil {
		return err
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
		Mutation:  mut,
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
	fmt.Printf("sweep: %d trials, %d aborted, mutation=%s, %.2fs\n",
		res.Trials, res.Aborted, mut, res.Elapsed.Seconds())

	if res.Failure == nil {
		if *expect {
			return fmt.Errorf("mutation %s: sweep was clean, expected the checker to trip", mut)
		}
		fmt.Println("clean: no invariant violations")
		return nil
	}

	f := check.Shrink(res.Failure)
	fmt.Printf("FAIL: scenario %s seed %d plan %s mutation %s\n",
		f.Scenario.Name, f.Seed, f.Plan, f.Mutation)
	for _, v := range f.Violations {
		fmt.Printf("  %s\n", v)
	}
	fmt.Printf("\nminimal repro (paste into internal/check):\n\n%s\n", f.ReproStanza())
	if *expect {
		fmt.Printf("mutation %s detected as expected\n", mut)
		return nil
	}
	os.Exit(1)
	return nil
}

func parseMutation(s string) (dsm.Mutation, error) {
	for _, m := range []dsm.Mutation{
		dsm.MutationNone, dsm.MutationNoTransitivity,
		dsm.MutationNoNoticeDedup, dsm.MutationPushPartialApply,
		dsm.MutationGCSkipLastPage,
	} {
		if m.String() == s {
			return m, nil
		}
	}
	return 0, fmt.Errorf("unknown mutation %q (want none, no-transitivity, no-notice-dedup, push-partial-apply, or gc-skip-last-page)", s)
}
