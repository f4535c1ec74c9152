// Chaos: run an application over a deliberately unreliable transport and
// watch the resilience machinery absorb the faults. A Chaos wrapper drops
// requests and replies, duplicates deliveries, and delays calls; bounded
// retry with exponential backoff (ClusterConfig.Transport) recovers, and the
// per-message-type call statistics show exactly where the retries went.
//
// The punchline is the comparison at the end: despite every injected
// fault, the chaotic run's protocol counters — remote misses, diffs,
// barriers, GC — are identical to a fault-free run. Lost messages cost
// retries and latency, never correctness or duplicated work.
//
// Run with -tcp to route the same experiment over real loopback sockets.
package main

import (
	"flag"
	"fmt"
	"os"
	"time"

	"actdsm"
)

func main() {
	if err := run(); err != nil {
		fmt.Fprintln(os.Stderr, "chaos:", err)
		os.Exit(1)
	}
}

func run() error {
	useTCP := flag.Bool("tcp", false, "route DSM messages over loopback TCP")
	seed := flag.Uint64("seed", 7, "fault-schedule seed")
	flag.Parse()

	const threads, nodes = 16, 4

	measure := func(chaotic bool) (actdsm.Snapshot, error) {
		app, err := actdsm.NewApp("SOR", actdsm.AppConfig{Threads: threads})
		if err != nil {
			return actdsm.Snapshot{}, err
		}
		cfg := actdsm.ClusterConfig{
			Transport: actdsm.TransportOptions{
				CallTimeout: 2 * time.Second,
				MaxAttempts: 8,
				BackoffBase: 100 * time.Microsecond,
			},
			UseTCP: *useTCP,
		}
		if chaotic {
			cfg.Chaos = &actdsm.ChaosOptions{
				Seed:            *seed,
				DropRequestProb: 0.05,
				DropReplyProb:   0.02,
				DuplicateProb:   0.02,
				DelayProb:       0.01,
				Delay:           200 * time.Microsecond,
			}
		}
		sys, err := actdsm.NewSystem(app, nodes, actdsm.WithConfig(actdsm.SystemConfig{Cluster: cfg}))
		if err != nil {
			return actdsm.Snapshot{}, err
		}
		defer func() { _ = sys.Close() }()
		if err := sys.Run(); err != nil {
			return actdsm.Snapshot{}, err
		}
		if err := sys.Cluster().CheckCoherence(); err != nil {
			return actdsm.Snapshot{}, fmt.Errorf("coherence check: %w", err)
		}
		return sys.Cluster().Stats().Snapshot(), nil
	}

	transportName := "local"
	if *useTCP {
		transportName = "TCP"
	}
	fmt.Printf("SOR, %d threads on %d nodes, %s transport\n\n", threads, nodes, transportName)

	clean, err := measure(false)
	if err != nil {
		return err
	}
	fmt.Printf("fault-free run:\n%s\n", clean.FormatCalls())

	chaotic, err := measure(true)
	if err != nil {
		return fmt.Errorf("chaotic run did not recover: %w", err)
	}
	fmt.Printf("chaotic run (5%% dropped requests, 2%% dropped replies, "+
		"2%% duplicates, 1%% delays):\n%s\n", chaotic.FormatCalls())

	var retries int64
	for _, c := range chaotic.Calls {
		retries += c.Retries
	}
	fmt.Printf("retries spent absorbing faults: %d\n", retries)

	a, b := chaotic.Counters(), clean.Counters()
	if a == b {
		fmt.Println("protocol counters identical to the fault-free run: no duplicated")
		fmt.Println("misses, diffs, barriers, or GC work — the protocol is idempotent")
		fmt.Println("under retry (DESIGN.md §6).")
	} else {
		return fmt.Errorf("protocol counters diverged:\nchaotic: %+v\nclean:   %+v", a, b)
	}
	return nil
}
