package main

// The three sections that are not part of the paper: each observes the
// protocol at work rather than reproducing a table.

import (
	"bytes"
	"fmt"
	"os"
	"strings"

	"actdsm"
	"actdsm/internal/check"
)

// runSOR runs one deterministic SOR workload to completion; the caller
// closes the returned system.
func runSOR(threads, nodes int, scale actdsm.Scale, opts ...actdsm.SystemOption) (*actdsm.System, error) {
	app, err := actdsm.NewApp("SOR", actdsm.AppConfig{Threads: threads, Scale: scale})
	if err != nil {
		return nil, err
	}
	sys, err := actdsm.NewSystem(app, nodes, opts...)
	if err != nil {
		return nil, err
	}
	if err := sys.Run(); err != nil {
		_ = sys.Close()
		return nil, err
	}
	return sys, nil
}

// observedSOR runs SOR with the observability recorder enabled and
// renders its per-epoch breakdown; traceOut and metricsOut optionally
// receive the Perfetto timeline and the metrics dump of the same run. A
// timeline the event ring truncated is still written, then reported as
// an error (Recorder.WriteTrace), so a partial trace never passes for a
// whole one.
func observedSOR(threads, nodes int, scale actdsm.Scale, traceOut, metricsOut string) (string, error) {
	sys, err := runSOR(threads, nodes, scale,
		actdsm.WithObservability(),
		actdsm.WithClusterConfig(actdsm.ClusterConfig{BatchDiffs: true, PrefetchBudget: -1}),
	)
	if err != nil {
		return "", err
	}
	defer func() { _ = sys.Close() }()
	rec := sys.Recorder()
	out := rec.Breakdown().String()
	if traceOut != "" {
		var buf bytes.Buffer
		traceErr := rec.WriteTrace(&buf)
		if err := os.WriteFile(traceOut, buf.Bytes(), 0o644); err != nil {
			return "", err
		}
		if traceErr != nil {
			return "", fmt.Errorf("%s: %w", traceOut, traceErr)
		}
		out += fmt.Sprintf("(wrote %s — open in ui.perfetto.dev)\n", traceOut)
	}
	if metricsOut != "" {
		var buf bytes.Buffer
		if err := rec.WriteMetrics(sys.Cluster().Stats().Snapshot(), &buf); err != nil {
			return "", err
		}
		if err := os.WriteFile(metricsOut, buf.Bytes(), 0o644); err != nil {
			return "", err
		}
		out += fmt.Sprintf("(wrote %s)\n", metricsOut)
	}
	return out, nil
}

// checkSweep runs a short coherence model-checker sweep (DESIGN.md §8)
// across every checker scenario: seeded schedules under seeded chaos
// plans with the LRC oracle attached. Any violation is shrunk to a
// minimal repro and fails the section. Use cmd/actcheck for longer
// sweeps and mutation validation.
func checkSweep(scale actdsm.Scale) (string, error) {
	seeds := 50
	if scale == actdsm.ScalePaper {
		seeds = 1000
	}
	res, err := check.Sweep(check.SweepConfig{Seeds: seeds})
	if err != nil {
		return "", err
	}
	if res.Failure != nil {
		f := check.Shrink(res.Failure)
		return "", fmt.Errorf("coherence violation (minimal repro below)\n%s", f.ReproStanza())
	}
	return fmt.Sprintf("%d trials across %d scenarios, %d aborted, %.2fs\nclean: no invariant violations\n",
		res.Trials, len(check.Scenarios()), res.Aborted, res.Elapsed.Seconds()), nil
}

// transportStats runs SOR over each transport and renders the
// per-message-type call table: counts, wire bytes, retries, and latency
// quantiles. It exercises the resilience layer (DESIGN.md §6) and shows
// where protocol time goes.
func transportStats(threads, nodes int, scale actdsm.Scale) (string, error) {
	var b strings.Builder
	retry := actdsm.WithTransportOptions(actdsm.TransportOptions{MaxAttempts: 3})
	for _, tr := range []struct {
		name string
		opts []actdsm.SystemOption
	}{
		{"local", []actdsm.SystemOption{retry}},
		{"tcp", []actdsm.SystemOption{retry, actdsm.WithTCP()}},
	} {
		sys, err := runSOR(threads, nodes, scale, tr.opts...)
		if err != nil {
			return "", fmt.Errorf("%s transport: %w", tr.name, err)
		}
		fmt.Fprintf(&b, "-- %s transport --\n%s", tr.name, sys.Cluster().Stats().Snapshot().FormatCalls())
		_ = sys.Close()
	}
	return b.String(), nil
}
