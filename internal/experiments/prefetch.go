package experiments

import (
	"encoding/json"
	"fmt"
	"strings"

	"actdsm/internal/apps"
	"actdsm/internal/dsm"
	"actdsm/internal/sim"
)

// PrefetchRow is one application's demand-vs-prefetch comparison: the
// same verified run twice, once demand-only and once with the
// correlation-driven prefetch + batched diff layer (DESIGN.md §7), both
// with tracking armed on iteration 1 so the protocol work is identical.
type PrefetchRow struct {
	App   string `json:"app"`
	Nodes int    `json:"nodes"`

	// DemandCalls counts remote data-movement round trips (PageRequest +
	// DiffRequest + DiffBatchRequest) in each configuration; Reduction is
	// the fractional drop.
	DemandCalls   int64   `json:"demand_calls"`
	PrefetchCalls int64   `json:"prefetch_calls"`
	Reduction     float64 `json:"reduction"`

	// Prefetch-run accounting.
	PrefetchedPages  int64 `json:"prefetched_pages"`
	PrefetchHits     int64 `json:"prefetch_hits"`
	PrefetchWasted   int64 `json:"prefetch_wasted"`
	PrefetchLate     int64 `json:"prefetch_late"`
	DiffBatchFetches int64 `json:"diff_batch_fetches"`
	BatchedDiffs     int64 `json:"batched_diffs"`

	// Elapsed virtual time of each configuration.
	DemandElapsed   sim.Time `json:"demand_elapsed"`
	PrefetchElapsed sim.Time `json:"prefetch_elapsed"`

	// PrefetchSnap is the prefetch run's full snapshot, for
	// FormatPrefetch rendering.
	PrefetchSnap dsm.Snapshot `json:"-"`
}

// PrefetchReport is the BENCH_prefetch.json schema.
type PrefetchReport struct {
	Scale   string        `json:"scale"`
	Threads int           `json:"threads"`
	Nodes   int           `json:"nodes"`
	Rows    []PrefetchRow `json:"rows"`
}

// prefetchApps is the workload pair the acceptance criterion names: a
// nearest-neighbor halo exchange (SOR) and an irregular multi-grid
// (Ocean).
var prefetchApps = []string{"SOR", "Ocean"}

// PrefetchComparison runs each application twice — demand-only and with
// prefetch + batching — under Verify, and returns the comparison rows. A
// Verify failure in either configuration surfaces as an error, and
// diverging barrier or lock counters (which would mean the layer changed
// synchronization behavior, not just data movement) do too.
func PrefetchComparison(o Options) ([]PrefetchRow, error) {
	names := o.Apps // before Defaults, which fills nil with the full paper set
	o = o.Defaults()
	if len(names) == 0 {
		names = prefetchApps
	}
	rows := make([]PrefetchRow, 0, len(names))
	for _, name := range names {
		runOne := func(prefetch bool) (*RunResult, error) {
			cfg := RunConfig{
				App:       name,
				Threads:   o.Threads,
				Nodes:     o.Nodes,
				Scale:     o.Scale,
				TrackIter: 1,
				Verify:    true,
			}
			if prefetch {
				cfg.Cluster = dsm.Config{PrefetchBudget: -1, BatchDiffs: true}
			}
			return Run(cfg)
		}
		demand, err := runOne(false)
		if err != nil {
			return nil, fmt.Errorf("%s demand: %w", name, err)
		}
		pref, err := runOne(true)
		if err != nil {
			return nil, fmt.Errorf("%s prefetch: %w", name, err)
		}
		if demand.Stats.Barriers != pref.Stats.Barriers ||
			demand.Stats.LockAcquires != pref.Stats.LockAcquires {
			return nil, fmt.Errorf(
				"%s: synchronization diverged: barriers %d vs %d, locks %d vs %d",
				name, demand.Stats.Barriers, pref.Stats.Barriers,
				demand.Stats.LockAcquires, pref.Stats.LockAcquires)
		}
		before, after := demand.Stats.DemandCalls(), pref.Stats.DemandCalls()
		row := PrefetchRow{
			App:              name,
			Nodes:            o.Nodes,
			DemandCalls:      before,
			PrefetchCalls:    after,
			PrefetchedPages:  pref.Stats.PrefetchedPages,
			PrefetchHits:     pref.Stats.PrefetchHits,
			PrefetchWasted:   pref.Stats.PrefetchWasted,
			PrefetchLate:     pref.Stats.PrefetchLate,
			DiffBatchFetches: pref.Stats.DiffBatchFetches,
			BatchedDiffs:     pref.Stats.BatchedDiffs,
			DemandElapsed:    demand.Elapsed,
			PrefetchElapsed:  pref.Elapsed,
			PrefetchSnap:     pref.Stats,
		}
		if before > 0 {
			row.Reduction = 1 - float64(after)/float64(before)
		}
		rows = append(rows, row)
	}
	return rows, nil
}

// FormatPrefetchComparison renders the comparison table plus each
// prefetch run's accounting block.
func FormatPrefetchComparison(rows []PrefetchRow) string {
	var b strings.Builder
	fmt.Fprintf(&b, "%-8s %6s  %13s %13s %10s  %12s %12s\n",
		"app", "nodes", "demand calls", "w/ prefetch", "reduction", "elapsed", "w/ prefetch")
	for _, r := range rows {
		fmt.Fprintf(&b, "%-8s %6d  %13d %13d %9.1f%%  %12d %12d\n",
			r.App, r.Nodes, r.DemandCalls, r.PrefetchCalls, 100*r.Reduction,
			int64(r.DemandElapsed), int64(r.PrefetchElapsed))
	}
	for _, r := range rows {
		fmt.Fprintf(&b, "\n-- %s prefetch accounting --\n%s", r.App, r.PrefetchSnap.FormatPrefetch())
	}
	return b.String()
}

// prefetchReport wraps the rows in the BENCH_prefetch.json schema.
func prefetchReport(o Options, rows []PrefetchRow) PrefetchReport {
	o = o.Defaults()
	scale := "test"
	if o.Scale == apps.ScalePaper {
		scale = "paper"
	}
	return PrefetchReport{Scale: scale, Threads: o.Threads, Nodes: o.Nodes, Rows: rows}
}

// PrefetchRegressionTolerance is the fractional growth in an app's
// prefetch-run demand calls the gate tolerates.
const PrefetchRegressionTolerance = 0.05

// ComparePrefetchReports checks a fresh report against a committed
// baseline: every baseline app must still be present, and its
// prefetch-run demand-call count must not regress by more than
// PrefetchRegressionTolerance. Returns a human-readable comparison and
// an error when the tolerance is exceeded.
func ComparePrefetchReports(baseline, current []byte) (string, error) {
	const tolerance = PrefetchRegressionTolerance
	var base, cur PrefetchReport
	if err := json.Unmarshal(baseline, &base); err != nil {
		return "", fmt.Errorf("baseline: %w", err)
	}
	if err := json.Unmarshal(current, &cur); err != nil {
		return "", fmt.Errorf("current: %w", err)
	}
	curByApp := make(map[string]PrefetchRow, len(cur.Rows))
	for _, r := range cur.Rows {
		curByApp[r.App] = r
	}
	var b strings.Builder
	var failures []string
	for _, br := range base.Rows {
		cr, ok := curByApp[br.App]
		if !ok {
			failures = append(failures, fmt.Sprintf("%s: missing from current report", br.App))
			continue
		}
		delta := 0.0
		if br.PrefetchCalls > 0 {
			delta = float64(cr.PrefetchCalls-br.PrefetchCalls) / float64(br.PrefetchCalls)
		}
		status := "ok"
		if delta > tolerance {
			status = "REGRESSION"
			failures = append(failures, fmt.Sprintf(
				"%s: prefetch-run demand calls %d -> %d (+%.1f%% > %.0f%% tolerance)",
				br.App, br.PrefetchCalls, cr.PrefetchCalls, 100*delta, 100*tolerance))
		}
		fmt.Fprintf(&b, "%-8s baseline %6d  current %6d  delta %+6.1f%%  %s\n",
			br.App, br.PrefetchCalls, cr.PrefetchCalls, 100*delta, status)
	}
	if len(failures) > 0 {
		return b.String(), fmt.Errorf("prefetch benchmark regression:\n  %s",
			strings.Join(failures, "\n  "))
	}
	return b.String(), nil
}
