package experiments

// Placement-v2 ablation: the BENCH_placement.json generator and
// regression gate. Two workloads — an epoch application (Ocean) from a
// deliberately scattered placement and the closed-loop KV serving mix —
// each run over the same heterogeneous FastSlowTopology under four
// controller configurations:
//
//   - static: no controller; placement and homes stay wherever they
//     started (plus the protocol's defaults).
//   - thread: controller with the data side disabled (HomeBudget 0) —
//     online thread re-placement only.
//   - data: controller with the thread side disabled (ThreadBudget 0) —
//     online page-home moves only.
//   - combined: both sides on, the placement-v2 co-orchestration.
//
// Every variant starts from the same scattered placement and runs the
// identical workload in virtual time, so the rows are deterministic and
// the gate can assert the tentpole's headline claim: co-orchestrating
// threads and page homes beats either side alone on at least one
// workload.

import (
	"encoding/json"
	"fmt"
	"strings"

	"actdsm/internal/apps"
	"actdsm/internal/dsm"
	"actdsm/internal/placement"
	"actdsm/internal/serve"
	"actdsm/internal/sim"
	"actdsm/internal/system"
	"actdsm/internal/threads"
)

// PlacementRow is one controller configuration's measurements on one
// workload. QPS/P99 are zero for the epoch-application leg.
type PlacementRow struct {
	Config string `json:"config"`

	Elapsed      sim.Time `json:"elapsed"`
	DemandCalls  int64    `json:"demand_calls"`
	RemoteMisses int64    `json:"remote_misses"`

	QPS float64  `json:"qps,omitempty"`
	P99 sim.Time `json:"p99,omitempty"`

	Triggers    int64 `json:"triggers"`
	Applied     int64 `json:"applied"`
	Skipped     int64 `json:"skipped"`
	ThreadMoves int64 `json:"thread_moves"`
	HomeMoves   int64 `json:"home_moves"`
}

// PlacementWorkload is one workload's ablation rows.
type PlacementWorkload struct {
	Workload string         `json:"workload"`
	Rows     []PlacementRow `json:"rows"`
}

// PlacementReport is the BENCH_placement.json schema.
type PlacementReport struct {
	Nodes     int                 `json:"nodes"`
	Workloads []PlacementWorkload `json:"workloads"`
}

// placementBenchNodes is the ablation's cluster size.
const placementBenchNodes = 4

// placementBenchTopology is the heterogeneous network every leg runs
// over: every second node slow (2x compute, 4x link cost), so both
// which threads co-reside and where pages are homed carry real cost.
func placementBenchTopology() *sim.Topology {
	return sim.FastSlowTopology(placementBenchNodes, sim.DefaultCosts(), 2, 2, 4)
}

// placementVariant describes one ablation leg's controller budgets.
type placementVariant struct {
	name         string
	controller   bool
	threadBudget int
	homeBudget   int
}

func placementVariants() []placementVariant {
	return []placementVariant{
		{name: "static"},
		{name: "thread", controller: true, threadBudget: -1, homeBudget: 0},
		{name: "data", controller: true, threadBudget: 0, homeBudget: -1},
		{name: "combined", controller: true, threadBudget: -1, homeBudget: -1},
	}
}

// placementCtlConfig is the controller policy every non-static variant
// runs: evaluate every other iteration with zero hysteresis (the
// ablation wants the sides' full effect, not the damped production
// policy) and continuous re-tracking.
func placementCtlConfig(v placementVariant) placement.ControllerConfig {
	return placement.ControllerConfig{
		Period:       2,
		Hysteresis:   0,
		ThreadBudget: v.threadBudget,
		HomeBudget:   v.homeBudget,
		Smoothing:    0.5,
		Retrack:      true,
	}
}

// fillControllerStats copies the controller decision counters into the
// row.
func fillControllerStats(row *PlacementRow, snap dsm.Snapshot) {
	row.Triggers = snap.PlacementTriggers
	row.Applied = snap.PlacementApplied
	row.Skipped = snap.PlacementSkipped
	row.ThreadMoves = snap.PlacementThreadMoves
	row.HomeMoves = snap.PlacementHomeMoves
}

// placementLegs are the ablation's two workloads, each built fresh for
// every variant with the SystemConfig it runs under; track is the window
// the controller tracks first.
//
//   - ocean: the epoch application, 16 threads on 4 nodes, started from
//     a deterministic scattered placement so the thread side has
//     headroom.
//   - serving: the BENCH_serving workload (16 clients, 4 tenant groups)
//     under block placement; home moves, when present, come from the
//     controller.
var placementLegs = []struct {
	name  string
	track int
	build func() (threads.Workload, system.SystemConfig, error)
}{
	{"ocean", 1, func() (threads.Workload, system.SystemConfig, error) {
		const nthreads = 16
		app, err := apps.New("Ocean", apps.Config{Threads: nthreads, Iterations: 10})
		return app, system.SystemConfig{
			Cluster: dsm.Config{
				BatchDiffs: true,
				Topology:   placementBenchTopology(),
				// Aggressive GC keeps diff consolidation — and the
				// post-GC refaults of invalidated copies — in the
				// measured steady state, the traffic the data side's
				// home moves eliminate (a page homed at its writer
				// consolidates and refaults locally).
				GCThresholdBytes: 4096,
			},
			Placement: placement.RandomBalanced(nthreads, placementBenchNodes, sim.NewRNG(11)),
		}, err
	}},
	{"serving", 0, func() (threads.Workload, system.SystemConfig, error) {
		kv, err := serve.NewKV(servingBenchConfig())
		return kv, system.SystemConfig{
			Cluster: dsm.Config{BatchDiffs: true, Topology: placementBenchTopology()},
		}, err
	}},
}

// runPlacement measures one controller variant on one workload over the
// heterogeneous topology. A serving workload's row reports its
// measurement span: elapsed time, QPS and p99.
func runPlacement(app threads.Workload, cfg system.SystemConfig, track int, v placementVariant) (PlacementRow, error) {
	row := PlacementRow{Config: v.name}
	if v.controller {
		ctl := placementCtlConfig(v)
		cfg.Controller = &ctl
	}
	sys, err := system.NewSystem(app, placementBenchNodes, system.WithConfig(cfg))
	if err != nil {
		return row, fmt.Errorf("placement %s: %w", v.name, err)
	}
	defer func() { _ = sys.Close() }()
	if v.controller {
		_, _ = sys.TrackIteration(track) // cannot fail before Run
	}
	if err := sys.Run(); err != nil {
		return row, fmt.Errorf("placement %s: %w", v.name, err)
	}
	row.Elapsed = sys.Elapsed()
	if kv, ok := app.(*serve.KV); ok {
		rep, err := kv.Report()
		if err != nil {
			return row, fmt.Errorf("placement %s: %w", v.name, err)
		}
		row.Elapsed, row.QPS, row.P99 = rep.Elapsed, rep.QPS, rep.P99
	}
	snap := sys.Cluster().Stats().Snapshot()
	row.DemandCalls = snap.DemandCalls()
	row.RemoteMisses = snap.RemoteMisses
	fillControllerStats(&row, snap)
	return row, nil
}

// PlacementComparison runs the full static / thread / data / combined
// ablation on both workloads and assembles the report.
func PlacementComparison() (PlacementReport, error) {
	rep := PlacementReport{Nodes: placementBenchNodes}
	for _, leg := range placementLegs {
		w := PlacementWorkload{Workload: leg.name}
		for _, v := range placementVariants() {
			app, cfg, err := leg.build()
			if err != nil {
				return rep, fmt.Errorf("placement %s: %w", v.name, err)
			}
			row, err := runPlacement(app, cfg, leg.track, v)
			if err != nil {
				return rep, err
			}
			w.Rows = append(w.Rows, row)
		}
		rep.Workloads = append(rep.Workloads, w)
	}
	return rep, nil
}

// placementRow returns the named row of the named workload, or nil.
func placementRow(r PlacementReport, workload, config string) *PlacementRow {
	for i := range r.Workloads {
		if r.Workloads[i].Workload != workload {
			continue
		}
		for j := range r.Workloads[i].Rows {
			if r.Workloads[i].Rows[j].Config == config {
				return &r.Workloads[i].Rows[j]
			}
		}
	}
	return nil
}

// FormatPlacementReport renders the ablation for the actbench section.
func FormatPlacementReport(r PlacementReport) string {
	var b strings.Builder
	fmt.Fprintf(&b, "Placement v2 ablation, %d nodes, fast/slow topology:\n", r.Nodes)
	for _, w := range r.Workloads {
		fmt.Fprintf(&b, "%s:\n", w.Workload)
		fmt.Fprintf(&b, "  %-10s %12s %10s %10s %10s %8s %8s %8s\n",
			"config", "elapsed", "calls", "misses", "p99", "applied", "tmoves", "hmoves")
		for _, row := range w.Rows {
			p99 := "-"
			if row.P99 > 0 {
				p99 = fmt.Sprintf("%v", row.P99)
			}
			fmt.Fprintf(&b, "  %-10s %12v %10d %10d %10s %8d %8d %8d\n",
				row.Config, row.Elapsed, row.DemandCalls, row.RemoteMisses, p99,
				row.Applied, row.ThreadMoves, row.HomeMoves)
		}
	}
	if ws := placementHeadlineWorkloads(r); len(ws) > 0 {
		fmt.Fprintf(&b, "combined beats thread-only and data-only on: %s\n",
			strings.Join(ws, ", "))
	}
	return b.String()
}

// placementHeadlineWorkloads lists the workloads on which the combined
// variant strictly beats both single-sided variants — on demand calls
// for epoch legs, on demand calls or p99 for serving legs.
func placementHeadlineWorkloads(r PlacementReport) []string {
	var out []string
	for _, w := range r.Workloads {
		th := placementRow(r, w.Workload, "thread")
		da := placementRow(r, w.Workload, "data")
		co := placementRow(r, w.Workload, "combined")
		if th == nil || da == nil || co == nil {
			continue
		}
		callsWin := co.DemandCalls < th.DemandCalls && co.DemandCalls < da.DemandCalls
		p99Win := co.P99 > 0 && th.P99 > 0 && da.P99 > 0 && co.P99 < th.P99 && co.P99 < da.P99
		if callsWin || p99Win {
			out = append(out, w.Workload)
		}
	}
	return out
}

// PlacementRegressionTolerance bounds the gate: each row's fresh
// elapsed time and demand calls must stay within 5% above the committed
// baseline. The runs are virtual-time deterministic, so drift is a real
// behavior change; the margin only absorbs intentional small protocol
// refinements.
const PlacementRegressionTolerance = 0.05

// ComparePlacementReports validates a fresh ablation against the
// committed baseline: per-row elapsed and demand calls within
// tolerance, and the placement-v2 headline — the combined controller
// strictly beats both thread-only and data-only on at least one
// workload (demand calls, or p99 for serving) — must hold in the fresh
// measurements.
func ComparePlacementReports(baseline, current []byte) (string, error) {
	var base, cur PlacementReport
	if err := json.Unmarshal(baseline, &base); err != nil {
		return "", fmt.Errorf("baseline: %w", err)
	}
	if err := json.Unmarshal(current, &cur); err != nil {
		return "", fmt.Errorf("current: %w", err)
	}
	var b strings.Builder
	var failures []string
	for _, bw := range base.Workloads {
		for _, br := range bw.Rows {
			cr := placementRow(cur, bw.Workload, br.Config)
			if cr == nil {
				failures = append(failures, fmt.Sprintf(
					"%s/%s missing from current report", bw.Workload, br.Config))
				continue
			}
			fmt.Fprintf(&b, "%-8s %-10s elapsed %v -> %v, calls %d -> %d\n",
				bw.Workload, br.Config, br.Elapsed, cr.Elapsed, br.DemandCalls, cr.DemandCalls)
			if cr.Elapsed > sim.Time(float64(br.Elapsed)*(1+PlacementRegressionTolerance)) {
				failures = append(failures, fmt.Sprintf(
					"%s/%s elapsed regressed: %v vs baseline %v (tolerance %.0f%%)",
					bw.Workload, br.Config, cr.Elapsed, br.Elapsed, PlacementRegressionTolerance*100))
			}
			if float64(cr.DemandCalls) > float64(br.DemandCalls)*(1+PlacementRegressionTolerance) {
				failures = append(failures, fmt.Sprintf(
					"%s/%s demand calls regressed: %d vs baseline %d (tolerance %.0f%%)",
					bw.Workload, br.Config, cr.DemandCalls, br.DemandCalls, PlacementRegressionTolerance*100))
			}
		}
	}
	if ws := placementHeadlineWorkloads(cur); len(ws) == 0 {
		failures = append(failures,
			"combined no longer beats both thread-only and data-only on any workload")
	}
	if len(failures) > 0 {
		return b.String(), fmt.Errorf("placement benchmark regression:\n  %s",
			strings.Join(failures, "\n  "))
	}
	return b.String(), nil
}
