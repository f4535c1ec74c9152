package experiments

// Serving ablation: the BENCH_serving.json generator and regression
// gate. One closed-loop KV serving run (internal/serve) per placement
// configuration, all on the same workload — a tenant-grouped zipfian
// read-mostly mix whose group structure the default block placement
// splits across every node (client c belongs to group c mod Groups
// while blocks of consecutive clients share a node):
//
//   - static: the default placement, untouched for the whole run.
//   - mincost: active correlation tracking over window 0, then one
//     min-cost re-placement at the first window boundary — groups
//     co-locate before the measurement span opens, so a PUT's acquirer
//     more often is, or sits beside, the stripe's last holder.
//
// Every number is virtual-time deterministic, so the gate both bounds
// drift against the committed baseline and asserts the headline claim
// of the serving experiment: min-cost placement beats static placement
// on p99 latency and throughput.

import (
	"encoding/json"
	"fmt"
	"strings"

	"actdsm/internal/dsm"
	"actdsm/internal/placement"
	"actdsm/internal/serve"
	"actdsm/internal/sim"
	"actdsm/internal/system"
	"actdsm/internal/threads"
)

// ServingRow is one placement configuration's measurements.
type ServingRow struct {
	// Config names the placement variant: static or mincost.
	Config string `json:"config"`

	QPS  float64  `json:"qps"`
	P50  sim.Time `json:"p50"`
	P99  sim.Time `json:"p99"`
	P999 sim.Time `json:"p999"`

	Requests     int64    `json:"requests"`
	RemoteMisses int64    `json:"remote_misses"`
	LockAcquires int64    `json:"lock_acquires"`
	LockForwards int64    `json:"lock_forwards"`
	Elapsed      sim.Time `json:"elapsed"`
}

// ServingReport is the BENCH_serving.json schema.
type ServingReport struct {
	Clients      int          `json:"clients"`
	Nodes        int          `json:"nodes"`
	Keys         int          `json:"keys"`
	ReadFraction float64      `json:"read_fraction"`
	ZipfS        float64      `json:"zipf_s"`
	Rows         []ServingRow `json:"rows"`
}

// servingBenchNodes is the ablation's cluster size.
const servingBenchNodes = 4

// servingBenchConfig is the workload every variant runs: 16 clients in
// 4 tenant groups over 256 keys at 512 bytes each (8 keys per page, 32
// pages), read-mostly zipfian with 10% cross-group sharing, 2 warmup +
// 4 measured windows at saturation.
func servingBenchConfig() serve.Config {
	return serve.Config{
		Clients:           16,
		Keys:              256,
		ValueBytes:        512,
		ReadFraction:      0.9,
		ZipfS:             1.1,
		Groups:            4,
		SharedFraction:    0.1,
		RequestsPerWindow: 64,
		WarmupWindows:     2,
		MeasureWindows:    4,
		Seed:              7,
	}
}

// servingVariant describes one ablation leg.
type servingVariant struct {
	name    string
	replace bool // min-cost re-placement after the tracked window
}

// runServing executes one serving run under the given variant and
// returns its row. The migration hook is a user hook, so the tracker
// wraps it (System.RunContext's order) and its window-0 matrix is
// complete when the hook fires at the first window boundary.
func runServing(v servingVariant) (ServingRow, error) {
	row := ServingRow{Config: v.name}
	kv, err := serve.NewKV(servingBenchConfig())
	if err != nil {
		return row, fmt.Errorf("serving %s: %w", v.name, err)
	}
	sys, err := system.NewSystem(kv, servingBenchNodes, system.WithConfig(system.SystemConfig{Cluster: dsm.Config{BatchDiffs: true}}))
	if err != nil {
		return row, fmt.Errorf("serving %s: %w", v.name, err)
	}
	defer func() { _ = sys.Close() }()
	if v.replace {
		tr, _ := sys.TrackIteration(0) // cannot fail before Run
		eng := sys.Engine()
		_ = sys.SetHooks(threads.Hooks{OnIteration: func(iter int) { // nor this
			if iter != 0 {
				return
			}
			target := placement.MinCost(tr.Matrix(), servingBenchNodes)
			aligned := placement.AlignLabels(target, eng.Placement(), servingBenchNodes)
			if _, err := eng.ApplyPlacement(aligned); err != nil {
				panic(fmt.Sprintf("serving %s: apply placement: %v", v.name, err))
			}
		}})
	}
	if err := sys.Run(); err != nil {
		return row, fmt.Errorf("serving %s: %w", v.name, err)
	}
	rep, err := kv.Report()
	if err != nil {
		return row, fmt.Errorf("serving %s: %w", v.name, err)
	}
	row.QPS = rep.QPS
	row.P50, row.P99, row.P999 = rep.P50, rep.P99, rep.P999
	row.Requests = rep.Requests
	row.RemoteMisses = rep.RemoteMisses
	row.LockAcquires = rep.LockAcquires
	row.LockForwards = rep.LockForwards
	row.Elapsed = rep.Elapsed
	return row, nil
}

// ServingComparison measures every placement variant on the shared
// workload and assembles the report.
func ServingComparison() (ServingReport, error) {
	cfg := servingBenchConfig()
	rep := ServingReport{
		Clients:      cfg.Clients,
		Nodes:        servingBenchNodes,
		Keys:         cfg.Keys,
		ReadFraction: cfg.ReadFraction,
		ZipfS:        cfg.ZipfS,
	}
	variants := []servingVariant{
		{name: "static"},
		{name: "mincost", replace: true},
	}
	for _, v := range variants {
		row, err := runServing(v)
		if err != nil {
			return rep, err
		}
		rep.Rows = append(rep.Rows, row)
	}
	return rep, nil
}

// servingRow returns the named row, or nil.
func servingRow(r ServingReport, name string) *ServingRow {
	for i := range r.Rows {
		if r.Rows[i].Config == name {
			return &r.Rows[i]
		}
	}
	return nil
}

// FormatServingReport renders the comparison for the actbench section.
func FormatServingReport(r ServingReport) string {
	var b strings.Builder
	fmt.Fprintf(&b, "KV serving, %d clients / %d nodes, %d keys, %.0f%% reads, zipf s=%.1f:\n",
		r.Clients, r.Nodes, r.Keys, r.ReadFraction*100, r.ZipfS)
	fmt.Fprintf(&b, "%-10s %12s %10s %10s %10s %10s %9s\n",
		"config", "QPS", "p50", "p99", "p999", "misses", "lockfwd")
	for _, row := range r.Rows {
		fmt.Fprintf(&b, "%-10s %12.0f %10v %10v %10v %10d %9d\n",
			row.Config, row.QPS, row.P50, row.P99, row.P999,
			row.RemoteMisses, row.LockForwards)
	}
	if s, m := servingRow(r, "static"), servingRow(r, "mincost"); s != nil && m != nil && s.P99 > 0 {
		fmt.Fprintf(&b, "mincost p99 is %.2fx static (gate: < 1.0)\n",
			float64(m.P99)/float64(s.P99))
	}
	return b.String()
}

// ServingRegressionTolerance bounds the gate: each variant's fresh QPS
// must stay within 5% below its committed baseline and fresh p99 within
// 5% above it. The run is virtual-time deterministic, so any drift is a
// real behavior change — the margin only keeps intentional small
// protocol refinements from forcing a baseline regeneration.
const ServingRegressionTolerance = 0.05

// CompareServingReports validates a fresh report against the committed
// baseline: per-variant QPS and p99 within tolerance, and the serving
// experiment's headline property — min-cost placement beats static
// placement on p99 and QPS — must hold in the fresh measurements.
func CompareServingReports(baseline, current []byte) (string, error) {
	var base, cur ServingReport
	if err := json.Unmarshal(baseline, &base); err != nil {
		return "", fmt.Errorf("baseline: %w", err)
	}
	if err := json.Unmarshal(current, &cur); err != nil {
		return "", fmt.Errorf("current: %w", err)
	}
	var b strings.Builder
	var failures []string
	for _, br := range base.Rows {
		cr := servingRow(cur, br.Config)
		if cr == nil {
			failures = append(failures, fmt.Sprintf("variant %q missing from current report", br.Config))
			continue
		}
		fmt.Fprintf(&b, "%-10s QPS %.0f -> %.0f, p99 %v -> %v\n",
			br.Config, br.QPS, cr.QPS, br.P99, cr.P99)
		if cr.QPS < br.QPS*(1-ServingRegressionTolerance) {
			failures = append(failures, fmt.Sprintf(
				"%s throughput regressed: %.0f QPS vs baseline %.0f (tolerance %.0f%%)",
				br.Config, cr.QPS, br.QPS, ServingRegressionTolerance*100))
		}
		if br.P99 > 0 && cr.P99 > sim.Time(float64(br.P99)*(1+ServingRegressionTolerance)) {
			failures = append(failures, fmt.Sprintf(
				"%s p99 regressed: %v vs baseline %v (tolerance %.0f%%)",
				br.Config, cr.P99, br.P99, ServingRegressionTolerance*100))
		}
	}
	s, m := servingRow(cur, "static"), servingRow(cur, "mincost")
	switch {
	case s == nil || m == nil:
		failures = append(failures, "current report lacks the static/mincost pair")
	case m.P99 >= s.P99:
		failures = append(failures, fmt.Sprintf(
			"min-cost placement no longer beats static placement on p99: %v vs %v", m.P99, s.P99))
	case m.QPS <= s.QPS:
		failures = append(failures, fmt.Sprintf(
			"min-cost placement no longer beats static placement on throughput: %.0f vs %.0f QPS", m.QPS, s.QPS))
	}
	if len(failures) > 0 {
		return b.String(), fmt.Errorf("serving benchmark regression:\n  %s",
			strings.Join(failures, "\n  "))
	}
	return b.String(), nil
}
