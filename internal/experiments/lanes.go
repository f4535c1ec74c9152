package experiments

import "encoding/json"

// Lane is one deterministic benchmark lane: a virtual-time or
// message-count measurement whose report is byte-stable, committed as
// Artifact at the repository root, and gated by Compare. cmd/actbench
// and TestLanes both drive every lane through this table.
type Lane struct {
	// Name is the actbench -only section; Title its heading.
	Name, Title string
	// Artifact is the committed report's file name.
	Artifact string
	// Run measures the lane, returning the human-readable table and the
	// Artifact bytes. Only the prefetch lane reads the Options (scale,
	// threads, nodes, apps); the others have fixed shapes.
	Run func(Options) (text string, report []byte, err error)
	// Compare checks a fresh report against a baseline, returning a
	// summary and an error naming each regression.
	Compare func(baseline, current []byte) (string, error)
}

// Lanes returns the deterministic lanes in actbench order.
func Lanes() []Lane {
	return []Lane{
		{
			Name:     "prefetch",
			Title:    "Prefetch: demand vs correlation-driven prefetch + batching",
			Artifact: "BENCH_prefetch.json",
			Run: func(o Options) (string, []byte, error) {
				rows, err := PrefetchComparison(o)
				if err != nil {
					return "", nil, err
				}
				js, err := reportJSON(prefetchReport(o, rows))
				return FormatPrefetchComparison(rows), js, err
			},
			Compare: ComparePrefetchReports,
		},
		{
			Name:     "managers",
			Title:    "Managers: flat vs tree barrier, centralized vs sharded locks",
			Artifact: "BENCH_managers.json",
			Run:      laneRun(ManagersComparison, FormatManagersReport),
			Compare:  CompareManagersReports,
		},
		{
			Name:     "serving",
			Title:    "Serving: KV workload under static/min-cost placement",
			Artifact: "BENCH_serving.json",
			Run:      laneRun(ServingComparison, FormatServingReport),
			Compare:  CompareServingReports,
		},
		{
			Name:     "placement",
			Title:    "Placement v2: static/thread/data/combined controller ablation",
			Artifact: "BENCH_placement.json",
			Run:      laneRun(PlacementComparison, FormatPlacementReport),
			Compare:  ComparePlacementReports,
		},
		{
			Name:     "failover",
			Title:    "Failover: crash recovery vs fault-free baseline",
			Artifact: "BENCH_failover.json",
			Run:      laneRun(FailoverComparison, FormatFailoverReport),
			Compare:  CompareFailoverReports,
		},
		{
			Name:     "transport",
			Title:    "Transport: uniform vs fast/slow topology, per-link traffic",
			Artifact: "BENCH_transport.json",
			Run:      laneRun(TransportComparison, FormatTransportReport),
			Compare:  CompareTransportReports,
		},
	}
}

// laneRun adapts a fixed-shape lane's measure and format functions to
// Lane.Run.
func laneRun[R any](measure func() (R, error), format func(R) string) func(Options) (string, []byte, error) {
	return func(Options) (string, []byte, error) {
		rep, err := measure()
		if err != nil {
			return "", nil, err
		}
		js, err := reportJSON(rep)
		return format(rep), js, err
	}
}

// reportJSON marshals a lane report the way the artifacts are committed:
// two-space indent, trailing newline.
func reportJSON(rep any) ([]byte, error) {
	out, err := json.MarshalIndent(rep, "", "  ")
	if err != nil {
		return nil, err
	}
	return append(out, '\n'), nil
}
