package experiments

import (
	"strings"
	"testing"
)

// TestServingComparison runs the full serving ablation once and asserts
// the properties the bench gate depends on, so a workload or protocol
// change that breaks the committed BENCH_serving.json invariants fails
// in tier-1 tests, not only in make bench-compare.
func TestServingComparison(t *testing.T) {
	rep, err := ServingComparison()
	if err != nil {
		t.Fatal(err)
	}
	if len(rep.Rows) != 2 {
		t.Fatalf("got %d rows, want 2: %+v", len(rep.Rows), rep.Rows)
	}
	cfg := servingBenchConfig()
	wantReqs := int64(cfg.Clients * cfg.RequestsPerWindow * cfg.MeasureWindows)
	for _, row := range rep.Rows {
		if row.Requests != wantReqs {
			t.Errorf("%s measured %d requests, want %d", row.Config, row.Requests, wantReqs)
		}
		if row.QPS <= 0 || row.P50 <= 0 || row.P99 < row.P50 || row.P999 < row.P99 {
			t.Errorf("%s has malformed latency figures: %+v", row.Config, row)
		}
	}
	s, m := servingRow(rep, "static"), servingRow(rep, "mincost")
	if s == nil || m == nil {
		t.Fatalf("missing variant row: %+v", rep.Rows)
	}
	// The ablation's point: correlation-driven co-location cuts remote
	// misses and converts that into better throughput AND a better tail
	// than static placement.
	if m.RemoteMisses >= s.RemoteMisses {
		t.Errorf("min-cost placement did not reduce misses: %d vs static %d",
			m.RemoteMisses, s.RemoteMisses)
	}
	if m.P99 >= s.P99 {
		t.Errorf("mincost p99 %v not below static %v", m.P99, s.P99)
	}
	if m.QPS <= s.QPS {
		t.Errorf("mincost QPS %.0f not above static %.0f", m.QPS, s.QPS)
	}
	if m.LockForwards == 0 {
		t.Errorf("mincost leg pulled no lock history: %+v", *m)
	}

	// The gate accepts its own fresh report.
	js, err := reportJSON(rep)
	if err != nil {
		t.Fatal(err)
	}
	summary, err := CompareServingReports(js, js)
	if err != nil {
		t.Fatalf("self-comparison failed: %v\n%s", err, summary)
	}
	for _, name := range []string{"static", "mincost"} {
		if !strings.Contains(summary, name) {
			t.Errorf("comparison summary omits %s:\n%s", name, summary)
		}
	}
}
