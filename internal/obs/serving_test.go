package obs_test

// Serving exporter acceptance: the ServeMetricsText dump must cover
// 100% of serve.Report's fields, each exactly once — the same contract
// TestMetricsCoverSnapshot enforces for dsm.Snapshot — measured on a
// real (tiny) serving run through the facade.

import (
	"bytes"
	"context"
	"fmt"
	"reflect"
	"strings"
	"testing"

	"actdsm"
	"actdsm/internal/obs"
)

// servedReport runs one small closed-loop serving benchmark.
func servedReport(t *testing.T) *actdsm.ServeReport {
	t.Helper()
	rep, err := actdsm.ServeKV(context.Background(), 2, actdsm.ServingConfig{
		Clients:           4,
		Keys:              32,
		RequestsPerWindow: 8,
		MeasureWindows:    2,
	})
	if err != nil {
		t.Fatalf("ServeKV: %v", err)
	}
	return rep
}

func TestServeMetricsCoverReport(t *testing.T) {
	rep := servedReport(t)
	var buf bytes.Buffer
	if err := actdsm.ServeMetricsText(*rep, &buf); err != nil {
		t.Fatalf("ServeMetricsText: %v", err)
	}
	text := buf.String()
	if strings.Contains(text, "# UNHANDLED") {
		t.Fatalf("serving dump contains unhandled report fields:\n%s", text)
	}

	countHelp := func(metric string) int {
		return strings.Count(text, "# HELP "+metric+" ")
	}
	rt := reflect.TypeOf(*rep)
	rv := reflect.ValueOf(*rep)
	simTime := reflect.TypeOf(rep.Elapsed)
	for i := 0; i < rt.NumField(); i++ {
		f := rt.Field(i)
		switch {
		case f.Name == "Workload":
			if !strings.Contains(text, fmt.Sprintf("actdsm_serve_info{workload=%q} 1", rep.Workload)) {
				t.Errorf("info metric missing workload %q", rep.Workload)
			}
		case f.Name == "Calls":
			if got := countHelp("actdsm_serve_calls_total"); got != 1 {
				t.Errorf("calls metric appears %d times, want exactly 1", got)
			}
			if len(rep.Calls) == 0 {
				t.Error("serving run produced no transport calls to cover")
			}
			for _, c := range rep.Calls {
				if !strings.Contains(text, fmt.Sprintf("actdsm_serve_calls_total{kind=%q} %d", c.Kind, c.Count)) {
					t.Errorf("call kind %s missing from dump", c.Kind)
				}
			}
		case f.Type == simTime:
			name := obs.ServeTimeName(f.Name)
			if got := countHelp(name); got != 1 {
				t.Errorf("field %s: time gauge %s appears %d times, want exactly 1", f.Name, name, got)
			}
		case f.Type.Kind() == reflect.Int64:
			name := obs.ServeMetricName(f.Name)
			if got := countHelp(name); got != 1 {
				t.Errorf("field %s: counter %s appears %d times, want exactly 1", f.Name, name, got)
			}
			want := fmt.Sprintf("\n%s %d\n", name, rv.Field(i).Int())
			if !strings.Contains(text, want) {
				t.Errorf("field %s: sample line %q missing", f.Name, strings.TrimSpace(want))
			}
		case f.Type.Kind() == reflect.Int || f.Type.Kind() == reflect.Float64:
			name := obs.ServeGaugeName(f.Name)
			if got := countHelp(name); got != 1 {
				t.Errorf("field %s: gauge %s appears %d times, want exactly 1", f.Name, name, got)
			}
		case f.Type.Kind() == reflect.Array:
			if got := countHelp("actdsm_serve_latency_seconds"); got != 1 {
				t.Errorf("latency histogram appears %d times, want exactly 1", got)
			}
			if !strings.Contains(text, "actdsm_serve_latency_seconds_bucket{le=\"+Inf\"}") {
				t.Error("latency histogram lacks +Inf bucket")
			}
			if !strings.Contains(text, fmt.Sprintf("actdsm_serve_latency_seconds_count %d", rep.Requests)) {
				t.Errorf("latency histogram count does not match Requests %d", rep.Requests)
			}
		default:
			t.Errorf("report field %s has unrecognized shape %s: teach the dump and this test", f.Name, f.Type.Kind())
		}
	}
}

// TestServeReportSane pins the stable result type's basic invariants on
// a real run.
func TestServeReportSane(t *testing.T) {
	rep := servedReport(t)
	if rep.Workload != "ServeKV" {
		t.Errorf("workload %q", rep.Workload)
	}
	if want := int64(4 * 8 * 2); rep.Requests != want {
		t.Errorf("requests %d, want %d", rep.Requests, want)
	}
	if rep.Reads+rep.Writes != rep.Requests {
		t.Errorf("reads %d + writes %d != requests %d", rep.Reads, rep.Writes, rep.Requests)
	}
	if rep.QPS <= 0 || rep.Elapsed <= 0 {
		t.Errorf("throughput not measured: qps %v elapsed %v", rep.QPS, rep.Elapsed)
	}
	if rep.P50 > rep.P99 || rep.P99 > rep.P999 || rep.P999 > rep.MaxLatency {
		t.Errorf("quantiles not monotone: %v %v %v %v", rep.P50, rep.P99, rep.P999, rep.MaxLatency)
	}
	var histSum int64
	for _, n := range rep.LatencyHist {
		histSum += n
	}
	if histSum != rep.Requests {
		t.Errorf("latency histogram holds %d samples, want %d", histSum, rep.Requests)
	}
}
