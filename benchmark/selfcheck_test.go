package benchmark

// The package's tests: the benchmark checking itself on millisecond-sized
// inputs. `go test ./...` in this directory runs only these.

import (
	"bytes"
	"encoding/json"
	"math"
	"os"
	"reflect"
	"regexp"
	"strings"
	"testing"
)

// TestTracingChangesNothingVirtual runs every workload untraced and
// traced on one seed. Both are runs of the same inputs, so everything on
// the virtual clock must repeat exactly — same protocol counters, same
// elapsed time, same per-iteration times — tracing or not. The traced
// round's span buckets must also tile its measured wall time.
func TestTracingChangesNothingVirtual(t *testing.T) {
	for i := range workloads {
		w := &workloads[i]
		t.Run(w.name, func(t *testing.T) {
			plain, _ := runRound(w, scaleTest, 7, false)
			traced, tr := runRound(w, scaleTest, 7, true)
			if plain.err != nil || traced.err != nil {
				t.Fatalf("untraced: %v, traced: %v", plain.err, traced.err)
			}
			if plain.final != traced.final {
				t.Errorf("counters differ:\nuntraced %+v\ntraced   %+v", plain.final, traced.final)
			}
			if plain.elapsed != traced.elapsed {
				t.Errorf("elapsed: untraced %d, traced %d", plain.elapsed, traced.elapsed)
			}
			if !reflect.DeepEqual(plain.iterSimNS, traced.iterSimNS) {
				t.Errorf("per-iteration virtual time: untraced %v, traced %v", plain.iterSimNS, traced.iterSimNS)
			}
			if w.serving && (plain.serve.P99 != traced.serve.P99 || plain.serve.Elapsed != traced.serve.Elapsed) {
				t.Errorf("serve report: untraced p99 %d over %d, traced p99 %d over %d",
					plain.serve.P99, plain.serve.Elapsed, traced.serve.P99, traced.serve.Elapsed)
			}

			a := traced.trace
			within := func(what string, got, want int64) {
				t.Helper()
				if math.Abs(float64(got-want)) > 0.02*float64(want) {
					t.Errorf("%s = %d ns, want %d ns within 2%%", what, got, want)
				}
			}
			within("slice self + epoch_tail self + rpc + epoch self + iter self",
				a.sliceSelfNS+a.tailSelfNS+a.rpcUnionNS+a.epochSelfNS+a.iterSelfNS, a.wallNS)
			within("sum of iter spans vs the harness's measured span", a.wallNS, traced.wallNS)
			if a.slices == 0 || len(a.rpcNS) == 0 || a.touches == 0 {
				t.Errorf("tracer saw %d slices, %d calls, %d page touches; want all > 0", a.slices, len(a.rpcNS), a.touches)
			}

			var buf bytes.Buffer
			if err := tr.writeSpans(&buf, w.name, 7); err != nil {
				t.Fatal(err)
			}
			var file struct {
				Spans []struct {
					Name               string
					Start, End, Parent int64
				}
			}
			if err := json.Unmarshal(buf.Bytes(), &file); err != nil {
				t.Fatalf("span file is not JSON: %v", err)
			}
			for id, s := range file.Spans {
				if s.End < s.Start || s.Parent >= int64(id) {
					t.Fatalf("span %d %+v: ends before it starts, or names a later parent", id, s)
				}
			}
		})
	}
}

// TestSeedReachesTheInputs checks that another seed gives every workload
// another virtual time: a benchmark whose inputs ignored the seed would
// report the same sim_ms_per_iter on every run.
func TestSeedReachesTheInputs(t *testing.T) {
	for i := range workloads {
		w := &workloads[i]
		a, _ := runRound(w, scaleTest, 1, false)
		b, _ := runRound(w, scaleTest, 2, false)
		if a.err != nil || b.err != nil {
			t.Fatalf("%s: %v, %v", w.name, a.err, b.err)
		}
		if a.elapsed == b.elapsed {
			t.Errorf("%s: seeds 1 and 2 both end at virtual time %d", w.name, a.elapsed)
		}
	}
}

// benchmarkJSON is BENCHMARK.json as the driver reads it.
type benchmarkJSON struct {
	Command    []string `json:"command"`
	Paths      []string `json:"paths"`
	RunSeconds int      `json:"run_seconds"`
	Workloads  []struct{ Name, Why string }
	EndToEnd   []struct {
		Name, Unit, Better string
		Bound              *float64
	} `json:"end_to_end"`
	PerLayer []struct{ Name, Unit, Better string } `json:"per_layer"`
}

// TestSchemaMatchesBenchmarkJSON checks the harness against the contract
// in both directions: the workloads and metrics it emits are exactly
// those BENCHMARK.json lists, with the same units, directions and
// bounds, and within the contract's limits.
func TestSchemaMatchesBenchmarkJSON(t *testing.T) {
	data, err := os.ReadFile("../BENCHMARK.json")
	if err != nil {
		t.Fatal(err)
	}
	var bj benchmarkJSON
	dec := json.NewDecoder(bytes.NewReader(data))
	dec.DisallowUnknownFields()
	if err := dec.Decode(&bj); err != nil {
		t.Fatal(err)
	}
	name := regexp.MustCompile(`^[A-Za-z0-9][A-Za-z0-9_.-]{0,63}$`)
	unit := regexp.MustCompile(`^[A-Za-z0-9_/%.-]{1,16}$`)
	seen := map[string]bool{}
	check := func(n, u, better string) {
		t.Helper()
		if !name.MatchString(n) || seen[n] {
			t.Errorf("name %q is malformed or used twice", n)
		}
		seen[n] = true
		if u != "" && !unit.MatchString(u) {
			t.Errorf("%s: malformed unit %q", n, u)
		}
		if u != "" && better != "lower" && better != "higher" {
			t.Errorf("%s: better = %q", n, better)
		}
	}

	var e2eNames, workloadNames []string
	for _, m := range endToEnd {
		e2eNames = append(e2eNames, m.name)
	}
	for _, w := range workloads {
		workloadNames = append(workloadNames, w.name)
	}

	if len(bj.Workloads) != len(workloads) || len(workloads) < 2 || len(workloads) > 8 {
		t.Fatalf("%d workloads in BENCHMARK.json, %d in the harness (2 to 8 allowed)", len(bj.Workloads), len(workloads))
	}
	for i, w := range workloads {
		check(w.name, "", "")
		if bj.Workloads[i].Name != w.name || bj.Workloads[i].Why != w.why {
			t.Errorf("workload %d: BENCHMARK.json has %+v, the harness %q: %q", i, bj.Workloads[i], w.name, w.why)
		}
		if len(w.why) > 200 || strings.Contains(w.why, "\n") {
			t.Errorf("%s: why must be one line of at most 200 characters, has %d", w.name, len(w.why))
		}
	}

	if len(bj.EndToEnd) != len(endToEnd) || len(endToEnd) > 16 {
		t.Fatalf("%d end-to-end metrics in BENCHMARK.json, %d in the harness (at most 16)", len(bj.EndToEnd), len(endToEnd))
	}
	for i, m := range endToEnd {
		check(m.name, m.unit, m.better)
		j := bj.EndToEnd[i]
		if j.Name != m.name || j.Unit != m.unit || j.Better != m.better || j.Bound == nil || *j.Bound != m.bound {
			t.Errorf("end-to-end %d: BENCHMARK.json has %+v, the harness %+v", i, j, m)
		}
		if m.bound <= 0 || m.bound > 0.25 || m.def == "" {
			t.Errorf("%s: needs a definition and a bound in (0, 0.25], has %v", m.name, m.bound)
		}
	}
	if endToEnd[0].name != "setup_s" || endToEnd[0].unit != "s" || endToEnd[0].better != "lower" {
		t.Errorf("the set-up metric must be setup_s in s, lower is better; have %+v", endToEnd[0])
	}

	if len(bj.PerLayer) != len(perLayer) || len(perLayer) > 128 {
		t.Fatalf("%d per-layer metrics in BENCHMARK.json, %d in the harness (at most 128)", len(bj.PerLayer), len(perLayer))
	}
	for i, m := range perLayer {
		check(m.name, m.unit, m.better)
		if j := bj.PerLayer[i]; j.Name != m.name || j.Unit != m.unit || j.Better != m.better {
			t.Errorf("per-layer %d: BENCHMARK.json has %+v, the harness %+v", i, j, m)
		}
		// The interaction table: which end-to-end metric, which workload.
		if !containsAny(m.moves, e2eNames) || !containsAny(m.moves, workloadNames) {
			t.Errorf("%s: moves %q must name an end-to-end metric and a workload", m.name, m.moves)
		}
	}

	// What the harness actually emits, mode by mode. The traced side runs
	// a real traced round and the whole ladder at a thousandth of its
	// operation counts; withUnits fails on a metric missing or unlisted.
	w := &workloads[0]
	plain, _ := runRound(w, scaleTest, 1, false)
	traced, _ := runRound(w, scaleTest, 1, true)
	if plain.err != nil || traced.err != nil {
		t.Fatal(plain.err, traced.err)
	}
	if _, _, err := withUnits(false, endToEndValues([]round{plain}, 1<<20)); err != nil {
		t.Error(err)
	}
	vals, _ := perLayerValues([]round{traced}, []round{plain}, ladder{div: 1000}.run())
	if _, _, err := withUnits(true, vals); err != nil {
		t.Error(err)
	}
	var shares float64
	for _, s := range simShares {
		shares += vals["sim."+s+"_share"]
	}
	if math.Abs(shares-1) > 1e-9 {
		t.Errorf("sim.*_share sum to %v, want 1", shares)
	}

	if bj.RunSeconds < 1 || bj.RunSeconds > 60 || len(bj.Paths) != 1 || bj.Paths[0] != "benchmark" {
		t.Errorf("run_seconds %d, paths %v", bj.RunSeconds, bj.Paths)
	}
}

func containsAny(s string, names []string) bool {
	for _, n := range names {
		if strings.Contains(s, n) {
			return true
		}
	}
	return false
}

func TestQuartilesMatchPython(t *testing.T) {
	// statistics.quantiles(range(1, 11), n=4) == [2.75, 5.5, 8.25]
	xs := []float64{10, 9, 8, 7, 6, 5, 4, 3, 2, 1}
	q1, q3 := quartiles(xs)
	if q1 != 2.75 || q3 != 8.25 || median(xs) != 5.5 {
		t.Errorf("quartiles = %v, %v, median %v; want 2.75, 8.25, 5.5", q1, q3, median(xs))
	}
	if v, pct := tailPercentile(sorted(append(xs, 11, 12))); v != 2 || math.Abs(pct-100.0/6) > 1e-9 {
		t.Errorf("tailPercentile of 12 samples = %v at p%v, want the 2nd value at p16.7", v, pct)
	}
}

// TestCompareVerdicts feeds the comparison synthetic sets on one metric.
func TestCompareVerdicts(t *testing.T) {
	set := func(wall ...float64) []summary {
		var out []summary
		for i, v := range wall {
			out = append(out, summary{Workload: "sor_local", Seed: uint64(i),
				Metrics: map[string]metricValue{"wall_ms_per_iter": {Value: v, Unit: "ms"}}})
		}
		return out
	}
	steady := []float64{100, 101, 99, 100, 102, 98, 100, 101, 99, 100}
	scaled := func(f float64) []float64 {
		out := make([]float64, len(steady))
		for i, v := range steady {
			out[i] = v * f
		}
		return out
	}
	// The cases are sized by the metric's own bound, wherever it is set.
	bound := endToEnd[1].bound
	noisy := make([]float64, len(steady))
	for i := range noisy {
		noisy[i] = 100 * (1 + float64(i%3-1)*bound)
	}
	for _, c := range []struct {
		name string
		a, b []float64
		want string
	}{
		{"same", steady, scaled(1.01), "same"},
		{"worse", steady, scaled(1 + 1.2*bound), "worse"},
		{"better", steady, scaled(0.9), "better"},
		{"unresolved", noisy, noisy, "unresolved"},
	} {
		rows := compareSets(set(c.a...), set(c.b...))
		if len(rows) != 1 || rows[0].verdict != c.want {
			t.Errorf("%s: got %+v, want one row with verdict %s", c.name, rows, c.want)
		}
	}
	var out bytes.Buffer
	if code := printComparison(&out, compareSets(set(steady...), set(scaled(1+1.2*bound)...))); code != 1 || !strings.Contains(out.String(), "worse") {
		t.Errorf("a worse row must print and exit 1; got %d:\n%s", code, out.String())
	}
}
