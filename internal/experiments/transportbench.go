package experiments

// Heterogeneous-transport comparison: the BENCH_transport.json generator
// and regression gate. A verified SOR run over a FastSlowTopology on the
// simulated cluster, recording the virtual-time stretch versus the
// uniform run and the per-directed-link call/byte traffic. These are
// pure virtual-time/counter numbers, so the gate compares them exactly
// against the committed baseline. (What the TCP transport itself costs
// on the wall clock is tracked by the benchmark/ ladder's
// transport.tcp_call_* rungs and pinned by TestMuxCallAllocs.)

import (
	"encoding/json"
	"fmt"
	"sort"
	"strings"

	"actdsm/internal/dsm"
	"actdsm/internal/sim"
)

// TransportLink is one directed link's deterministic traffic: protocol
// calls and wire bytes, without the wall-clock latency column of
// dsm.LinkSnapshot.
type TransportLink struct {
	From  int   `json:"from"`
	To    int   `json:"to"`
	Calls int64 `json:"calls"`
	Bytes int64 `json:"bytes"`
}

// TransportReport is the BENCH_transport.json schema: deterministic
// virtual-time results, compared exactly.
type TransportReport struct {
	// HeteroApp on HeteroNodes nodes, uniform topology versus a
	// FastSlowTopology, in virtual time.
	HeteroApp   string `json:"hetero_app"`
	HeteroNodes int    `json:"hetero_nodes"`
	// HeteroUniformElapsed / HeteroSlowElapsed are the runs' virtual
	// elapsed times; the slow topology must strictly stretch the run.
	HeteroUniformElapsed sim.Time `json:"hetero_uniform_elapsed"`
	HeteroSlowElapsed    sim.Time `json:"hetero_slow_elapsed"`
	// HeteroLinks is the slow run's per-directed-link traffic, sorted
	// by (from, to).
	HeteroLinks []TransportLink `json:"hetero_links"`
}

// transportHetero is the run's shape: SOR (nearest-neighbor halo
// exchange — every link carries traffic) on 4 nodes with every 2nd node
// slow (2x compute cost, 4x link cost).
const (
	transportHeteroApp     = "SOR"
	transportHeteroNodes   = 4
	transportHeteroThreads = 8
)

// TransportComparison runs the workload over the uniform and the
// fast/slow topology and assembles the report.
func TransportComparison() (TransportReport, error) {
	rep := TransportReport{}
	hetero := func(topo *sim.Topology) (*RunResult, error) {
		return Run(RunConfig{
			App:       transportHeteroApp,
			Threads:   transportHeteroThreads,
			Nodes:     transportHeteroNodes,
			TrackIter: -1,
			Verify:    true,
			Cluster:   dsm.Config{Topology: topo},
		})
	}
	uniform, err := hetero(nil)
	if err != nil {
		return rep, fmt.Errorf("transport hetero uniform: %w", err)
	}
	slowTopo := sim.FastSlowTopology(transportHeteroNodes, sim.Costs{}, 2, 2, 4)
	slow, err := hetero(slowTopo)
	if err != nil {
		return rep, fmt.Errorf("transport hetero slow: %w", err)
	}
	rep.HeteroApp, rep.HeteroNodes = transportHeteroApp, transportHeteroNodes
	rep.HeteroUniformElapsed = uniform.Elapsed
	rep.HeteroSlowElapsed = slow.Elapsed
	for _, l := range slow.Stats.Links {
		rep.HeteroLinks = append(rep.HeteroLinks, TransportLink{
			From: l.From, To: l.To, Calls: l.Calls, Bytes: l.Bytes,
		})
	}
	sort.Slice(rep.HeteroLinks, func(i, j int) bool {
		a, b := rep.HeteroLinks[i], rep.HeteroLinks[j]
		if a.From != b.From {
			return a.From < b.From
		}
		return a.To < b.To
	})
	return rep, nil
}

// FormatTransportReport renders the comparison for the actbench section.
func FormatTransportReport(r TransportReport) string {
	var b strings.Builder
	fmt.Fprintf(&b, "hetero %s x%d: uniform %d, fast/slow %d virtual ns (stretch %.2fx)\n",
		r.HeteroApp, r.HeteroNodes,
		int64(r.HeteroUniformElapsed), int64(r.HeteroSlowElapsed),
		float64(r.HeteroSlowElapsed)/float64(r.HeteroUniformElapsed))
	for _, l := range r.HeteroLinks {
		fmt.Fprintf(&b, "  link %d->%d: %d calls, %d bytes\n", l.From, l.To, l.Calls, l.Bytes)
	}
	return b.String()
}

// CompareTransportReports validates a fresh report against the
// committed baseline: the slow topology must strictly stretch the run,
// and elapsed times and every per-link call/byte count must match the
// baseline exactly.
func CompareTransportReports(baseline, current []byte) (string, error) {
	var base, cur TransportReport
	if err := json.Unmarshal(baseline, &base); err != nil {
		return "", fmt.Errorf("baseline: %w", err)
	}
	if err := json.Unmarshal(current, &cur); err != nil {
		return "", fmt.Errorf("current: %w", err)
	}
	var b strings.Builder
	fmt.Fprintf(&b, "hetero elapsed: baseline %d/%d, current %d/%d (uniform/slow, exact)\n",
		int64(base.HeteroUniformElapsed), int64(base.HeteroSlowElapsed),
		int64(cur.HeteroUniformElapsed), int64(cur.HeteroSlowElapsed))
	var failures []string
	if cur.HeteroSlowElapsed <= cur.HeteroUniformElapsed {
		failures = append(failures, fmt.Sprintf(
			"fast/slow topology did not stretch the run: %d <= %d",
			int64(cur.HeteroSlowElapsed), int64(cur.HeteroUniformElapsed)))
	}
	if cur.HeteroUniformElapsed != base.HeteroUniformElapsed ||
		cur.HeteroSlowElapsed != base.HeteroSlowElapsed {
		failures = append(failures, fmt.Sprintf(
			"deterministic hetero elapsed diverged: uniform %d -> %d, slow %d -> %d",
			int64(base.HeteroUniformElapsed), int64(cur.HeteroUniformElapsed),
			int64(base.HeteroSlowElapsed), int64(cur.HeteroSlowElapsed)))
	}
	if diff := transportLinksDiff(base.HeteroLinks, cur.HeteroLinks); diff != "" {
		failures = append(failures, "deterministic per-link traffic diverged: "+diff)
	}
	if len(failures) > 0 {
		return b.String(), fmt.Errorf("transport benchmark regression:\n  %s",
			strings.Join(failures, "\n  "))
	}
	return b.String(), nil
}

func transportLinksDiff(a, b []TransportLink) string {
	if len(a) != len(b) {
		return fmt.Sprintf("baseline %d rows, current %d rows", len(a), len(b))
	}
	for i := range a {
		if a[i] != b[i] {
			return fmt.Sprintf(
				"link %d->%d: baseline %d calls/%d bytes, current %d calls/%d bytes",
				a[i].From, a[i].To, a[i].Calls, a[i].Bytes, b[i].Calls, b[i].Bytes)
		}
	}
	return ""
}
