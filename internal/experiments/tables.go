package experiments

import (
	"fmt"
	"strings"

	"actdsm/internal/apps"
	"actdsm/internal/core"
	"actdsm/internal/dsm"
	"actdsm/internal/placement"
	"actdsm/internal/sim"
	"actdsm/internal/stats"
)

// PaperApps lists the applications in the order of the paper's Table 1.
var PaperApps = []string{
	"Barnes", "FFT6", "FFT7", "FFT8", "LU1k", "LU2k",
	"Ocean", "Spatial", "SOR", "Water",
}

// Table6Apps lists the applications the paper's Table 6 reports.
var Table6Apps = []string{"Barnes", "FFT7", "LU1k", "Ocean", "Spatial", "SOR", "Water"}

// Options configures the experiment suite.
type Options struct {
	// Scale selects the input class; ScaleTest runs in seconds.
	Scale apps.Scale
	// Threads is the application thread count (paper: 64).
	Threads int
	// Nodes is the cluster size (paper: 8).
	Nodes int
	// RandomConfigs is the number of random placements for Table 2
	// (paper: 300).
	RandomConfigs int
	// Seed feeds all randomized pieces.
	Seed uint64
	// Apps restricts the suite to a subset (nil = paper set).
	Apps []string
}

// Defaults fills unset options with paper values (test scale).
func (o Options) Defaults() Options {
	if o.Scale == 0 {
		o.Scale = apps.ScaleTest
	}
	if o.Threads == 0 {
		o.Threads = 64
	}
	if o.Nodes == 0 {
		o.Nodes = 8
	}
	if o.RandomConfigs == 0 {
		o.RandomConfigs = 60
		if o.Scale == apps.ScalePaper {
			o.RandomConfigs = 300
		}
	}
	if o.Seed == 0 {
		o.Seed = 1999
	}
	if o.Apps == nil {
		o.Apps = PaperApps
	}
	return o
}

// ---------------------------------------------------------------------------
// Table 1: application characteristics.

// Table1Row mirrors a row of the paper's Table 1.
type Table1Row struct {
	App         string
	Sync        string
	Input       string
	SharedPages int
}

// appMeta carries the static columns of Table 1.
var appMeta = map[string]struct{ sync, paperInput, testInput string }{
	"Barnes":  {"barrier, lock", "8192 bodies", "512 bodies"},
	"FFT6":    {"barrier", "2^18 points", "2^16 points"},
	"FFT7":    {"barrier", "2^19 points", "2^17 points"},
	"FFT8":    {"barrier", "2^20 points", "2^18 points"},
	"LU1k":    {"barrier", "1024x1024", "128x128"},
	"LU2k":    {"barrier", "2048x2048", "256x256"},
	"Ocean":   {"barrier, lock", "258x258 x24", "66x66 x3"},
	"Spatial": {"barrier, lock", "4096 mols", "512 mols"},
	"SOR":     {"barrier", "2048x2048", "128x128"},
	"Water":   {"barrier, lock", "512 mols", "256 mols"},
}

// Table1 reports each application's synchronization kinds, input, and
// shared-page count.
func Table1(o Options) ([]Table1Row, error) {
	o = o.Defaults()
	rows := make([]Table1Row, 0, len(o.Apps))
	for _, name := range o.Apps {
		a, err := apps.New(name, apps.Config{Threads: o.Threads, Scale: o.Scale})
		if err != nil {
			return nil, err
		}
		pages, err := apps.SharedPages(a)
		if err != nil {
			return nil, err
		}
		meta := appMeta[name]
		input := meta.testInput
		if o.Scale == apps.ScalePaper {
			input = meta.paperInput
		}
		rows = append(rows, Table1Row{App: name, Sync: meta.sync, Input: input, SharedPages: pages})
	}
	return rows, nil
}

// FormatTable1 renders Table 1 rows in the paper's layout.
func FormatTable1(rows []Table1Row) string {
	var b strings.Builder
	fmt.Fprintf(&b, "%-8s  %-15s  %-12s  %s\n", "App", "Synchronization", "Input", "Shared Pages")
	for _, r := range rows {
		fmt.Fprintf(&b, "%-8s  %-15s  %-12s  %d\n", r.App, r.Sync, r.Input, r.SharedPages)
	}
	return b.String()
}

// ---------------------------------------------------------------------------
// Table 2 + Figure 1: remote misses as a function of cut cost.

// Table2Row mirrors a row of the paper's Table 2, plus the raw scatter
// points (Figure 1's series for that application).
type Table2Row struct {
	App       string
	Slope     float64
	Intercept float64
	R         float64
	// CutCosts and RemoteMisses are the Figure 1 scatter for this app.
	CutCosts     []float64
	RemoteMisses []float64
}

// Table2 measures, for each application, remote misses over randomly
// generated thread configurations and regresses them on the cut costs
// predicted by actively tracked thread correlations.
func Table2(o Options) ([]Table2Row, error) {
	o = o.Defaults()
	rng := sim.NewRNG(o.Seed)
	rows := make([]Table2Row, 0, len(o.Apps))
	for _, name := range o.Apps {
		m, err := TrackMatrix(name, o.Threads, o.Nodes, o.Scale)
		if err != nil {
			return nil, fmt.Errorf("table2 %s: %w", name, err)
		}
		row := Table2Row{App: name}
		appRng := rng.Split()
		for c := 0; c < o.RandomConfigs; c++ {
			// The paper's methodology: random placements, not
			// necessarily balanced, no node below two threads.
			assign, err := placement.RandomMin(o.Threads, o.Nodes, 2, appRng)
			if err != nil {
				return nil, err
			}
			res, err := Run(RunConfig{
				App: name, Threads: o.Threads, Nodes: o.Nodes,
				Scale: o.Scale, Iterations: 3, TrackIter: -1,
				Placement: assign,
			})
			if err != nil {
				return nil, fmt.Errorf("table2 %s cfg %d: %w", name, c, err)
			}
			misses, _ := steadyIterStats(res, 1)
			row.CutCosts = append(row.CutCosts, float64(m.CutCost(assign)))
			row.RemoteMisses = append(row.RemoteMisses, misses)
		}
		fit, err := stats.Fit(row.CutCosts, row.RemoteMisses)
		if err != nil {
			return nil, fmt.Errorf("table2 %s fit: %w", name, err)
		}
		row.Slope, row.Intercept, row.R = fit.Slope, fit.Intercept, fit.R
		rows = append(rows, row)
	}
	return rows, nil
}

// Table2CSV emits the Figure 1 scatter series as CSV (app, cut cost,
// remote misses — one row per random configuration) for external
// plotting.
func Table2CSV(rows []Table2Row) string {
	var b strings.Builder
	b.WriteString("app,cut_cost,remote_misses\n")
	for _, r := range rows {
		for i := range r.CutCosts {
			fmt.Fprintf(&b, "%s,%.0f,%.0f\n", r.App, r.CutCosts[i], r.RemoteMisses[i])
		}
	}
	return b.String()
}

// FormatTable2 renders Table 2 rows in the paper's layout.
func FormatTable2(rows []Table2Row) string {
	var b strings.Builder
	fmt.Fprintf(&b, "%-8s  %9s  %12s  %s\n", "App", "Slope", "Y-intercept", "Correlation Coefficient")
	for _, r := range rows {
		fmt.Fprintf(&b, "%-8s  %9.3f  %12.1f  %.3f\n", r.App, r.Slope, r.Intercept, r.R)
	}
	return b.String()
}

// ---------------------------------------------------------------------------
// Table 3: correlation maps by thread count.

// MapResult is one rendered correlation map.
type MapResult struct {
	App     string
	Threads int
	Matrix  *core.Matrix
	ASCII   string
}

// Table3 produces correlation maps for 32-, 48-, and 64-thread
// configurations of each application.
func Table3(o Options) ([]MapResult, error) {
	o = o.Defaults()
	var out []MapResult
	for _, name := range o.Apps {
		for _, nt := range []int{32, 48, 64} {
			m, err := TrackMatrix(name, nt, o.Nodes, o.Scale)
			if err != nil {
				return nil, fmt.Errorf("table3 %s/%d: %w", name, nt, err)
			}
			out = append(out, MapResult{App: name, Threads: nt, Matrix: m, ASCII: m.RenderASCII()})
		}
	}
	return out, nil
}

// Table4 produces 64-thread FFT correlation maps across the three input
// sizes (the paper's Table 4).
func Table4(o Options) ([]MapResult, error) {
	o = o.Defaults()
	var out []MapResult
	for _, name := range []string{"FFT6", "FFT7", "FFT8"} {
		m, err := TrackMatrix(name, o.Threads, o.Nodes, o.Scale)
		if err != nil {
			return nil, fmt.Errorf("table4 %s: %w", name, err)
		}
		out = append(out, MapResult{App: name, Threads: o.Threads, Matrix: m, ASCII: m.RenderASCII()})
	}
	return out, nil
}

// ---------------------------------------------------------------------------
// Table 5: tracking overhead.

// Table5Row mirrors a row of the paper's Table 5.
type Table5Row struct {
	App            string
	IterOff        sim.Time
	IterOn         sim.Time
	SlowdownPct    float64
	TrackingFaults int64
	CohFaults      int64
	SharingDegree  float64
}

// Table5 measures the cost of one actively tracked iteration against the
// same iteration of an untracked run (two runs, so applications with
// inhomogeneous iterations — LU's shrinking elimination steps — compare
// like with like), with the paper's 8-threads-per-node layout.
func Table5(o Options) ([]Table5Row, error) {
	o = o.Defaults()
	rows := make([]Table5Row, 0, len(o.Apps))
	for _, name := range o.Apps {
		// GC is disabled for both runs so collection rounds (which
		// fire at protocol-dependent barriers) don't confound the
		// tracked-vs-untracked comparison.
		base, err := Run(RunConfig{
			App: name, Threads: o.Threads, Nodes: o.Nodes,
			Scale: o.Scale, Iterations: 4, TrackIter: -1,
			Cluster: dsm.Config{GCThresholdBytes: -1},
		})
		if err != nil {
			return nil, fmt.Errorf("table5 %s baseline: %w", name, err)
		}
		res, err := Run(RunConfig{
			App: name, Threads: o.Threads, Nodes: o.Nodes,
			Scale: o.Scale, Iterations: 4, TrackIter: 2,
			Cluster: dsm.Config{GCThresholdBytes: -1},
		})
		if err != nil {
			return nil, fmt.Errorf("table5 %s: %w", name, err)
		}
		if len(res.IterTime) < 4 || len(base.IterTime) < 4 {
			return nil, fmt.Errorf("table5 %s: only %d iterations", name, len(res.IterTime))
		}
		// Iteration 2 tracked vs iteration 2 untracked.
		off := base.IterTime[2]
		on := res.IterTime[2]
		slow := 0.0
		if off > 0 {
			slow = 100 * (float64(on)/float64(off) - 1)
		}
		rows = append(rows, Table5Row{
			App:            name,
			IterOff:        off,
			IterOn:         on,
			SlowdownPct:    slow,
			TrackingFaults: res.IterStats[2].TrackingFaults,
			CohFaults:      res.IterStats[2].CoherenceFaults,
			SharingDegree:  res.Tracker.SharingDegree(),
		})
	}
	return rows, nil
}

// FormatTable5 renders Table 5 rows in the paper's layout.
func FormatTable5(rows []Table5Row) string {
	var b strings.Builder
	fmt.Fprintf(&b, "%-8s  %10s  %10s  %9s  %9s  %9s  %7s\n",
		"App", "Off (s)", "On (s)", "Slowdown", "Tracking", "Coherence", "Degree")
	for _, r := range rows {
		fmt.Fprintf(&b, "%-8s  %10.4f  %10.4f  %8.2f%%  %9d  %9d  %7.3f\n",
			r.App, r.IterOff.Seconds(), r.IterOn.Seconds(), r.SlowdownPct,
			r.TrackingFaults, r.CohFaults, r.SharingDegree)
	}
	return b.String()
}

// ---------------------------------------------------------------------------
// Table 6: 8-node performance by heuristic.

// Table6Row mirrors one (application, heuristic) row of the paper's
// Table 6.
type Table6Row struct {
	App          string
	Heuristic    string // "m-c" or "ran"
	Time         sim.Time
	RemoteMisses int64
	TotalMB      float64
	DiffMB       float64
	CutCost      int64
}

// Table6 compares min-cost placements (from actively tracked
// correlations) against random placements.
func Table6(o Options) ([]Table6Row, error) {
	o = o.Defaults()
	names := o.Apps
	if len(names) == len(PaperApps) {
		names = Table6Apps
	}
	rng := sim.NewRNG(o.Seed + 6)
	iters := 5
	var rows []Table6Row
	for _, name := range names {
		m, err := TrackMatrix(name, o.Threads, o.Nodes, o.Scale)
		if err != nil {
			return nil, fmt.Errorf("table6 %s: %w", name, err)
		}
		mc := placement.MinCost(m, o.Nodes)
		ran := placement.RandomBalanced(o.Threads, o.Nodes, rng)
		for _, h := range []struct {
			label  string
			assign []int
		}{{"m-c", mc}, {"ran", ran}} {
			res, err := Run(RunConfig{
				App: name, Threads: o.Threads, Nodes: o.Nodes,
				Scale: o.Scale, Iterations: iters, TrackIter: -1,
				Placement: h.assign,
			})
			if err != nil {
				return nil, fmt.Errorf("table6 %s/%s: %w", name, h.label, err)
			}
			rows = append(rows, Table6Row{
				App:          name,
				Heuristic:    h.label,
				Time:         res.Elapsed,
				RemoteMisses: res.Stats.RemoteMisses,
				TotalMB:      float64(res.Stats.BytesTotal) / 1e6,
				DiffMB:       float64(res.Stats.BytesDiff) / 1e6,
				CutCost:      m.CutCost(h.assign),
			})
		}
	}
	return rows, nil
}

// FormatTable6 renders Table 6 rows in the paper's layout.
func FormatTable6(rows []Table6Row) string {
	var b strings.Builder
	fmt.Fprintf(&b, "%-8s %-4s %10s %12s %10s %10s %10s\n",
		"App", "Heur", "Time (s)", "RemoteMiss", "Total MB", "Diff MB", "Cut Cost")
	for _, r := range rows {
		fmt.Fprintf(&b, "%-8s %-4s %10.4f %12d %10.2f %10.2f %10d\n",
			r.App, r.Heuristic, r.Time.Seconds(), r.RemoteMisses, r.TotalMB, r.DiffMB, r.CutCost)
	}
	return b.String()
}
