package experiments

import (
	"actdsm/internal/dsm"
	"fmt"
	"strings"

	"actdsm/internal/core"
	"actdsm/internal/placement"
	"actdsm/internal/sim"
)

// newRNG is a tiny indirection so figure/ablation code shares seeding.
func newRNG(seed uint64) *sim.RNG { return sim.NewRNG(seed) }

// ---------------------------------------------------------------------------
// Ablation E9: heuristic quality (paper §5.1 claims).

// AblationHeuristicsRow compares placement heuristics on one application.
type AblationHeuristicsRow struct {
	App        string
	CutStretch int64
	CutMinCost int64
	CutAnneal  int64
	CutRandom  int64
	// CutOptimal is -1 when the instance exceeds the exact solver.
	CutOptimal int64
}

// AblationHeuristics evaluates stretch, min-cost, and random cut costs on
// every application's tracked correlation matrix, plus the exact optimum
// on a reduced instance (16 threads) to check the paper's within-1%
// claim.
func AblationHeuristics(o Options) ([]AblationHeuristicsRow, error) {
	o = o.Defaults()
	rng := newRNG(o.Seed + 9)
	rows := make([]AblationHeuristicsRow, 0, len(o.Apps))
	for _, name := range o.Apps {
		m, err := TrackMatrix(name, o.Threads, o.Nodes, o.Scale)
		if err != nil {
			return nil, fmt.Errorf("ablation %s: %w", name, err)
		}
		start := placement.RandomBalanced(o.Threads, o.Nodes, rng)
		row := AblationHeuristicsRow{
			App:        name,
			CutStretch: m.CutCost(placement.Stretch(o.Threads, o.Nodes)),
			CutMinCost: m.CutCost(placement.MinCost(m, o.Nodes)),
			CutAnneal:  m.CutCost(placement.Anneal(m, start, 6000, rng)),
			CutRandom:  m.CutCost(start),
			CutOptimal: -1,
		}
		// Exact comparison on a 16-thread instance of the same app.
		if sm, err := TrackMatrix(name, 16, 4, o.Scale); err == nil {
			if opt, err := placement.Optimal(sm, 4); err == nil {
				row.CutOptimal = sm.CutCost(opt)
				mc := sm.CutCost(placement.MinCost(sm, 4))
				// Record the small-instance min-cost in place of
				// nothing: expose both via the ratio check below.
				if row.CutOptimal > 0 && float64(mc) > 1.25*float64(row.CutOptimal) {
					// Leave a trace in the row by negating: the
					// formatter reports the miss.
					row.CutOptimal = -int64(mc)
				}
			}
		}
		rows = append(rows, row)
	}
	return rows, nil
}

// FormatAblationHeuristics renders the heuristic comparison.
func FormatAblationHeuristics(rows []AblationHeuristicsRow) string {
	var b strings.Builder
	fmt.Fprintf(&b, "%-8s  %10s  %10s  %10s  %10s  %s\n", "App", "Stretch", "MinCost", "Anneal", "Random", "Optimal(16t/4n)")
	for _, r := range rows {
		opt := "n/a"
		if r.CutOptimal >= 0 {
			opt = fmt.Sprintf("%d", r.CutOptimal)
		} else if r.CutOptimal < -1 {
			opt = fmt.Sprintf("MISSED (min-cost %d)", -r.CutOptimal)
		}
		fmt.Fprintf(&b, "%-8s  %10d  %10d  %10d  %10d  %s\n",
			r.App, r.CutStretch, r.CutMinCost, r.CutAnneal, r.CutRandom, opt)
	}
	return b.String()
}

// ---------------------------------------------------------------------------
// Ablation E10: tracking-cost scaling (paper §4.2 claims).

// AblationScalingRow records one (app, nodes) tracking overhead sample.
type AblationScalingRow struct {
	App            string
	Nodes          int
	SlowdownPct    float64
	TrackingFaults int64
	SharingDegree  float64
}

// AblationScaling measures tracked-iteration overhead for a low-sharing
// application (SOR) and a high-sharing one (Water) across cluster sizes:
// the paper argues absolute tracking cost should not grow with node count
// but is sensitive to the amount of local sharing.
func AblationScaling(o Options) ([]AblationScalingRow, error) {
	o = o.Defaults()
	var rows []AblationScalingRow
	for _, name := range []string{"SOR", "Water"} {
		for _, nodes := range []int{2, 4, 8} {
			base, err := Run(RunConfig{
				App: name, Threads: o.Threads, Nodes: nodes,
				Scale: o.Scale, Iterations: 4, TrackIter: -1,
				Cluster: dsm.Config{GCThresholdBytes: -1},
			})
			if err != nil {
				return nil, fmt.Errorf("scaling %s/%d baseline: %w", name, nodes, err)
			}
			res, err := Run(RunConfig{
				App: name, Threads: o.Threads, Nodes: nodes,
				Scale: o.Scale, Iterations: 4, TrackIter: 2,
				Cluster: dsm.Config{GCThresholdBytes: -1},
			})
			if err != nil {
				return nil, fmt.Errorf("scaling %s/%d: %w", name, nodes, err)
			}
			off, on := base.IterTime[2], res.IterTime[2]
			slow := 0.0
			if off > 0 {
				slow = 100 * (float64(on)/float64(off) - 1)
			}
			rows = append(rows, AblationScalingRow{
				App:            name,
				Nodes:          nodes,
				SlowdownPct:    slow,
				TrackingFaults: res.IterStats[2].TrackingFaults,
				SharingDegree:  res.Tracker.SharingDegree(),
			})
		}
	}
	return rows, nil
}

// FormatAblationScaling renders the scaling ablation.
func FormatAblationScaling(rows []AblationScalingRow) string {
	var b strings.Builder
	fmt.Fprintf(&b, "%-8s  %5s  %9s  %9s  %7s\n", "App", "Nodes", "Slowdown", "TrkFault", "Degree")
	for _, r := range rows {
		fmt.Fprintf(&b, "%-8s  %5d  %8.2f%%  %9d  %7.3f\n",
			r.App, r.Nodes, r.SlowdownPct, r.TrackingFaults, r.SharingDegree)
	}
	return b.String()
}

// ---------------------------------------------------------------------------
// Ablation E12: multi-writer vs single-writer coherence protocol.

// AblationProtocolRow compares the two coherence protocols on one
// application.
type AblationProtocolRow struct {
	App string
	// Per-protocol steady-state remote misses per iteration, total run
	// bytes, and elapsed virtual time.
	MWMisses, SWMisses float64
	MWBytes, SWBytes   int64
	MWTime, SWTime     sim.Time
}

// AblationProtocol runs each application under the default multi-writer
// LRC protocol and under the single-writer ownership protocol. The
// paper's §6 argues that single-writer/sequentially-consistent systems
// suffer false sharing that relaxed multi-writer consistency hides —
// which is why thread scheduling on modern systems only needs to address
// true sharing. Concurrent-writer applications should show dramatically
// more misses and traffic under single-writer.
func AblationProtocol(o Options) ([]AblationProtocolRow, error) {
	o = o.Defaults()
	rows := make([]AblationProtocolRow, 0, len(o.Apps))
	for _, name := range o.Apps {
		row := AblationProtocolRow{App: name}
		for _, variant := range []struct {
			proto  dsm.Protocol
			misses *float64
			bytes  *int64
			t      *sim.Time
		}{
			{dsm.MultiWriter, &row.MWMisses, &row.MWBytes, &row.MWTime},
			{dsm.SingleWriter, &row.SWMisses, &row.SWBytes, &row.SWTime},
		} {
			res, err := Run(RunConfig{
				App: name, Threads: o.Threads, Nodes: o.Nodes,
				Scale: o.Scale, Iterations: 3, TrackIter: -1,
				Cluster: dsm.Config{Protocol: variant.proto},
			})
			if err != nil {
				return nil, fmt.Errorf("protocol %s: %w", name, err)
			}
			m, _ := steadyIterStats(res, 1)
			*variant.misses = m
			*variant.bytes = res.Stats.BytesTotal
			*variant.t = res.Elapsed
		}
		rows = append(rows, row)
	}
	return rows, nil
}

// FormatAblationProtocol renders the protocol comparison.
func FormatAblationProtocol(rows []AblationProtocolRow) string {
	var b strings.Builder
	fmt.Fprintf(&b, "%-8s  %22s  %22s  %18s\n", "App", "Misses/iter (MW|SW)", "Total MB (MW|SW)", "Time s (MW|SW)")
	for _, r := range rows {
		fmt.Fprintf(&b, "%-8s  %10.0f | %9.0f  %10.2f | %9.2f  %7.3f | %8.3f\n",
			r.App, r.MWMisses, r.SWMisses,
			float64(r.MWBytes)/1e6, float64(r.SWBytes)/1e6,
			r.MWTime.Seconds(), r.SWTime.Seconds())
	}
	return b.String()
}

// ---------------------------------------------------------------------------
// Ablation E11: page-count correlation vs access-density correlation.

// AblationDensityRow compares placements derived from the practical
// binary page-count correlation against the §1 "ideal" density
// correlation for one application.
type AblationDensityRow struct {
	App string
	// MissesBinary/MissesDensity are steady-state remote misses per
	// iteration under the min-cost placement computed from each matrix.
	MissesBinary  float64
	MissesDensity float64
}

// AblationDensity quantifies the paper's §1 discussion: how much placement
// quality is lost by tracking page *sets* instead of access *densities*?
// Both matrices come from the same tracked run; min-cost placements from
// each are then executed and their steady-state remote misses compared.
func AblationDensity(o Options) ([]AblationDensityRow, error) {
	o = o.Defaults()
	rows := make([]AblationDensityRow, 0, len(o.Apps))
	for _, name := range o.Apps {
		res, err := Run(RunConfig{
			App: name, Threads: o.Threads, Nodes: o.Nodes,
			Scale: o.Scale, Iterations: 3, TrackIter: 1, TrackDensity: true,
		})
		if err != nil {
			return nil, fmt.Errorf("density %s: %w", name, err)
		}
		row := AblationDensityRow{App: name}
		for _, variant := range []struct {
			m    *core.Matrix
			dest *float64
		}{
			{res.Tracker.Matrix(), &row.MissesBinary},
			{res.Density.Matrix(), &row.MissesDensity},
		} {
			assign := placement.MinCost(variant.m, o.Nodes)
			r2, err := Run(RunConfig{
				App: name, Threads: o.Threads, Nodes: o.Nodes,
				Scale: o.Scale, Iterations: 3, TrackIter: -1,
				Placement: assign,
			})
			if err != nil {
				return nil, fmt.Errorf("density %s run: %w", name, err)
			}
			misses, _ := steadyIterStats(r2, 1)
			*variant.dest = misses
		}
		rows = append(rows, row)
	}
	return rows, nil
}

// FormatAblationDensity renders the density ablation.
func FormatAblationDensity(rows []AblationDensityRow) string {
	var b strings.Builder
	fmt.Fprintf(&b, "%-8s  %14s  %14s  %s\n", "App", "Binary misses", "Density misses", "Density/Binary")
	for _, r := range rows {
		ratio := 1.0
		if r.MissesBinary > 0 {
			ratio = r.MissesDensity / r.MissesBinary
		}
		fmt.Fprintf(&b, "%-8s  %14.0f  %14.0f  %.3f\n", r.App, r.MissesBinary, r.MissesDensity, ratio)
	}
	return b.String()
}

// MapSummary summarizes a correlation map's block structure: the
// dominant diagonal width and whether background sharing is present —
// used by tests to check Table 3/4 shapes rather than eyeballing ASCII.
type MapSummary struct {
	// DiagonalFrac is the fraction of total sharing within |i-j| <= 2.
	DiagonalFrac float64
	// BackgroundFrac is the fraction of thread pairs with nonzero
	// sharing.
	BackgroundFrac float64
}

// Summarize computes a MapSummary for a correlation matrix.
func Summarize(m *core.Matrix) MapSummary {
	var total, diag int64
	pairs, nonzero := 0, 0
	n := m.N()
	for i := 0; i < n; i++ {
		for j := i + 1; j < n; j++ {
			v := m.At(i, j)
			total += v
			d := j - i
			if d <= 2 || d >= n-2 { // ring-adjacent counts as diagonal
				diag += v
			}
			pairs++
			if v > 0 {
				nonzero++
			}
		}
	}
	s := MapSummary{}
	if total > 0 {
		s.DiagonalFrac = float64(diag) / float64(total)
	}
	if pairs > 0 {
		s.BackgroundFrac = float64(nonzero) / float64(pairs)
	}
	return s
}
