package benchmark

import (
	"encoding/json"
	"fmt"
	"io"
	"os"
	"path/filepath"
	"text/tabwriter"
)

// Comparing two result sets. A set is a directory of summaries, as the
// runs' -out flag writes them: several untraced runs of each workload,
// each with another seed. For every workload and end-to-end metric the
// comparison gives each side's median and quartiles, the metric's bound,
// and a verdict on B against A:
//
//	worse       B's median is worse than A's by more than the bound, and
//	            by more than either side's own spread
//	better      B's median is better by more than A's own spread (the
//	            distance between its quartiles) and B wins at least nine
//	            tenths of the seed-matched pairs, ties counting for neither
//	unresolved  neither, and a side's spread is wider than the bound, so
//	            "no regression" cannot be told from noise
//	same        neither, within a spread that the bound resolves
//
// Two sets of the same commit agree when no row is worse or unresolved.

// sideStats summarises one side's values of one metric on one workload.
type sideStats struct {
	n           int
	med, q1, q3 float64
}

// compareRow is the comparison of one metric on one workload.
type compareRow struct {
	workload string
	metric   e2eMetric
	a, b     sideStats
	// change is (B − A) / A of the medians, positive when B is worse.
	change  float64
	verdict string
}

// loadSet reads the untraced summaries in dir.
func loadSet(dir string) ([]summary, error) {
	paths, err := filepath.Glob(filepath.Join(dir, "*.json"))
	if err != nil {
		return nil, err
	}
	var set []summary
	for _, p := range paths {
		data, err := os.ReadFile(p)
		if err != nil {
			return nil, err
		}
		var s summary
		if err := json.Unmarshal(data, &s); err != nil {
			return nil, fmt.Errorf("benchmark: %s: %w", p, err)
		}
		if s.Trace == 0 && s.Workload != "" {
			set = append(set, s)
		}
	}
	if len(set) == 0 {
		return nil, fmt.Errorf("benchmark: no untraced run summaries in %s", dir)
	}
	return set, nil
}

// bySeed returns the metric's value per seed on one workload.
func bySeed(set []summary, workload, metric string) map[uint64]float64 {
	out := map[uint64]float64{}
	for _, s := range set {
		if m, ok := s.Metrics[metric]; ok && s.Workload == workload {
			out[s.Seed] = m.Value
		}
	}
	return out
}

func statsOf(byseed map[uint64]float64) (sideStats, []float64) {
	var xs []float64
	for _, v := range byseed {
		xs = append(xs, v)
	}
	q1, q3 := quartiles(xs)
	return sideStats{n: len(xs), med: median(xs), q1: q1, q3: q3}, xs
}

// compareSets compares set B against set A on every workload and
// end-to-end metric both have.
func compareSets(a, b []summary) []compareRow {
	var rows []compareRow
	for _, w := range workloads {
		for _, m := range endToEnd {
			av, bv := bySeed(a, w.name, m.name), bySeed(b, w.name, m.name)
			if len(av) == 0 || len(bv) == 0 {
				continue
			}
			row := compareRow{workload: w.name, metric: m}
			var axs, bxs []float64
			row.a, axs = statsOf(av)
			row.b, bxs = statsOf(bv)
			// sign turns "B − A" into "how much worse B is".
			sign := 1.0
			if m.better == "higher" {
				sign = -1
			}
			if row.a.med != 0 {
				row.change = sign * (row.b.med - row.a.med) / row.a.med
			}
			var pairs, wins int
			for seed, x := range av {
				if y, ok := bv[seed]; ok {
					pairs++
					if sign*(y-x) < 0 {
						wins++
					}
				}
			}
			noise := max(spread(axs), spread(bxs))
			switch {
			case row.change > m.bound && row.change > noise:
				row.verdict = "worse"
			case -row.change > spread(axs) && pairs > 0 && 10*wins >= 9*pairs:
				row.verdict = "better"
			case noise > m.bound:
				row.verdict = "unresolved"
			default:
				row.verdict = "same"
			}
			rows = append(rows, row)
		}
	}
	return rows
}

// compareMain is the -compare mode: it prints the comparison of the two
// directories named in args and returns 0 when the sets agree, 1 when a
// row is worse or unresolved, 2 when the sets cannot be read.
func compareMain(w io.Writer, args []string) int {
	if len(args) != 2 {
		fmt.Fprintln(os.Stderr, "usage: -compare DIR_A DIR_B")
		return 2
	}
	var sets [2][]summary
	for i, dir := range args {
		set, err := loadSet(dir)
		if err != nil {
			fmt.Fprintln(os.Stderr, err)
			return 2
		}
		sets[i] = set
	}
	return printComparison(w, compareSets(sets[0], sets[1]))
}

func printComparison(w io.Writer, rows []compareRow) int {
	tw := tabwriter.NewWriter(w, 0, 0, 2, ' ', 0)
	fmt.Fprintln(tw, "workload\tmetric\tunit\tA n\tA median [q1, q3]\tB n\tB median [q1, q3]\tB vs A\tbound\tverdict")
	disagree := 0
	for _, r := range rows {
		fmt.Fprintf(tw, "%s\t%s\t%s\t%d\t%.6g [%.6g, %.6g]\t%d\t%.6g [%.6g, %.6g]\t%+.2f%%\t%.3g%%\t%s\n",
			r.workload, r.metric.name, r.metric.unit,
			r.a.n, r.a.med, r.a.q1, r.a.q3, r.b.n, r.b.med, r.b.q1, r.b.q3,
			100*r.change, 100*r.metric.bound, r.verdict)
		if r.verdict == "worse" || r.verdict == "unresolved" {
			disagree++
		}
	}
	if err := tw.Flush(); err != nil {
		fmt.Fprintln(os.Stderr, err)
		return 2
	}
	fmt.Fprintf(w, "%d rows, %d worse or unresolved; positive \"B vs A\" means B is worse\n", len(rows), disagree)
	if disagree > 0 {
		return 1
	}
	return 0
}
