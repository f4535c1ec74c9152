// Command actbench regenerates the paper's tables and figures and the
// repository's deterministic benchmark lanes.
//
//	actbench [-scale test|paper] [-threads N] [-nodes N] [-configs N]
//	         [-seed N] [-apps a,b,c] [-only table2,figure3] [-maps-dir DIR]
//	         [-json-dir DIR] [-baseline-dir DIR]
//
// With no -only flag every section runs: the paper's tables, figures and
// ablations in paper order, then the lanes of actdsm.BenchLanes, then
// three sections that are not part of the paper — check (a short
// coherence model-checker sweep), transport (per-message call statistics
// over each transport) and sor (one observed run's per-epoch breakdown,
// DESIGN.md §9). -scale test (the default) finishes in seconds; -scale
// paper uses the Table 1 inputs and can take tens of minutes.
//
// Each lane's report is a committed BENCH_<lane>.json. -json-dir writes
// the fresh reports into a directory under those names; -baseline-dir
// compares each against the file of the same name there and fails the
// run on a regression (make bench-compare points both at the repository
// root).
//
// For the sor section, -trace-out writes a Perfetto timeline (open in
// ui.perfetto.dev; a timeline the event ring truncated is an error) and
// -metrics-out a Prometheus-style dump of every protocol counter; -pprof
// writes a CPU profile of the whole run.
package main

import (
	"flag"
	"fmt"
	"os"
	"path/filepath"
	"runtime/pprof"
	"strings"
	"time"

	"actdsm"
)

func main() {
	if err := run(); err != nil {
		fmt.Fprintln(os.Stderr, "actbench:", err)
		os.Exit(1)
	}
}

// section is one -only selectable unit of output.
type section struct {
	name, title string
	run         func() (string, error)
}

func run() error {
	var (
		scaleFlag = flag.String("scale", "test", "input scale: test or paper")
		threads   = flag.Int("threads", 64, "application threads")
		nodes     = flag.Int("nodes", 8, "cluster nodes")
		configs   = flag.Int("configs", 0, "random configurations for Table 2 (0 = default)")
		seed      = flag.Uint64("seed", 1999, "random seed")
		appsFlag  = flag.String("apps", "", "comma-separated app subset (default: paper set)")
		only      = flag.String("only", "", "comma-separated sections (table1..table6, figure2, figure3, ablation, prefetch, managers, serving, placement, failover, transport, check, sor)")
		mapsDir   = flag.String("maps-dir", "", "write correlation maps as PGM and SVG files to this directory")
		fig1CSV   = flag.String("figure1-csv", "", "write the Figure 1 scatter (Table 2 data) as CSV to this file")
		jsonDir   = flag.String("json-dir", "", "write each lane's report to BENCH_<lane>.json in this directory")
		baseDir   = flag.String("baseline-dir", "", "compare each lane's report against BENCH_<lane>.json in this directory; fail on a regression")
		traceOut  = flag.String("trace-out", "", "write a Perfetto/Chrome trace-event JSON timeline of the sor section to this file")
		metricOut = flag.String("metrics-out", "", "write a Prometheus-style metrics dump of the sor section to this file")
		pprofOut  = flag.String("pprof", "", "write a CPU profile of the whole run to this file")
	)
	flag.Parse()

	if *pprofOut != "" {
		f, err := os.Create(*pprofOut)
		if err != nil {
			return err
		}
		defer func() { _ = f.Close() }()
		if err := pprof.StartCPUProfile(f); err != nil {
			return err
		}
		defer pprof.StopCPUProfile()
	}

	opts := actdsm.ExperimentOptions{
		Threads:       *threads,
		Nodes:         *nodes,
		RandomConfigs: *configs,
		Seed:          *seed,
	}
	switch *scaleFlag {
	case "test":
		opts.Scale = actdsm.ScaleTest
	case "paper":
		opts.Scale = actdsm.ScalePaper
	default:
		return fmt.Errorf("unknown scale %q", *scaleFlag)
	}
	if *appsFlag != "" {
		opts.Apps = strings.Split(*appsFlag, ",")
	}

	maps := func(measure func(actdsm.ExperimentOptions) ([]actdsm.MapResult, error)) func() (string, error) {
		return func() (string, error) {
			m, err := measure(opts)
			if err != nil {
				return "", err
			}
			return renderMaps(m, *mapsDir)
		}
	}
	sections := []section{
		{"table1", "Table 1: application characteristics", rows(opts, actdsm.Table1, actdsm.FormatTable1)},
		{"table2", "Table 2: remote misses as a function of cut costs", func() (string, error) {
			r, err := actdsm.Table2(opts)
			if err != nil {
				return "", err
			}
			if *fig1CSV != "" {
				if err := os.WriteFile(*fig1CSV, []byte(actdsm.Table2CSV(r)), 0o644); err != nil {
					return "", err
				}
			}
			return actdsm.FormatTable2(r), nil
		}},
		{"table3", "Table 3: correlation maps (32/48/64 threads)", maps(actdsm.Table3)},
		{"table4", "Table 4: 64-thread FFT versus input set", maps(actdsm.Table4)},
		{"table5", "Table 5: tracking overhead", rows(opts, actdsm.Table5, actdsm.FormatTable5)},
		{"figure2", "Figure 2: passive information gathering", rows(opts, actdsm.Figure2, actdsm.FormatFigure2)},
		{"figure3", "Figure 3: 32-thread FFT free zones", rows(opts, actdsm.Figure3, actdsm.FormatFigure3)},
		{"table6", "Table 6: 8-node performance by heuristic", rows(opts, actdsm.Table6, actdsm.FormatTable6)},
		{"ablation", "Ablation: heuristic quality (paper §5.1)", rows(opts, actdsm.AblationHeuristics, actdsm.FormatAblationHeuristics)},
		{"ablation", "Ablation: tracking-cost scaling (paper §4.2)", rows(opts, actdsm.AblationScaling, actdsm.FormatAblationScaling)},
		{"ablation", "Ablation: page-count vs access-density correlation (paper §1)", rows(opts, actdsm.AblationDensity, actdsm.FormatAblationDensity)},
		{"ablation", "Ablation: multi-writer vs single-writer protocol (paper §6)", rows(opts, actdsm.AblationProtocol, actdsm.FormatAblationProtocol)},
	}
	for _, lane := range actdsm.BenchLanes() {
		sections = append(sections, section{lane.Name, lane.Title, laneSection(lane, opts, *jsonDir, *baseDir)})
	}
	sections = append(sections,
		section{"check", "Check: coherence model-checker sweep", func() (string, error) {
			return checkSweep(opts.Scale)
		}},
		section{"transport", "Transport: per-message call statistics (SOR)", func() (string, error) {
			return transportStats(*threads, *nodes, opts.Scale)
		}},
		section{"sor", "SOR: observed run, per-epoch time breakdown (DESIGN.md §9)", func() (string, error) {
			return observedSOR(*threads, *nodes, opts.Scale, *traceOut, *metricOut)
		}},
	)

	want := map[string]bool{}
	if *only != "" {
		for _, e := range strings.Split(*only, ",") {
			want[strings.TrimSpace(e)] = true
		}
	}
	for _, s := range sections {
		if len(want) > 0 && !want[s.name] {
			continue
		}
		start := time.Now()
		out, err := s.run()
		if err != nil {
			return fmt.Errorf("%s: %w", s.title, err)
		}
		fmt.Printf("== %s  (%.1fs)\n%s\n", s.title, time.Since(start).Seconds(), out)
	}
	return nil
}

// rows adapts an experiment and its formatter to a section body.
func rows[R any](o actdsm.ExperimentOptions, measure func(actdsm.ExperimentOptions) (R, error), format func(R) string) func() (string, error) {
	return func() (string, error) {
		r, err := measure(o)
		if err != nil {
			return "", err
		}
		return format(r), nil
	}
}

// laneSection runs one benchmark lane, optionally writing its report to
// jsonDir and gating it against the committed report in baselineDir.
func laneSection(lane actdsm.BenchLane, o actdsm.ExperimentOptions, jsonDir, baselineDir string) func() (string, error) {
	return func() (string, error) {
		out, report, err := lane.Run(o)
		if err != nil {
			return "", err
		}
		// Read the baseline before (possibly) overwriting it: make
		// bench-compare points both directories at the repository root.
		var baseline []byte
		basePath := filepath.Join(baselineDir, lane.Artifact)
		if baselineDir != "" {
			if baseline, err = os.ReadFile(basePath); err != nil {
				return "", err
			}
		}
		if jsonDir != "" {
			path := filepath.Join(jsonDir, lane.Artifact)
			if err := os.WriteFile(path, report, 0o644); err != nil {
				return "", err
			}
			out += fmt.Sprintf("\n(wrote %s)\n", path)
		}
		if baseline != nil {
			cmp, err := lane.Compare(baseline, report)
			out += "\n-- vs baseline " + basePath + " --\n" + cmp
			if err != nil {
				fmt.Print(out)
				return "", err
			}
		}
		return out, nil
	}
}

// renderMaps prints map summaries and optionally writes PGM images.
func renderMaps(maps []actdsm.MapResult, dir string) (string, error) {
	var b strings.Builder
	for _, m := range maps {
		fmt.Fprintf(&b, "-- %s, %d threads --\n%s\n", m.App, m.Threads, m.ASCII)
		if dir != "" {
			for ext, data := range map[string]string{
				"pgm": m.Matrix.RenderPGM(),
				"svg": m.Matrix.RenderSVG(6, nil),
			} {
				name := filepath.Join(dir, fmt.Sprintf("%s-%dt.%s", m.App, m.Threads, ext))
				if err := os.WriteFile(name, []byte(data), 0o644); err != nil {
					return "", fmt.Errorf("write %s: %w", name, err)
				}
				fmt.Fprintf(&b, "(wrote %s)\n", name)
			}
		}
	}
	return b.String(), nil
}
