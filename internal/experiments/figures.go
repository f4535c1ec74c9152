package experiments

import (
	"fmt"
	"strings"

	"actdsm/internal/apps"
	"actdsm/internal/core"
	"actdsm/internal/placement"
	"actdsm/internal/system"
	"actdsm/internal/threads"
	"actdsm/internal/vm"
)

// ---------------------------------------------------------------------------
// Figure 2: passive information gathering across migration rounds.

// Figure2Series is one application's passive-tracking completeness curve.
type Figure2Series struct {
	App string
	// Completeness[r] is the fraction of the full sharing information
	// gathered after round r (round = one iteration of fault snooping
	// followed by a migration to the best mapping known so far).
	Completeness []float64
	// Rounds is the number of rounds until no new information appeared
	// twice in a row.
	Rounds int
}

// Figure2 reproduces the passive-tracking experiment: per round, run one
// iteration gathering remote-fault information, choose a new mapping from
// the partial correlations, migrate, and repeat. The reference for
// completeness is a separate actively tracked run.
func Figure2(o Options) ([]Figure2Series, error) {
	o = o.Defaults()
	const maxRounds = 12
	var out []Figure2Series
	for _, name := range o.Apps {
		ref, err := referenceBitmaps(name, o)
		if err != nil {
			return nil, fmt.Errorf("figure2 %s: %w", name, err)
		}
		series, err := passiveRounds(name, o, ref, maxRounds)
		if err != nil {
			return nil, fmt.Errorf("figure2 %s: %w", name, err)
		}
		out = append(out, series)
	}
	return out, nil
}

// referenceBitmaps obtains complete access information via active
// tracking.
func referenceBitmaps(name string, o Options) ([]*vm.Bitmap, error) {
	res, err := Run(RunConfig{
		App: name, Threads: o.Threads, Nodes: o.Nodes,
		Scale: o.Scale, Iterations: 3, TrackIter: 1,
	})
	if err != nil {
		return nil, err
	}
	return res.Tracker.Bitmaps(), nil
}

// passiveRounds runs the migration-round loop with one long-lived engine,
// migrating between iterations. Local thread order is shuffled each
// interval, modelling the scheduling nondeterminism the paper describes.
func passiveRounds(name string, o Options, ref []*vm.Bitmap, maxRounds int) (Figure2Series, error) {
	series := Figure2Series{App: name}
	app, err := apps.New(name, apps.Config{
		Threads:    o.Threads,
		Iterations: maxRounds,
		Scale:      o.Scale,
	})
	if err != nil {
		return series, err
	}
	sys, err := system.NewSystem(app, o.Nodes, system.WithConfig(system.SystemConfig{ShuffleSeed: o.Seed + 2}))
	if err != nil {
		return series, err
	}
	defer func() { _ = sys.Close() }()
	eng := sys.Engine()
	pt := core.NewPassiveTracker(eng)
	stable := 0
	prev := 0.0
	_ = sys.SetHooks(threads.Hooks{OnIteration: func(iter int) { // cannot fail before Run
		comp := pt.Completeness(ref)
		series.Completeness = append(series.Completeness, comp)
		if comp <= prev {
			stable++
		} else {
			stable = 0
			series.Rounds = iter + 1
		}
		prev = comp
		// Migrate to the best mapping the partial information
		// suggests (the source of the paper's ping-ponging).
		m := pt.Matrix()
		target := placement.MinCost(m, o.Nodes)
		aligned := placement.AlignLabels(target, eng.Placement(), o.Nodes)
		if _, err := eng.ApplyPlacement(aligned); err != nil {
			// Migration failures would invalidate the series;
			// surface via a panic-free path by truncating.
			series.Completeness = series.Completeness[:len(series.Completeness)-1]
		}
	}})
	err = sys.Run()
	return series, err
}

// FormatFigure2 renders the completeness curves as a text table.
func FormatFigure2(series []Figure2Series) string {
	var b strings.Builder
	b.WriteString("Passive information gathered (% of complete) per migration round\n")
	for _, s := range series {
		fmt.Fprintf(&b, "%-8s:", s.App)
		for _, c := range s.Completeness {
			fmt.Fprintf(&b, " %5.1f", 100*c)
		}
		fmt.Fprintf(&b, "   (stabilized after ~%d rounds)\n", s.Rounds)
	}
	return b.String()
}

// ---------------------------------------------------------------------------
// Figure 3: free zones under different configurations.

// Figure3Config is one panel of the paper's Figure 3.
type Figure3Config struct {
	Label       string
	Nodes       int
	Assign      []int
	CutCost     int64
	FreeSharing float64
	Overlay     string
}

// Figure3 analyses the 32-thread FFT on (a) four nodes contiguous, (b)
// eight nodes contiguous, and (c) four nodes randomized, reporting cut
// costs and free-zone coverage.
func Figure3(o Options) ([]Figure3Config, error) {
	o = o.Defaults()
	const nt = 32
	m, err := TrackMatrix("FFT6", nt, 4, o.Scale)
	if err != nil {
		return nil, fmt.Errorf("figure3: %w", err)
	}
	rng := newRNG(o.Seed + 3)
	configs := []Figure3Config{
		{Label: "(a) 4 nodes, contiguous", Nodes: 4, Assign: placement.Stretch(nt, 4)},
		{Label: "(b) 8 nodes, contiguous", Nodes: 8, Assign: placement.Stretch(nt, 8)},
		{Label: "(c) 4 nodes, randomized", Nodes: 4, Assign: placement.RandomBalanced(nt, 4, rng)},
	}
	for i := range configs {
		c := &configs[i]
		c.CutCost = m.CutCost(c.Assign)
		c.FreeSharing = m.FreeSharing(c.Assign)
		c.Overlay = m.FreeZoneOverlay(c.Assign)
	}
	return configs, nil
}

// FormatFigure3 renders the three panels with their metrics.
func FormatFigure3(cfgs []Figure3Config) string {
	var b strings.Builder
	for _, c := range cfgs {
		fmt.Fprintf(&b, "%s: cut cost %d, free sharing %.1f%%\n%s\n",
			c.Label, c.CutCost, 100*c.FreeSharing, c.Overlay)
	}
	return b.String()
}
