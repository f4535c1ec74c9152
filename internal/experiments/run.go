// Package experiments regenerates every table and figure of the paper's
// evaluation: cut-cost/remote-miss regression (Table 2, Figure 1),
// correlation maps (Tables 3 and 4), tracking overhead (Table 5), passive
// information gathering (Figure 2), free-zone analysis (Figure 3), and
// heuristic placement performance (Table 6), plus ablations for the
// claims of §5.1 (min-cost vs optimal vs stretch) and §4.2 (tracking cost
// scaling).
package experiments

import (
	"fmt"

	"actdsm/internal/apps"
	"actdsm/internal/core"
	"actdsm/internal/dsm"
	"actdsm/internal/sim"
	"actdsm/internal/system"
	"actdsm/internal/threads"
)

// RunConfig describes one application run on a simulated cluster.
type RunConfig struct {
	App        string
	Threads    int
	Nodes      int
	Scale      apps.Scale
	Iterations int // overrides the app default when positive
	Placement  []int
	// TrackIter selects the iteration for active correlation tracking;
	// negative disables tracking.
	TrackIter int
	// TrackDensity additionally captures per-access densities over the
	// same iteration (the §1 oracle; see core.DensityTracker).
	TrackDensity bool
	// Passive attaches a passive tracker to the run.
	Passive bool
	// ShuffleSeed randomizes per-node thread execution order.
	ShuffleSeed uint64
	Verify      bool
	// Cluster configures the DSM substrate, passed through the way
	// NewSystem passes SystemConfig.Cluster: Nodes and Pages are set
	// from Nodes and the application's layout, every other field goes
	// to dsm.New as-is. With Cluster.PrefetchBudget non-zero and
	// tracking enabled, the tracker's bitmaps drive the prediction once
	// the tracked iteration completes.
	Cluster dsm.Config
}

// RunResult captures everything the experiment tables need from one run.
type RunResult struct {
	Elapsed sim.Time
	// IterTime[i] is the elapsed virtual time of iteration i.
	IterTime []sim.Time
	// IterStats[i] is the protocol counter delta over iteration i.
	IterStats []dsm.Snapshot
	// Stats is the whole-run counter snapshot.
	Stats dsm.Snapshot
	// Tracker is non-nil when tracking was enabled.
	Tracker *core.ActiveTracker
	// Density is non-nil when TrackDensity was set.
	Density *core.DensityTracker
	// PassiveTracker is non-nil when Passive was set.
	PassiveTracker *core.PassiveTracker
	// Placement is the final thread → node assignment.
	Placement []int
	// SharedPages is the application's shared segment size.
	SharedPages int
}

// Run executes one configured application run and returns its measurements.
func Run(cfg RunConfig) (*RunResult, error) {
	app, err := apps.New(cfg.App, apps.Config{
		Threads:    cfg.Threads,
		Iterations: cfg.Iterations,
		Verify:     cfg.Verify,
		Scale:      cfg.Scale,
	})
	if err != nil {
		return nil, err
	}
	sys, err := system.NewSystem(app, cfg.Nodes, system.WithConfig(system.SystemConfig{
		Cluster:     cfg.Cluster,
		Placement:   cfg.Placement,
		ShuffleSeed: cfg.ShuffleSeed,
	}))
	if err != nil {
		return nil, err
	}
	defer func() { _ = sys.Close() }()
	eng, cl := sys.Engine(), sys.Cluster()

	res := &RunResult{SharedPages: cl.NumPages()}
	if cfg.Passive {
		res.PassiveTracker = core.NewPassiveTracker(eng)
	}
	lastTime := sim.Time(0)
	lastStats := cl.Stats().Snapshot()
	hooks := threads.Hooks{
		OnIteration: func(iter int) {
			now := eng.Elapsed()
			cur := cl.Stats().Snapshot()
			res.IterTime = append(res.IterTime, now-lastTime)
			res.IterStats = append(res.IterStats, cur.Sub(lastStats))
			lastTime, lastStats = now, cur
		},
	}
	if cfg.TrackIter >= 0 {
		if cfg.TrackDensity {
			res.Density = core.NewDensityTracker(eng, cfg.TrackIter)
			hooks = res.Density.Hooks(hooks)
			res.Density.Start()
		}
		res.Tracker, _ = sys.TrackIteration(cfg.TrackIter) // cannot fail before Run
	}
	_ = sys.SetHooks(hooks) // nor this
	if err := sys.Run(); err != nil {
		return nil, fmt.Errorf("experiments: run %s: %w", cfg.App, err)
	}
	res.Elapsed = eng.Elapsed()
	res.Stats = cl.Stats().Snapshot()
	res.Placement = eng.Placement()
	return res, nil
}

// TrackMatrix runs the application with active tracking on a steady-state
// iteration and returns the thread-correlation matrix.
func TrackMatrix(name string, nthreads, nodes int, scale apps.Scale) (*core.Matrix, error) {
	iters := 3
	res, err := Run(RunConfig{
		App:        name,
		Threads:    nthreads,
		Nodes:      nodes,
		Scale:      scale,
		Iterations: iters,
		TrackIter:  1,
	})
	if err != nil {
		return nil, err
	}
	return res.Tracker.Matrix(), nil
}

// steadyIterStats averages the per-iteration deltas over iterations
// [from, len): remote misses and elapsed time.
func steadyIterStats(res *RunResult, from int) (misses float64, t sim.Time) {
	n := 0
	var sumM int64
	var sumT sim.Time
	for i := from; i < len(res.IterStats); i++ {
		sumM += res.IterStats[i].RemoteMisses
		sumT += res.IterTime[i]
		n++
	}
	if n == 0 {
		return 0, 0
	}
	return float64(sumM) / float64(n), sumT / sim.Time(n)
}
