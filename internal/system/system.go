// Package system assembles one run of the paper's loop: an application's
// shared-segment layout, the DSM cluster sized for it, the thread engine
// hosting its threads, and — composed in one fixed order — the user hooks,
// the online placement controller, a serving workload's window
// instrumentation and the active correlation tracker (paper §4–§5), plus
// the tracker-driven prefetch predictor. The facade re-exports it as
// actdsm.System; the paper tables, the bench lanes and the model checker
// build their runs through it, so every run is assembled the one way that
// ships.
package system

import (
	"context"
	"errors"
	"fmt"

	"actdsm/internal/core"
	"actdsm/internal/dsm"
	"actdsm/internal/memlayout"
	"actdsm/internal/obs"
	"actdsm/internal/placement"
	"actdsm/internal/sim"
	"actdsm/internal/threads"
	"actdsm/internal/vm"
)

// The observability recorder plugs into the engine through the
// structural threads.Observer interface; pin the contract here so a
// drift in either signature set fails the build at the wiring site.
var _ threads.Observer = (*obs.Recorder)(nil)

// System bundles an application with a DSM cluster and thread engine,
// giving interactive control (hooks, tracking, migration) that the
// one-shot Run helper does not.
//
// Lifecycle: a System moves through exactly two phases.
//
//  1. Configuration — between NewSystem and Run. SetHooks and
//     TrackIteration may be called (in any order relative to each
//     other: Run composes them, so hook installation and tracking
//     arm-up cannot race).
//  2. Running/finished — once Run has been called. SetHooks and
//     TrackIteration return ErrAlreadyRan: silently accepting them
//     (the old behaviour) meant a TrackIteration after Run produced a
//     tracker that never fired.
//
// Run itself returns ErrAlreadyRan on a second call.
type System struct {
	app      threads.Workload
	cluster  *dsm.Cluster
	engine   *threads.Engine
	layout   *memlayout.Layout
	tracker  *core.ActiveTracker
	recorder *obs.Recorder
	hooks    threads.Hooks
	ctrlCfg  *placement.ControllerConfig
	ctrl     *placement.Controller
	ran      bool
}

// ErrAlreadyRan reports a configuration call (SetHooks, TrackIteration)
// or a second Run on a System whose Run has already been invoked.
var ErrAlreadyRan = errors.New("actdsm: system already ran")

// SystemConfig is a System's complete configuration: the DSM cluster's
// dsm.Config plus the engine-level knobs (initial placement, execution
// shuffling, observability, the placement controller). Each field is set
// one way, as a field of this struct, so a new cluster knob is surfaced
// here by adding it to dsm.Config alone — there is no parallel field
// chain to maintain. The hardware — node speeds included — is
// Cluster.Topology.
type SystemConfig struct {
	// Cluster configures the DSM substrate. NewSystem overwrites
	// Cluster.Nodes (from its node-count argument) and Cluster.Pages
	// (from the application's shared-segment layout); every other field
	// is passed through to dsm.New as-is.
	Cluster dsm.Config
	// Placement is the initial thread → node assignment (default:
	// stretch).
	Placement []int
	// ShuffleSeed randomizes per-node thread execution order.
	ShuffleSeed uint64
	// Obs configures the observability layer (off by default). When
	// enabled, NewSystem attaches an event recorder to the engine and
	// the cluster's protocol probe; retrieve it with System.Recorder
	// after the run to export a Perfetto trace (WriteTrace), a metrics
	// dump (WriteMetrics), or a per-epoch breakdown (Breakdown).
	Obs obs.Config
	// Controller, when non-nil, runs the online placement controller
	// (placement v2, DESIGN.md §14): at iteration boundaries it scores
	// the joint (thread → node, page → home) assignment under the
	// unified cost model and issues thread migrations and explicit
	// page-home moves together, subject to the configured trigger
	// period, hysteresis threshold, and per-epoch move budgets. Only a
	// zero Period takes a default; zero budgets disable their side, so
	// start from placement.DefaultControllerConfig for the stock
	// policy. A non-zero home budget requires the multi-writer
	// protocol. If TrackIteration was not called, Run arms a tracker at
	// placement.FirstWindow automatically.
	Controller *placement.ControllerConfig
}

// SystemOption customizes NewSystem by mutating a SystemConfig.
type SystemOption func(*SystemConfig)

// WithConfig sets the whole SystemConfig — the one option; every knob
// is a field of the struct it takes.
func WithConfig(c SystemConfig) SystemOption {
	return func(sc *SystemConfig) { *sc = c }
}

// NewSystem builds a cluster sized for the workload's shared segment
// and an engine hosting its threads. Any Workload runs here — epoch
// apps (App, which satisfies Workload structurally, so existing call
// sites compile unchanged) and request-driven services (ServingApp)
// alike; the engine does not care which shape it hosts.
func NewSystem(app threads.Workload, nodes int, opts ...SystemOption) (*System, error) {
	var cfg SystemConfig
	for _, o := range opts {
		o(&cfg)
	}
	layout := memlayout.NewLayout()
	if err := app.Setup(layout); err != nil {
		return nil, fmt.Errorf("actdsm: set up %s: %w", app.Name(), err)
	}
	ccfg := cfg.Cluster
	ccfg.Nodes = nodes
	ccfg.Pages = layout.TotalPages()
	cluster, err := dsm.New(ccfg)
	if err != nil {
		return nil, err
	}
	engine, err := threads.NewEngine(cluster, threads.Config{
		Threads:     app.Threads(),
		Placement:   cfg.Placement,
		ShuffleSeed: cfg.ShuffleSeed,
	})
	if err != nil {
		_ = cluster.Close()
		return nil, err
	}
	sys := &System{app: app, cluster: cluster, engine: engine, layout: layout, ctrlCfg: cfg.Controller}
	sys.recorder = obs.NewRecorder(cfg.Obs)
	if sys.recorder.Enabled() {
		cluster.SetProbe(sys.recorder.Probe())
		engine.SetObserver(sys.recorder)
	}
	return sys, nil
}

// App returns the system's workload (an App, a ServingApp, or any
// other Workload it was built over).
func (s *System) App() threads.Workload { return s.app }

// Cluster returns the DSM cluster (statistics, coherence checks).
func (s *System) Cluster() *dsm.Cluster { return s.cluster }

// Engine returns the thread engine (placement, migration, clocks).
func (s *System) Engine() *threads.Engine { return s.engine }

// Layout returns the application's shared-segment layout.
func (s *System) Layout() *memlayout.Layout { return s.layout }

// Recorder returns the observability recorder. It is never nil; when
// observability is off (the default) the recorder is disabled — its
// Enabled method reports false and exports are empty.
func (s *System) Recorder() *obs.Recorder { return s.recorder }

// SetHooks installs engine hooks; it must be called before Run and
// returns ErrAlreadyRan afterwards (hooks installed on a running or
// finished system would silently never fire for already-past events).
// If tracking was requested, the tracker's instrumentation wraps these
// hooks; SetHooks and TrackIteration may be called in either order.
func (s *System) SetHooks(h threads.Hooks) error {
	if s.ran {
		return fmt.Errorf("actdsm: SetHooks after Run: %w", ErrAlreadyRan)
	}
	s.hooks = h
	return nil
}

// TrackIteration arms active correlation tracking for the given 0-based
// iteration and returns the tracker. It must be called before Run and
// returns ErrAlreadyRan afterwards: previously a post-Run call was
// silently accepted and produced a tracker that never fired. (To track
// again *during* a run, use ActiveTracker.Retrack from a hook — see
// examples/adaptive.)
func (s *System) TrackIteration(iter int) (*core.ActiveTracker, error) {
	if s.ran {
		return nil, fmt.Errorf("actdsm: TrackIteration after Run: %w", ErrAlreadyRan)
	}
	s.tracker = core.NewActiveTracker(s.engine, iter)
	return s.tracker, nil
}

// Run executes the workload to completion. It composes the hooks and
// tracker configured beforehand, wires the correlation-driven prefetch
// predictor (when the cluster's PrefetchBudget enables prefetch), and
// returns ErrAlreadyRan on a second call.
func (s *System) Run() error { return s.RunContext(context.Background()) }

// servingHooked is the structural contract a workload exposes to have
// serving instrumentation composed into the engine hooks: the returned
// hooks must delegate to inner after their own window bookkeeping.
// serve.KV satisfies it; the facade stays decoupled from the concrete
// type so future serving workloads plug in the same way.
type servingHooked interface {
	ServingHooks(inner threads.Hooks, elapsed func() sim.Time, snapshot func(*dsm.Snapshot)) threads.Hooks
}

// stoppable lets RunContext wind a workload down on ctx cancellation.
type stoppable interface{ Stop() }

// RunContext is Run under a context: cancelling ctx stops the engine at
// its next scheduling step and, for workloads with a Stop method
// (ServingApp), asks the load generator to wind down — the way
// open-ended serving runs (MeasureWindows == 0) terminate. It returns
// ctx.Err() when cancellation cut the run short.
//
// Hook composition order: the placement controller wraps the user
// hooks, the workload's own serving instrumentation (window spans)
// wraps both, and the tracker wraps all — so tracker begin/end still
// brackets exactly the tracked iteration and the controller sees a
// complete correlation window the same iteration it closes.
func (s *System) RunContext(ctx context.Context) error {
	if s.ran {
		return ErrAlreadyRan
	}
	s.ran = true
	hooks := s.hooks
	if s.ctrlCfg != nil {
		if s.tracker == nil {
			// Arm a tracker for the controller's first window.
			s.tracker = core.NewActiveTracker(s.engine, placement.FirstWindow)
		}
		ctrl, err := placement.NewController(s.cluster, s.engine, s.tracker, *s.ctrlCfg)
		if err != nil {
			return err
		}
		s.ctrl = ctrl
		hooks = ctrl.Hooks(hooks)
	}
	if sh, ok := s.app.(servingHooked); ok {
		hooks = sh.ServingHooks(hooks, s.engine.Elapsed, s.cluster.Stats().SnapshotTo)
	}
	if s.tracker != nil {
		s.engine.SetHooks(s.tracker.Hooks(hooks))
		s.tracker.Start()
	} else {
		s.engine.SetHooks(hooks)
	}
	if st, ok := s.app.(stoppable); ok {
		defer context.AfterFunc(ctx, st.Stop)()
	}
	// Correlation-driven prefetch prediction: once the tracker has a
	// complete iteration's bitmaps, a node's prediction is the union of
	// its resident threads' access bitmaps — the same data placement
	// spends on cut costs, spent here on data movement. Before tracking
	// completes (or without a tracker) the predictor returns nil and the
	// cluster falls back to each node's fault-window history.
	tracker, engine, cluster := s.tracker, s.engine, s.cluster
	cluster.SetPrefetchPredictor(func(node int) *vm.Bitmap {
		if tracker == nil || !tracker.Done() {
			return nil
		}
		return core.PredictNodePages(tracker.Bitmaps(), engine.Placement(), node, cluster.NumPages())
	})
	err := s.engine.RunContext(ctx, s.app.Body)
	if err == nil && s.ctrl != nil {
		// Hook callbacks cannot return errors; surface the controller's
		// first apply-side failure here.
		err = s.ctrl.Err()
	}
	return err
}

// PlacementController returns the online placement controller wired by
// SystemConfig.Controller, or nil when none was configured or Run has
// not yet been called (RunContext constructs it).
func (s *System) PlacementController() *placement.Controller { return s.ctrl }

// Elapsed returns the cluster-wide elapsed virtual time.
func (s *System) Elapsed() sim.Time { return s.engine.Elapsed() }

// Close releases cluster resources.
func (s *System) Close() error { return s.cluster.Close() }
