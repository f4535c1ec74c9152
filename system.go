package actdsm

import (
	"fmt"

	"actdsm/internal/system"
)

// The run assembly (internal/system), re-exported: NewSystem builds the
// cluster and engine for a workload, and System.Run composes the user
// hooks, the placement controller, serving instrumentation and the
// tracker in the one order every run in the repository uses.
type (
	// System bundles an application with a DSM cluster and thread
	// engine, giving interactive control (hooks, tracking, migration)
	// that the one-shot Run helper does not. SetHooks and
	// TrackIteration configure it before Run and return ErrAlreadyRan
	// after it.
	System = system.System
	// SystemConfig is a System's complete configuration: the cluster's
	// ClusterConfig plus the engine-level knobs.
	SystemConfig = system.SystemConfig
	// SystemOption customizes NewSystem by mutating a SystemConfig;
	// WithConfig is the one option.
	SystemOption = system.SystemOption
)

// ErrAlreadyRan reports a configuration call (SetHooks, TrackIteration)
// or a second Run on a System whose Run has already been invoked.
var ErrAlreadyRan = system.ErrAlreadyRan

// NewSystem and its option.
var (
	// NewSystem builds a cluster sized for the workload's shared
	// segment and an engine hosting its threads.
	NewSystem = system.NewSystem
	// WithConfig sets the whole SystemConfig; every knob is one of its
	// fields.
	WithConfig = system.WithConfig
)

// customApp adapts user-provided setup and body functions to the App
// interface, letting downstream code define new workloads against the
// public API (the adaptive example uses this).
type customApp struct {
	name    string
	threads int
	iters   int
	setup   func(*Layout) error
	body    func(tid int) Body
}

var _ App = (*customApp)(nil)

// NewCustomApp wraps setup and per-thread body functions as an App. The
// body must follow the SPMD conventions of the built-in applications:
// thread 0 initializes shared data before a barrier, and every iteration
// ends with ctx.EndIteration() (iterations total iters).
func NewCustomApp(name string, nthreads, iters int, setup func(*Layout) error, body func(tid int) Body) (App, error) {
	if nthreads <= 0 || iters <= 0 {
		return nil, fmt.Errorf("actdsm: custom app %q: threads and iterations must be positive", name)
	}
	if setup == nil || body == nil {
		return nil, fmt.Errorf("actdsm: custom app %q: setup and body are required", name)
	}
	return &customApp{name: name, threads: nthreads, iters: iters, setup: setup, body: body}, nil
}

func (c *customApp) Name() string          { return c.name }
func (c *customApp) Threads() int          { return c.threads }
func (c *customApp) Iterations() int       { return c.iters }
func (c *customApp) Setup(l *Layout) error { return c.setup(l) }
func (c *customApp) Body(tid int) Body     { return c.body(tid) }
func (c *customApp) String() string        { return c.name }
