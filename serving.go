package actdsm

import (
	"context"
	"errors"

	"actdsm/internal/obs"
	"actdsm/internal/serve"
	"actdsm/internal/threads"
)

// Workload facade: the engine-facing contract under both application
// shapes. Epoch apps (App) and request-driven services (ServingApp) run
// through the same NewSystem/Run path; see DESIGN.md §11.
type (
	// Workload is any runnable application: a name, a thread count, a
	// shared-segment layout, and one body per thread. App satisfies it
	// structurally, so every existing epoch app is a Workload.
	Workload = threads.Workload
	// EpochApp is a batch workload with a fixed iteration count —
	// identical to the method set of App.
	EpochApp = threads.EpochWorkload
	// ServingConfig configures the online KV serving workload and its
	// closed-loop load generator (internal/serve); see the README's
	// "Serving" knobs table.
	ServingConfig = serve.Config
	// ServeReport is a serving run's stable result: achieved QPS, exact
	// p50/p99/p999 virtual latency, and per-kind transport calls over
	// the measurement span.
	ServeReport = serve.Report
	// ServeKindCalls is one message kind's call count in a ServeReport.
	ServeKindCalls = serve.KindCalls
)

// Compile-time pins for the workload API split: every epoch App is an
// EpochApp and hence a Workload, and the serving KV satisfies
// ServingApp. A drift in any method set fails the build here.
var (
	_ EpochApp   = App(nil)
	_ Workload   = EpochApp(nil)
	_ ServingApp = (*serve.KV)(nil)
)

// ServingApp is the request-driven side of the workload split: a
// Workload that serves an open-ended or window-bounded request stream,
// can be asked to stop, and reports serving measurements afterwards.
type ServingApp interface {
	Workload
	// Report returns the serving measurements; it errors until at least
	// one measured window has completed.
	Report() (*ServeReport, error)
	// Stop asks the clients to wind down at the next window boundary
	// (safe to call concurrently with the run).
	Stop()
}

// ServeLatencyBuckets is the number of buckets in
// ServeReport.LatencyHist (power-of-two virtual-time bounds, see
// ServeBucketBound).
const ServeLatencyBuckets = serve.LatencyBuckets

// ServeBucketBound returns the inclusive lower bound of a
// ServeReport.LatencyHist bucket.
var ServeBucketBound = serve.BucketBound

// ServeMetricsText renders a ServeReport in Prometheus text format,
// the serving counterpart of MetricsText.
var ServeMetricsText = obs.ServeMetricsText

// NewServingApp builds the online KV serving workload from cfg (zero
// fields take documented defaults). Run it like any workload —
// NewSystem(app, nodes) then Run or RunContext — and read app.Report()
// afterwards; or use the one-call ServeKV.
func NewServingApp(cfg ServingConfig) (ServingApp, error) { return serve.NewKV(cfg) }

// ServeKV runs one closed-loop KV serving benchmark: it builds the
// workload from cfg, runs it on a System built with opts under ctx —
// cancellation stops the load generator, which is how open-ended runs
// (MeasureWindows == 0) terminate — and returns the report.
func ServeKV(ctx context.Context, nodes int, cfg ServingConfig, opts ...SystemOption) (*ServeReport, error) {
	app, err := NewServingApp(cfg)
	if err != nil {
		return nil, err
	}
	sys, err := NewSystem(app, nodes, opts...)
	if err != nil {
		return nil, err
	}
	defer func() { _ = sys.Close() }()
	if err := sys.RunContext(ctx); err != nil && !errors.Is(err, context.Canceled) {
		return nil, err
	}
	return app.Report()
}
