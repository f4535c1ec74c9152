// Package actdsm is a from-scratch Go reproduction of "Active Correlation
// Tracking" (Thitikamol & Keleher, ICDCS 1999): a page-based software
// distributed shared memory in the style of CVM (lazy release consistency,
// multi-writer twins and diffs), a per-node user-level thread engine with
// migration, the SPLASH-2-style applications the paper evaluates, and —
// the paper's contribution — active and passive correlation tracking with
// cut-cost-driven thread placement.
//
// The package is a facade: it re-exports the stable surface of the
// internal packages so applications, tools, and examples program against
// one import. The building blocks compose as follows:
//
//	app, _ := actdsm.NewApp("SOR", actdsm.AppConfig{Threads: 64})
//	sys, _ := actdsm.NewSystem(app, 8)
//	defer sys.Close()
//	tracker, _ := sys.TrackIteration(1) // active correlation tracking
//	_ = sys.Run()
//	m := tracker.Matrix()               // thread correlations
//	best := actdsm.MinCost(m, 8)        // placement from cut costs
//
// or, for whole experiments, the one-shot Run/TrackMatrix helpers and the
// Table1..Table6/Figure2/Figure3 reproduction harness.
package actdsm

import (
	"actdsm/internal/apps"
	"actdsm/internal/core"
	"actdsm/internal/dsm"
	"actdsm/internal/experiments"
	"actdsm/internal/memlayout"
	"actdsm/internal/obs"
	"actdsm/internal/placement"
	"actdsm/internal/sim"
	"actdsm/internal/threads"
	"actdsm/internal/transport"
	"actdsm/internal/vm"
)

// Core building blocks, re-exported.
type (
	// App is a runnable DSM application (SOR, FFT6..8, LU1k/2k, Ocean,
	// Water, Spatial, Barnes, or a custom app).
	App = apps.App
	// AppConfig selects thread count, input scale, iteration count, and
	// verification for an application.
	AppConfig = apps.Config
	// Scale selects test-sized or paper-sized inputs.
	Scale = apps.Scale
	// Layout allocates named page-aligned regions of the shared segment.
	Layout = memlayout.Layout
	// Region is a named page-aligned range of the shared segment.
	Region = memlayout.Region
	// Body is one application thread's code.
	Body = threads.Body
	// Ctx is a thread's handle to shared memory and synchronization.
	Ctx = threads.Ctx
	// Hooks observe engine events (iterations, barriers, thread runs).
	Hooks = threads.Hooks
	// Engine runs application threads over a DSM cluster.
	Engine = threads.Engine
	// Cluster is the DSM substrate.
	Cluster = dsm.Cluster
	// ClusterConfig configures a DSM cluster.
	ClusterConfig = dsm.Config
	// Stats holds the DSM's protocol counters.
	Stats = dsm.Stats
	// Snapshot is a point-in-time copy of protocol counters, including
	// the per-message-type call table (counts, bytes, retries, latency
	// histograms; render it with Snapshot.FormatCalls).
	Snapshot = dsm.Snapshot
	// Counters is the comparable, transport-independent subset of
	// Snapshot used by determinism and equivalence tests.
	Counters = dsm.Counters
	// CallSnapshot is one message type's call counters and latency
	// histogram within a Snapshot.
	CallSnapshot = dsm.CallSnapshot
	// TransportOptions tunes transport resilience: per-call timeouts
	// and bounded retry with exponential backoff and jitter.
	TransportOptions = transport.Options
	// ChaosOptions configures transport fault injection (drops, delays,
	// duplicates, partitions) for resilience testing.
	ChaosOptions = transport.ChaosOptions
	// Fault is one injected transport failure mode.
	Fault = transport.Fault
	// Time is virtual time in nanoseconds.
	Time = sim.Time
	// Costs is the virtual-time cost model.
	Costs = sim.Costs
	// Topology is the heterogeneous cost model: per-node compute scaling
	// plus a per-directed-link latency/bandwidth matrix (ClusterConfig.
	// Topology; nil or NewTopology behaves exactly like the uniform
	// Costs model).
	Topology = sim.Topology
	// LinkCost is one directed link's latency and per-byte cost.
	LinkCost = sim.LinkCost
	// LinkSnapshot is one directed link's traffic counters within a
	// Snapshot (render the table with Snapshot.FormatLinks).
	LinkSnapshot = dsm.LinkSnapshot
	// RNG is the deterministic random-number generator.
	RNG = sim.RNG
	// Bitmap is a per-thread page-access bitmap.
	Bitmap = vm.Bitmap
	// Matrix is a symmetric thread-correlation matrix.
	Matrix = core.Matrix
	// ActiveTracker implements the paper's active correlation tracking.
	ActiveTracker = core.ActiveTracker
	// PassiveTracker implements fault-snooping passive tracking, with
	// the §1 aging mechanism (Decay).
	PassiveTracker = core.PassiveTracker
	// DensityTracker captures per-access densities — the §1 "ideal"
	// correlation measure, available here because the software MMU
	// observes every access.
	DensityTracker = core.DensityTracker
	// Move is one thread migration of a reconfiguration plan.
	Move = placement.Move
	// ControllerConfig tunes the online placement controller (trigger
	// period, hysteresis, per-epoch move budgets, matrix smoothing).
	ControllerConfig = placement.ControllerConfig
	// Controller is the online placement controller: joint thread +
	// page-home re-placement at iteration boundaries (DESIGN.md §14).
	// Wire one with WithPlacementController.
	Controller = placement.Controller
	// CostInput carries the cluster state the joint placement cost
	// model prices (correlation matrix, access bitmaps, write history,
	// topology).
	CostInput = placement.CostInput
	// HomeMove is one proposed page-home reassignment with its
	// predicted joint-cost gain.
	HomeMove = placement.HomeMove
	// ObsRecorder is the observability layer's event recorder: epoch
	// timelines, Perfetto trace export (WriteTrace), metrics dump
	// (WriteMetrics), and per-epoch breakdown (Breakdown). Obtain one
	// via WithObservability + System.Recorder. (Not to be confused with
	// Recorder, the page-access trace capturer.)
	ObsRecorder = obs.Recorder
	// ObsConfig configures the observability recorder (enablement and
	// ring-buffer capacity).
	ObsConfig = obs.Config
	// ObsEvent is one structured observability event.
	ObsEvent = obs.Event
	// Breakdown is the per-epoch critical-path report.
	Breakdown = obs.Breakdown
	// Probe is the DSM protocol's instrumentation hook set (the
	// coherence checker and the observability layer both feed on it).
	Probe = dsm.Probe
)

// Observability exporters usable without a Recorder.
var (
	// MetricsText renders a Snapshot in Prometheus text format.
	MetricsText = obs.MetricsText
	// TraceJSON renders recorded events as Chrome trace-event JSON.
	TraceJSON = obs.TraceJSON
	// ComputeBreakdown folds recorded events into per-epoch summaries.
	ComputeBreakdown = obs.ComputeBreakdown
)

// Input-size classes.
const (
	// ScaleTest selects small inputs that run in milliseconds.
	ScaleTest = apps.ScaleTest
	// ScalePaper selects the paper's Table 1 inputs.
	ScalePaper = apps.ScalePaper
)

// PageSize is the shared-segment page size in bytes.
const PageSize = memlayout.PageSize

// Injected transport fault modes (ChaosOptions.Plan return values).
const (
	FaultNone        = transport.FaultNone
	FaultDropRequest = transport.FaultDropRequest
	FaultDropReply   = transport.FaultDropReply
	FaultDuplicate   = transport.FaultDuplicate
	FaultDelay       = transport.FaultDelay
)

// Protocol selects the DSM coherence protocol.
type Protocol = dsm.Protocol

// Coherence protocols.
const (
	// MultiWriter is the CVM-like lazy-release-consistency protocol.
	MultiWriter = dsm.MultiWriter
	// SingleWriter is the ownership/invalidation protocol used by the
	// protocol ablation (paper §6's comparison point).
	SingleWriter = dsm.SingleWriter
)

// NewApp builds a named application; see AppNames for the catalogue.
func NewApp(name string, cfg AppConfig) (App, error) { return apps.New(name, cfg) }

// AppNames lists the available applications.
func AppNames() []string { return apps.Names() }

// SharedPages returns an application's shared-segment size in pages.
func SharedPages(a App) (int, error) { return apps.SharedPages(a) }

// NewRNG returns a deterministic random-number generator.
func NewRNG(seed uint64) *RNG { return sim.NewRNG(seed) }

// DefaultCosts returns the default virtual-time cost model.
func DefaultCosts() Costs { return sim.DefaultCosts() }

// Heterogeneous topology constructors (ClusterConfig.Topology).
var (
	// NewTopology returns a uniform n-node topology (identical to no
	// topology at all) as the base for SetComputeScale / SetLink edits.
	NewTopology = sim.NewTopology
	// FastSlowTopology marks every slowEvery-th node slow: compute
	// scaled by cpuFactor, links touching it by netFactor.
	FastSlowTopology = sim.FastSlowTopology
	// RackTopology groups nodes into racks with scaled, optionally
	// asymmetric cross-rack links.
	RackTopology = sim.RackTopology
)

// NewMatrix returns an n×n zero correlation matrix.
func NewMatrix(n int) *Matrix { return core.NewMatrix(n) }

// FromBitmaps builds a correlation matrix from per-thread access bitmaps.
func FromBitmaps(b []*Bitmap) *Matrix { return core.FromBitmaps(b) }

// Placement heuristics (paper §5.1).
var (
	// Stretch divides threads into contiguous equal blocks.
	Stretch = placement.Stretch
	// MinCost clusters threads by affinity and refines by swaps.
	MinCost = placement.MinCost
	// Optimal solves small instances exactly.
	Optimal = placement.Optimal
	// RandomBalanced returns a random balanced placement.
	RandomBalanced = placement.RandomBalanced
	// RandomMin returns a random placement with a per-node minimum.
	RandomMin = placement.RandomMin
	// Refine improves a placement by cut-reducing swaps.
	Refine = placement.Refine
	// Anneal improves a placement by simulated annealing over swaps.
	Anneal = placement.Anneal
	// OptimalCapacities solves small capacity-constrained instances
	// exactly.
	OptimalCapacities = placement.OptimalCapacities
	// Plan computes the single round of migrations between placements.
	Plan = placement.Plan
	// AlignLabels relabels a target placement to minimize migrations.
	AlignLabels = placement.AlignLabels
	// CapacitiesForSpeeds apportions threads proportionally to node
	// speeds (heterogeneous clusters, paper §2).
	CapacitiesForSpeeds = placement.CapacitiesForSpeeds
	// StretchCapacities is Stretch with explicit per-node capacities.
	StretchCapacities = placement.StretchCapacities
	// MinCostCapacities is MinCost with explicit per-node capacities.
	MinCostCapacities = placement.MinCostCapacities
	// JointCost scores a joint (thread → node, page → home) assignment
	// under the unified topology-weighted cost model (DESIGN.md §14).
	JointCost = placement.JointCost
	// BestHomes proposes budget-clamped page-home moves under the joint
	// cost model.
	BestHomes = placement.BestHomes
	// DefaultControllerConfig returns the stock online-controller
	// policy (period 2, 5% hysteresis, unbounded budgets, re-tracking).
	DefaultControllerConfig = placement.DefaultControllerConfig
)

// Experiment harness (the paper's tables and figures).
type (
	// ExperimentOptions configures the reproduction harness.
	ExperimentOptions = experiments.Options
	// RunConfig describes one application run.
	RunConfig = experiments.RunConfig
	// RunResult holds one run's measurements.
	RunResult = experiments.RunResult
	// MapResult is one rendered correlation map.
	MapResult = experiments.MapResult
	// Table2Row is one application's cut-cost regression (plus the
	// Figure 1 scatter).
	Table2Row = experiments.Table2Row
	// Table5Row is one application's tracking-overhead measurement.
	Table5Row = experiments.Table5Row
	// Table6Row is one (application, heuristic) performance row.
	Table6Row = experiments.Table6Row
	// Figure2Series is one application's passive-completeness curve.
	Figure2Series = experiments.Figure2Series
	// Figure3Config is one free-zone analysis panel.
	Figure3Config = experiments.Figure3Config
	// MapSummary summarizes a correlation map's structure.
	MapSummary = experiments.MapSummary
	// PrefetchRow is one application's demand-vs-prefetch comparison.
	PrefetchRow = experiments.PrefetchRow
	// BenchLane is one deterministic benchmark lane: how to measure it,
	// the committed BENCH_*.json it reproduces, and the gate that
	// compares a fresh report against a baseline.
	BenchLane = experiments.Lane
)

// BenchLanes returns the deterministic benchmark lanes (prefetch,
// managers, serving, placement, failover, transport) that cmd/actbench
// and make bench-compare drive.
var BenchLanes = experiments.Lanes

// Summarize computes a MapSummary for a correlation matrix.
var Summarize = experiments.Summarize

// Experiment entry points; each returns typed rows, and the matching
// Format function renders them in the paper's layout.
var (
	Run         = experiments.Run
	TrackMatrix = experiments.TrackMatrix

	Table1  = experiments.Table1
	Table2  = experiments.Table2
	Table3  = experiments.Table3
	Table4  = experiments.Table4
	Table5  = experiments.Table5
	Table6  = experiments.Table6
	Figure2 = experiments.Figure2
	Figure3 = experiments.Figure3

	PrefetchComparison = experiments.PrefetchComparison

	AblationHeuristics = experiments.AblationHeuristics
	AblationScaling    = experiments.AblationScaling
	AblationDensity    = experiments.AblationDensity
	AblationProtocol   = experiments.AblationProtocol

	FormatTable1             = experiments.FormatTable1
	FormatTable2             = experiments.FormatTable2
	Table2CSV                = experiments.Table2CSV
	FormatTable5             = experiments.FormatTable5
	FormatTable6             = experiments.FormatTable6
	FormatFigure2            = experiments.FormatFigure2
	FormatFigure3            = experiments.FormatFigure3
	FormatAblationHeuristics = experiments.FormatAblationHeuristics
	FormatAblationScaling    = experiments.FormatAblationScaling
	FormatAblationDensity    = experiments.FormatAblationDensity
	FormatAblationProtocol   = experiments.FormatAblationProtocol

	// PaperApps lists the paper's Table 1 applications.
	PaperApps = experiments.PaperApps
)
