package check

// Deterministic schedule exploration: replay small application
// configurations under seeded schedules × chaos plans with the Oracle
// attached, record any failing (seed, plan) pair, and greedily shrink
// the plan to a minimal reproduction.
//
// Determinism contract: every trial runs the Local transport with the
// protocol's parallel fan-outs, so the global order of transport calls
// varies from run to run, but the sequence of calls on each directed edge
// is a pure function of (scenario, seed, plan): no two legs of one
// fan-out call on one edge (internal/dsm/doc.go). Chaos plans and crash
// schedules key each event by its call's place on its edge (sim.CallKey);
// replaying the same trial replays the same faults at the same protocol
// points, which is what makes shrinking (and the printed regression
// stanza) exact. TestEdgeTraceDeterministic holds every scenario to it.

import (
	"cmp"
	"fmt"
	"runtime"
	"slices"
	"strconv"
	"strings"
	"sync"
	"sync/atomic"
	"time"

	"actdsm/internal/apps"
	"actdsm/internal/dsm"
	"actdsm/internal/msg"
	"actdsm/internal/placement"
	"actdsm/internal/serve"
	"actdsm/internal/sim"
	"actdsm/internal/system"
	"actdsm/internal/threads"
	"actdsm/internal/transport"
)

// Scenario is one workload configuration the sweep replays.
type Scenario struct {
	// Name identifies the scenario in reports and repro stanzas.
	Name string
	// App is an apps registry name ("SOR", "Ocean", "LU1k", ...),
	// "LockChain" for the checker's synthetic lock hand-off chain, or
	// "ServeKV" for the online serving workload (internal/serve), whose
	// windows the checker treats as iterations: Threads is the client
	// count and Iterations-1 the measured windows.
	App        string
	Threads    int
	Nodes      int
	Iterations int
	// PrefetchBudget and BatchDiffs forward to dsm.Config, covering the
	// pull-prefetch, push, and batched-diff paths.
	PrefetchBudget int
	BatchDiffs     bool
	// LockShards and BarrierArity forward to dsm.Config, covering the
	// decentralized managers: sharded lock management and the tree
	// barrier.
	LockShards   int
	BarrierArity int
	// Crashes enables dsm.Config.FaultTolerance and asks the plan
	// generator for that many deterministic node crashes per trial,
	// sited at calibrated barrier-protocol calls (so the crash lands
	// mid-protocol rather than mid-application, where a dead node's own
	// threads would wedge before the engine migrates them).
	// The oracle's crash/rejoin model is exercised by every such trial.
	Crashes int
	// Restart schedules each generated crash with a rejoin epoch, so
	// trials also cover the recovery protocol (state wipe, re-fetch,
	// re-registration), not just failover.
	Restart bool
	// Controller runs the online placement controller (internal/
	// placement) during the trial: an active tracker plus an eager
	// controller (Period 1, zero hysteresis, unbounded budgets), so every
	// iteration may migrate threads and queue explicit home moves while
	// the oracle watches. Exercises the track → decide → migrate loop
	// under seeded chaos.
	Controller bool
	// GCThresholdBytes forwards to dsm.Config. The zero value is the DSM's
	// 64 MB default, which no sweep workload reaches; 1 runs a garbage-
	// collection round after every barrier that leaves a diff stored, so
	// the round's consolidation, its bulk collects and the refetches they
	// force all run under the oracle (and, with Crashes, under a crash
	// sited inside the round).
	GCThresholdBytes int
}

// Scenarios returns the default sweep set: the paper's regular
// barrier-structured kernels at 4–8 nodes across the protocol's data
// movement modes, plus the lock chain that exercises transitive causal
// history.
func Scenarios() []Scenario {
	return []Scenario{
		{Name: "SOR4", App: "SOR", Threads: 4, Nodes: 4, Iterations: 4, BatchDiffs: true},
		{Name: "SOR8", App: "SOR", Threads: 8, Nodes: 8, Iterations: 3, BatchDiffs: true, PrefetchBudget: -1},
		{Name: "Ocean4", App: "Ocean", Threads: 4, Nodes: 4, Iterations: 3, PrefetchBudget: -1},
		{Name: "LU4", App: "LU1k", Threads: 4, Nodes: 4, Iterations: 4, BatchDiffs: true},
		{Name: "LockChain4", App: "LockChain", Threads: 4, Nodes: 4, Iterations: 5, BatchDiffs: true},
		// Decentralized managers: tree barriers and sharded locks, at
		// the paper's scale and beyond (the 32-node tree exercises a
		// 5-level fan-in).
		{Name: "SOR8tree", App: "SOR", Threads: 8, Nodes: 8, Iterations: 3,
			BatchDiffs: true, BarrierArity: 2},
		{Name: "Ocean4mig", App: "Ocean", Threads: 4, Nodes: 4, Iterations: 3,
			PrefetchBudget: -1, BarrierArity: 3},
		{Name: "LockChain4sh2", App: "LockChain", Threads: 4, Nodes: 4, Iterations: 5,
			BatchDiffs: true, LockShards: 2},
		{Name: "SOR32tree", App: "SOR", Threads: 32, Nodes: 32, Iterations: 2,
			BarrierArity: 2},
		// Online co-orchestration: the placement controller migrating
		// threads and queueing explicit home moves every iteration while
		// chaos faults land — the full track → decide → migrate loop under
		// the oracle.
		{Name: "Ocean4ctl", App: "Ocean", Threads: 4, Nodes: 4, Iterations: 4,
			BatchDiffs: true, Controller: true},
		// Online serving: zipfian lock-striped KV requests instead of
		// barrier-phased array sweeps — irregular page/lock interleavings
		// per window.
		{Name: "Serve4", App: "ServeKV", Threads: 4, Nodes: 4, Iterations: 4, BatchDiffs: true},
		{Name: "Serve4mig", App: "ServeKV", Threads: 4, Nodes: 4, Iterations: 4,
			PrefetchBudget: -1, LockShards: 2, BarrierArity: 2},
		// Crash-fault tolerance: one deterministic crash per trial (with
		// and without a scheduled restart) over sharded locks and a tree
		// barrier; the lock chain and the serving row run the lock path
		// under crashes. Batching and prefetch are on — a
		// dead writer's diffs reach batched fetches, pull prefetch and
		// push collection from its standby's replica store — except in the
		// lock chain, which keeps the unbatched route under a crash.
		{Name: "SOR4ft", App: "SOR", Threads: 4, Nodes: 4, Iterations: 4,
			BatchDiffs: true, PrefetchBudget: -1,
			LockShards: 2, BarrierArity: 2, Crashes: 1},
		{Name: "LockChain4ft", App: "LockChain", Threads: 4, Nodes: 4, Iterations: 5,
			LockShards: 2, BarrierArity: 2, Crashes: 1, Restart: true},
		{Name: "Serve4ft", App: "ServeKV", Threads: 4, Nodes: 4, Iterations: 4,
			BatchDiffs: true, PrefetchBudget: -1,
			LockShards: 2, BarrierArity: 2, Crashes: 1, Restart: true},
		// Diff garbage collection at every barrier: static homes (so the
		// home of a page is rarely its writer and must consolidate), then
		// the same under a crash that may land inside the round.
		{Name: "SOR4gc", App: "SOR", Threads: 4, Nodes: 4, Iterations: 4,
			BatchDiffs: true, GCThresholdBytes: 1},
		{Name: "Ocean4gc", App: "Ocean", Threads: 4, Nodes: 4, Iterations: 3,
			GCThresholdBytes: 1},
		{Name: "SOR4ftgc", App: "SOR", Threads: 4, Nodes: 4, Iterations: 4,
			BatchDiffs: true, PrefetchBudget: -1,
			BarrierArity: 2, Crashes: 1, GCThresholdBytes: 1},
	}
}

// BigTreeScenarios returns the large simulated-cluster configurations
// for the distributed-manager sweep leg (64 simulated nodes; slower, so
// not part of the default set).
func BigTreeScenarios() []Scenario {
	return []Scenario{
		{Name: "SOR64tree", App: "SOR", Threads: 64, Nodes: 64, Iterations: 2,
			BarrierArity: 2},
		{Name: "LockChain32", App: "LockChain", Threads: 32, Nodes: 32, Iterations: 3},
	}
}

// ScenarioByName returns the named scenario from the default or
// big-tree sets.
func ScenarioByName(name string) (Scenario, error) {
	for _, sc := range append(Scenarios(), BigTreeScenarios()...) {
		if sc.Name == name {
			return sc, nil
		}
	}
	return Scenario{}, fmt.Errorf("check: unknown scenario %q", name)
}

// MustScenario is ScenarioByName, panicking on unknown names (for repro
// stanzas).
func MustScenario(name string) Scenario {
	sc, err := ScenarioByName(name)
	if err != nil {
		panic(err)
	}
	return sc
}

// Plan is a deterministic chaos plan: injected faults keyed by the call
// they hit — its directed edge, kind and place on that edge
// (sim.CallKey) — plus fail-stop crash windows armed at keys of the same
// form.
type Plan struct {
	Faults  map[sim.CallKey]transport.Fault
	Crashes []sim.CrashSchedule
}

// Empty reports whether the plan injects nothing.
func (p Plan) Empty() bool { return len(p.Faults) == 0 && len(p.Crashes) == 0 }

// Clone deep-copies the plan.
func (p Plan) Clone() Plan {
	out := Plan{Faults: make(map[sim.CallKey]transport.Fault, len(p.Faults))}
	for k, v := range p.Faults {
		out.Faults[k] = v
	}
	out.Crashes = append([]sim.CrashSchedule(nil), p.Crashes...)
	return out
}

// keys returns the fault keys in key order.
func (p Plan) keys() []sim.CallKey {
	out := make([]sim.CallKey, 0, len(p.Faults))
	for k := range p.Faults {
		out = append(out, k)
	}
	slices.SortFunc(out, compareKeys)
	return out
}

// compareKeys orders call keys by edge, kind and place on the edge.
func compareKeys(a, b sim.CallKey) int {
	return cmp.Or(cmp.Compare(a.From, b.From), cmp.Compare(a.To, b.To),
		cmp.Compare(a.Kind, b.Kind), cmp.Compare(a.N, b.N))
}

// formatKey renders a key as "<from>><to>:<Kind>#<n>".
func formatKey(k sim.CallKey) string {
	return fmt.Sprintf("%d>%d:%s#%d", k.From, k.To, msg.Kind(k.Kind), k.N)
}

// String renders the plan as "<key>:<fault>" elements in key order, then
// crash windows as "<key>:crash:<node>" (plus ":r<epoch>" when the node
// restarts), comma-separated; a key is "<from>><to>:<Kind>#<n>", the n-th
// call (from 0) of that kind on that edge, and "-" is the empty plan.
// ParsePlan inverts it.
func (p Plan) String() string {
	if p.Empty() {
		return "-"
	}
	parts := make([]string, 0, len(p.Faults)+len(p.Crashes))
	for _, k := range p.keys() {
		parts = append(parts, fmt.Sprintf("%s:%s", formatKey(k), p.Faults[k]))
	}
	crashes := slices.Clone(p.Crashes)
	slices.SortFunc(crashes, func(a, b sim.CrashSchedule) int { return compareKeys(a.At, b.At) })
	for _, s := range crashes {
		el := fmt.Sprintf("%s:crash:%d", formatKey(s.At), s.Node)
		if s.RestartEpoch != 0 {
			el += fmt.Sprintf(":r%d", s.RestartEpoch)
		}
		parts = append(parts, el)
	}
	return strings.Join(parts, ",")
}

// ParsePlan parses the String encoding of a plan.
func ParsePlan(s string) (Plan, error) {
	p := Plan{Faults: make(map[sim.CallKey]transport.Fault)}
	s = strings.TrimSpace(s)
	if s == "" || s == "-" {
		return p, nil
	}
	byName := map[string]transport.Fault{
		transport.FaultDropRequest.String(): transport.FaultDropRequest,
		transport.FaultDropReply.String():   transport.FaultDropReply,
		transport.FaultDuplicate.String():   transport.FaultDuplicate,
		transport.FaultDelay.String():       transport.FaultDelay,
	}
	kinds := map[string]byte{}
	for k := 0; k < 256; k++ {
		if msg.Kind(k).Valid() {
			kinds[msg.Kind(k).String()] = byte(k)
		}
	}
	for _, part := range strings.Split(s, ",") {
		part = strings.TrimSpace(part)
		f := strings.SplitN(part, ":", 3)
		if len(f) != 3 {
			return Plan{}, fmt.Errorf("check: bad plan element %q", part)
		}
		var key sim.CallKey
		kindName, ns, ok := strings.Cut(f[1], "#")
		kind, known := kinds[kindName]
		if _, err := fmt.Sscanf(f[0], "%d>%d", &key.From, &key.To); err != nil || !ok || !known {
			return Plan{}, fmt.Errorf("check: bad call key %q in %q", f[0]+":"+f[1], part)
		}
		key.Kind = kind
		n, err := strconv.ParseInt(ns, 10, 64)
		if err != nil {
			return Plan{}, fmt.Errorf("check: bad call key %q: %w", f[1], err)
		}
		key.N = n
		if ns, ok := strings.CutPrefix(f[2], "crash:"); ok {
			ns, rs, hasRestart := strings.Cut(ns, ":r")
			node, err := strconv.Atoi(ns)
			if err != nil {
				return Plan{}, fmt.Errorf("check: bad crash node %q: %w", ns, err)
			}
			sched := sim.CrashSchedule{Node: node, At: key}
			if hasRestart {
				ep, err := strconv.ParseInt(rs, 10, 64)
				if err != nil {
					return Plan{}, fmt.Errorf("check: bad restart epoch %q: %w", rs, err)
				}
				sched.RestartEpoch = ep
			}
			p.Crashes = append(p.Crashes, sched)
			continue
		}
		fault, ok := byName[f[2]]
		if !ok {
			return Plan{}, fmt.Errorf("check: unknown fault %q", f[2])
		}
		p.Faults[key] = fault
	}
	return p, nil
}

// Trial fully determines one checker run.
type Trial struct {
	Scenario Scenario
	// Seed shuffles per-node thread execution order (the schedule
	// dimension of the exploration).
	Seed uint64
	Plan Plan
}

// TrialResult is one trial's outcome.
type TrialResult struct {
	// Violations holds every invariant breach the oracle detected.
	Violations []Violation
	// RunErr is a non-violation failure: the run aborted (for example a
	// chaos plan exhausted the transport's retry budget). Online
	// violations detected before the abort are still reported;
	// end-of-run conservation and coherence checks are skipped.
	RunErr error
	// Calls holds the transport calls the trial made, edge by edge and
	// each edge's calls in the order it carried them
	// (transport.CallLog.Edges): the trial's per-edge trace, which every
	// run of the trial repeats, and the calibration input for plan
	// generation.
	Calls []sim.CallKey
	// Elapsed is the trial's wall-clock duration.
	Elapsed time.Duration
}

// Failed reports whether the trial detected a coherence violation.
func (r TrialResult) Failed() bool { return len(r.Violations) > 0 }

// buildApp constructs the scenario's workload. The return type is the
// engine-facing Workload interface, so scenarios mix epoch apps and the
// request-driven serving workload freely — RunTrial only needs Setup
// and Body.
func buildApp(sc Scenario) (threads.Workload, error) {
	switch sc.App {
	case "LockChain":
		return newLockChain(sc.Threads, sc.Iterations)
	case "ServeKV":
		return serve.NewKV(serve.Config{
			Clients:           sc.Threads,
			Keys:              64,
			ValueBytes:        128,
			ReadFraction:      0.75,
			ZipfS:             1.1,
			Groups:            2,
			SharedFraction:    0.25,
			RequestsPerWindow: 8,
			WarmupWindows:     1,
			MeasureWindows:    sc.Iterations - 1,
			LockStripes:       16,
			LockReads:         true,
		})
	default:
		return apps.New(sc.App, apps.Config{
			Threads:    sc.Threads,
			Iterations: sc.Iterations,
			Scale:      apps.ScaleTest,
		})
	}
}

// RunTrial executes one trial with the oracle attached and returns what
// it found. Trials are deterministic: the same Trial yields the same
// TrialResult.
func RunTrial(tr Trial) TrialResult {
	start := time.Now()
	res := TrialResult{}
	fail := func(err error) TrialResult {
		res.RunErr = err
		res.Elapsed = time.Since(start)
		return res
	}

	app, err := buildApp(tr.Scenario)
	if err != nil {
		return fail(err)
	}
	faults := tr.Plan.Faults
	calls := &transport.CallLog{}
	planFn := transport.RecordingPlan(func(key sim.CallKey, _ []byte) transport.Fault {
		return faults[key] // zero value is FaultNone
	}, calls)
	cfg := system.SystemConfig{
		Cluster: dsm.Config{
			BatchDiffs:       tr.Scenario.BatchDiffs,
			PrefetchBudget:   tr.Scenario.PrefetchBudget,
			LockShards:       tr.Scenario.LockShards,
			BarrierArity:     tr.Scenario.BarrierArity,
			FaultTolerance:   tr.Scenario.Crashes > 0 || len(tr.Plan.Crashes) > 0,
			GCThresholdBytes: tr.Scenario.GCThresholdBytes,
			// Tight retry budget: enough attempts that a call recovers even
			// when every fault of a default plan (MaxFaults 3) lands on it —
			// a retried call gets the next key of its edge — with microsecond
			// backoff so thousand-trial sweeps stay fast. The transport's
			// retry is the only one; nothing above it re-sends a fan-out.
			Transport: transport.Options{
				MaxAttempts: 6,
				BackoffBase: time.Microsecond,
				BackoffMax:  8 * time.Microsecond,
			},
			Chaos: &transport.ChaosOptions{Plan: planFn, Crashes: tr.Plan.Crashes},
		},
		ShuffleSeed: tr.Seed,
	}
	if tr.Scenario.Controller {
		// Eager controller: evaluate every iteration with zero hysteresis
		// and unbounded budgets, so trials take the migration paths as
		// often as the cost model allows. Its tracker is armed at
		// iteration 1 (iteration 0 is initialization-skewed).
		cfg.Controller = &placement.ControllerConfig{
			Period: 1, ThreadBudget: -1, HomeBudget: -1, Smoothing: 0.5, Retrack: true,
		}
	}
	sys, err := system.NewSystem(app, tr.Scenario.Nodes, system.WithConfig(cfg))
	if err != nil {
		return fail(err)
	}
	defer func() { _ = sys.Close() }()
	cl := sys.Cluster()

	oracle := NewOracle(tr.Scenario.Nodes)
	oracle.Attach(cl)

	runErr := sys.Run()
	for _, r := range calls.Edges() {
		res.Calls = append(res.Calls, r.CallKey)
	}
	if runErr != nil {
		res.RunErr = runErr
		res.Violations = oracle.Violations()
		res.Elapsed = time.Since(start)
		return res
	}
	// End-of-run oracles: replica agreement at the final quiescent point,
	// then the oracle's conservation checks.
	if err := cl.CheckCoherence(); err != nil {
		res.Violations = append(res.Violations,
			Violation{Invariant: "final-coherence", Node: -1, Detail: err.Error()})
	}
	_ = oracle.Finish(cl.Stats().Snapshot())
	res.Violations = append(res.Violations, oracle.Violations()...)
	res.Elapsed = time.Since(start)
	return res
}

// planForSeed derives a chaos plan from a trial seed: up to maxFaults
// drop/duplicate events at calls of the scenario's calibration trace.
// Seed 0 (and roughly one in maxFaults+1 seeds) yields an empty plan,
// keeping pure schedule exploration in the mix.
func planForSeed(seed uint64, calls []sim.CallKey, maxFaults int) Plan {
	p := Plan{Faults: make(map[sim.CallKey]transport.Fault)}
	if len(calls) == 0 || maxFaults <= 0 {
		return p
	}
	rng := sim.NewRNG(0x9E3779B97F4A7C15 ^ (seed + 1))
	kinds := []transport.Fault{
		transport.FaultDropRequest, transport.FaultDropReply, transport.FaultDuplicate,
	}
	n := rng.Intn(maxFaults + 1)
	for i := 0; i < n; i++ {
		key := calls[rng.Intn(len(calls))]
		p.Faults[key] = kinds[rng.Intn(len(kinds))]
	}
	return p
}

// crashPlanForSeed derives a crash plan for a fault-tolerance scenario:
// sc.Crashes distinct victims, each crashing at one of its own barrier-
// protocol calls (an enter, release or GC collect to or from it) in the
// calibration trace, where a crash is survivable: every thread is parked
// at the rendezvous and the engine migrates the victim's threads before
// they run again. Every trial carries at least one crash — that is the
// scenario's point. Drop/duplicate faults are left out, so that a crash
// trial's verdict is about the crash alone (a retried drop on the crash
// key's own edge and kind would also move the crash one call earlier).
// With sc.Restart each victim is scheduled to rejoin at a random later
// barrier episode.
func crashPlanForSeed(seed uint64, sc Scenario, calls []sim.CallKey) Plan {
	p := Plan{Faults: make(map[sim.CallKey]transport.Fault)}
	if sc.Crashes <= 0 || len(calls) == 0 {
		return p
	}
	rng := sim.NewRNG(0xD1B54A32D192ED03 ^ (seed + 1))
	used := make(map[int]bool)
	for i := 0; i < sc.Crashes && i < sc.Nodes-1; i++ {
		victim := rng.Intn(sc.Nodes)
		for used[victim] {
			victim = rng.Intn(sc.Nodes)
		}
		used[victim] = true
		var sites []sim.CallKey
		for _, k := range calls {
			switch msg.Kind(k.Kind) {
			case msg.KindBarrierEnter, msg.KindBarrierRelease, msg.KindGCCollect:
				if k.Touches(victim) {
					sites = append(sites, k)
				}
			}
		}
		if len(sites) == 0 {
			continue
		}
		s := sim.CrashSchedule{Node: victim, At: sites[rng.Intn(len(sites))]}
		if sc.Restart {
			// Any epoch is valid: RestartEpoch is a lower bound, so an
			// epoch the crash has already passed rejoins at the next
			// barrier after the crash.
			s.RestartEpoch = 1 + int64(rng.Intn(sc.Iterations+1))
		}
		p.Crashes = append(p.Crashes, s)
	}
	return p
}

// SweepConfig configures an exploration sweep.
type SweepConfig struct {
	// Scenarios to replay; nil selects Scenarios().
	Scenarios []Scenario
	// Seeds is the number of schedules replayed per scenario.
	Seeds int
	// MaxFaults bounds the chaos events per generated plan (default 3).
	MaxFaults int
	// Workers bounds trial parallelism (default GOMAXPROCS). Trials are
	// independent and individually deterministic, so parallelism does
	// not affect reproducibility.
	Workers int
	// Progress, when non-nil, receives (done, total) after each trial.
	Progress func(done, total int)
}

// Failure records one failing trial.
type Failure struct {
	Scenario   Scenario
	Seed       uint64
	Plan       Plan
	Violations []Violation
}

func (f *Failure) trial() Trial {
	return Trial{Scenario: f.Scenario, Seed: f.Seed, Plan: f.Plan}
}

// SweepResult summarizes a sweep.
type SweepResult struct {
	// Trials is the number of trials executed.
	Trials int
	// Aborted counts trials that ended in a non-violation run error
	// (chaos plan exhausted the retry budget); these are inconclusive,
	// not failures.
	Aborted int
	// Failure is the lowest-(scenario, seed) failing trial, nil if the
	// sweep was clean.
	Failure *Failure
	// Elapsed is the sweep's wall-clock duration.
	Elapsed time.Duration
}

// Sweep replays cfg.Seeds schedules per scenario, each under a seeded
// chaos plan, and returns the first failure found (by scenario order,
// then seed). Each scenario is first calibrated with one clean run to
// learn its transport call count; a violation in the calibration run
// itself is reported as a failure with an empty plan.
func Sweep(cfg SweepConfig) (*SweepResult, error) { return sweep(cfg, RunTrial) }

// sweep is Sweep with the trial runner as a parameter, so the sweep and
// shrink machinery can be tested against a fake runner.
func sweep(cfg SweepConfig, run func(Trial) TrialResult) (*SweepResult, error) {
	start := time.Now()
	scenarios := cfg.Scenarios
	if scenarios == nil {
		scenarios = Scenarios()
	}
	if cfg.Seeds <= 0 {
		cfg.Seeds = 100
	}
	if cfg.MaxFaults == 0 {
		cfg.MaxFaults = 3
	}
	workers := cfg.Workers
	if workers <= 0 {
		workers = runtime.GOMAXPROCS(0)
	}

	res := &SweepResult{}
	total := len(scenarios) * cfg.Seeds
	var done atomic.Int64
	report := func() {
		if cfg.Progress != nil {
			cfg.Progress(int(done.Add(1)), total)
		} else {
			done.Add(1)
		}
	}

	type outcome struct {
		scIdx int
		seed  uint64
		plan  Plan
		r     TrialResult
	}
	var (
		mu       sync.Mutex
		best     *outcome // lowest (scIdx, seed) failure
		aborted  int
		executed int
	)
	better := func(o *outcome) bool {
		return best == nil || o.scIdx < best.scIdx ||
			(o.scIdx == best.scIdx && o.seed < best.seed)
	}

	for scIdx, sc := range scenarios {
		// Calibration: one clean, chaos-free run.
		cal := run(Trial{Scenario: sc, Seed: 0})
		if cal.RunErr != nil && !cal.Failed() {
			return nil, fmt.Errorf("check: scenario %s calibration run failed: %w", sc.Name, cal.RunErr)
		}
		executed++
		if cal.Failed() {
			o := &outcome{scIdx: scIdx, seed: 0, plan: Plan{}, r: cal}
			mu.Lock()
			if better(o) {
				best = o
			}
			mu.Unlock()
			// The scenario fails without chaos; no need to sweep it.
			continue
		}

		seedCh := make(chan uint64)
		var wg sync.WaitGroup
		for w := 0; w < workers; w++ {
			wg.Add(1)
			go func() {
				defer wg.Done()
				for seed := range seedCh {
					mu.Lock()
					skip := best != nil && (scIdx > best.scIdx ||
						(scIdx == best.scIdx && seed > best.seed))
					mu.Unlock()
					if skip {
						report()
						continue
					}
					var plan Plan
					if sc.Crashes > 0 {
						// Per-seed calibration: the thread schedule — and so
						// which calls each edge carries — is a function of
						// the seed, so barrier-protocol keys must come from
						// a clean run of the SAME seed for the crash to land
						// mid-protocol rather than mid-application.
						pc := run(Trial{Scenario: sc, Seed: seed})
						mu.Lock()
						executed++
						mu.Unlock()
						if pc.Failed() {
							o := &outcome{scIdx: scIdx, seed: seed, plan: Plan{}, r: pc}
							mu.Lock()
							if better(o) {
								best = o
							}
							mu.Unlock()
							report()
							continue
						}
						if pc.RunErr != nil {
							mu.Lock()
							aborted++
							mu.Unlock()
							report()
							continue
						}
						plan = crashPlanForSeed(seed, sc, pc.Calls)
					} else {
						plan = planForSeed(seed, cal.Calls, cfg.MaxFaults)
					}
					r := run(Trial{Scenario: sc, Seed: seed, Plan: plan})
					mu.Lock()
					executed++
					if r.RunErr != nil && !r.Failed() {
						aborted++
					}
					if r.Failed() {
						o := &outcome{scIdx: scIdx, seed: seed, plan: plan, r: r}
						if better(o) {
							best = o
						}
					}
					mu.Unlock()
					report()
				}
			}()
		}
		for seed := uint64(0); seed < uint64(cfg.Seeds); seed++ {
			seedCh <- seed
		}
		close(seedCh)
		wg.Wait()
	}

	res.Trials = executed
	res.Aborted = aborted
	res.Elapsed = time.Since(start)
	if best != nil {
		res.Failure = &Failure{
			Scenario:   scenarios[best.scIdx],
			Seed:       best.seed,
			Plan:       best.plan,
			Violations: best.r.Violations,
		}
	}
	return res, nil
}

// Shrink greedily minimizes a failure's chaos plan: it repeatedly
// removes single fault events while the trial still detects a violation,
// until no single removal keeps it failing. The result reproduces a
// violation by construction. (The seed is atomic and never shrunk.)
func Shrink(f *Failure) *Failure { return shrink(f, RunTrial) }

func shrink(f *Failure, run func(Trial) TrialResult) *Failure {
	cur := *f
	for {
		improved := false
		for _, k := range cur.Plan.keys() {
			cand := cur.Plan.Clone()
			delete(cand.Faults, k)
			t := cur.trial()
			t.Plan = cand
			r := run(t)
			if r.Failed() {
				cur.Plan = cand
				cur.Violations = r.Violations
				improved = true
				break
			}
		}
		for i := range cur.Plan.Crashes {
			if improved {
				break
			}
			cand := cur.Plan.Clone()
			cand.Crashes = append(cand.Crashes[:i:i], cand.Crashes[i+1:]...)
			t := cur.trial()
			t.Plan = cand
			r := run(t)
			if r.Failed() {
				cur.Plan = cand
				cur.Violations = r.Violations
				improved = true
			}
		}
		if !improved {
			return &cur
		}
	}
}

// ReproStanza renders the failure as a ready-to-paste regression test
// for internal/check.
func (f *Failure) ReproStanza() string {
	var b strings.Builder
	fmt.Fprintf(&b, "// Regression: %s seed=%d plan=%s\n", f.Scenario.Name, f.Seed, f.Plan)
	for _, v := range f.Violations {
		fmt.Fprintf(&b, "//   %s\n", v)
	}
	fmt.Fprintf(&b, "func TestRepro_%s_%d(t *testing.T) {\n", sanitizeIdent(f.Scenario.Name), f.Seed)
	fmt.Fprintf(&b, "\tplan, err := check.ParsePlan(%q)\n", f.Plan.String())
	b.WriteString("\tif err != nil {\n\t\tt.Fatal(err)\n\t}\n")
	b.WriteString("\tres := check.RunTrial(check.Trial{\n")
	fmt.Fprintf(&b, "\t\tScenario: check.MustScenario(%q),\n", f.Scenario.Name)
	fmt.Fprintf(&b, "\t\tSeed:     %d,\n", f.Seed)
	b.WriteString("\t\tPlan:     plan,\n")
	b.WriteString("\t})\n")
	inv := "violation"
	if len(f.Violations) > 0 {
		inv = f.Violations[0].Invariant
	}
	fmt.Fprintf(&b, "\tif !res.Failed() {\n\t\tt.Fatalf(\"expected a coherence violation (%s)\")\n\t}\n}\n", inv)
	return b.String()
}

func sanitizeIdent(s string) string {
	var b strings.Builder
	for _, r := range s {
		if (r >= 'a' && r <= 'z') || (r >= 'A' && r <= 'Z') || (r >= '0' && r <= '9') || r == '_' {
			b.WriteRune(r)
		} else {
			b.WriteByte('_')
		}
	}
	return b.String()
}
