package check

// Integration tests for the exploration driver: clean trials across all
// scenarios, determinism, chaos resilience, the sweep and shrink
// machinery against a fake trial runner, and plan round-trips. Detection
// of real protocol bugs is shown by the patches under testdata/mutations
// (see TestMutationPatches).

import (
	"fmt"
	"reflect"
	"slices"
	"strings"
	"testing"

	"actdsm/internal/msg"
	"actdsm/internal/sim"
	"actdsm/internal/transport"
)

func TestCleanTrialsAllScenarios(t *testing.T) {
	for _, sc := range Scenarios() {
		sc := sc
		t.Run(sc.Name, func(t *testing.T) {
			r := RunTrial(Trial{Scenario: sc, Seed: 1})
			if r.RunErr != nil {
				t.Fatalf("run error: %v", r.RunErr)
			}
			if r.Failed() {
				t.Fatalf("clean run reported violations: %v", r.Violations)
			}
			if len(r.Calls) == 0 {
				t.Fatal("calibration counted zero transport calls")
			}
		})
	}
}

func TestTrialDeterminism(t *testing.T) {
	tr := Trial{Scenario: MustScenario("SOR4"), Seed: 7}
	a := RunTrial(tr)
	b := RunTrial(tr)
	if a.RunErr != nil || b.RunErr != nil {
		t.Fatalf("run errors: %v, %v", a.RunErr, b.RunErr)
	}
	if !slices.Equal(a.Calls, b.Calls) {
		t.Fatalf("per-edge traces differ across identical trials: %d vs %d calls", len(a.Calls), len(b.Calls))
	}
	if !reflect.DeepEqual(a.Violations, b.Violations) {
		t.Fatalf("violations differ: %v vs %v", a.Violations, b.Violations)
	}
}

func TestTrialSurvivesChaosPlan(t *testing.T) {
	// Injected drops and duplicates are absorbed by the transport retry
	// layer; the protocol must stay coherent through them.
	plan := Plan{Faults: map[sim.CallKey]transport.Fault{
		{From: 1, To: 0, Kind: byte(msg.KindBarrierEnter), N: 0}:   transport.FaultDropRequest,
		{From: 0, To: 2, Kind: byte(msg.KindBarrierRelease), N: 1}: transport.FaultDropReply,
		{From: 3, To: 0, Kind: byte(msg.KindBarrierEnter), N: 2}:   transport.FaultDuplicate,
	}}
	for _, name := range []string{"SOR4", "LockChain4"} {
		r := RunTrial(Trial{Scenario: MustScenario(name), Seed: 2, Plan: plan})
		if r.RunErr != nil {
			t.Fatalf("%s: run error under chaos plan: %v", name, r.RunErr)
		}
		if r.Failed() {
			t.Fatalf("%s: violations under survivable chaos: %v", name, r.Violations)
		}
		for k := range plan.Faults {
			if !slices.Contains(r.Calls, k) {
				t.Fatalf("%s: the run never made the planned call %s", name, formatKey(k))
			}
		}
	}
}

// TestEdgeTraceDeterministic is the gate on the per-edge keying contract
// (explore.go): every default scenario at two seeds, under the seed's
// generated fault plan and, on the crash scenarios, its generated crash
// plan, runs five times with the protocol's fan-outs in parallel, and
// every run must make the same calls on every directed edge, in the same
// order, and reach the same verdict.
func TestEdgeTraceDeterministic(t *testing.T) {
	const repeats = 5
	verdict := func(r TrialResult) string { return fmt.Sprint(r.RunErr, r.Violations) }
	for _, sc := range Scenarios() {
		t.Run(sc.Name, func(t *testing.T) {
			t.Parallel()
			for seed := uint64(1); seed <= 2; seed++ {
				cal := RunTrial(Trial{Scenario: sc, Seed: seed})
				if cal.RunErr != nil || cal.Failed() {
					t.Fatalf("seed %d calibration: %v %v", seed, cal.RunErr, cal.Violations)
				}
				plans := []Plan{planForSeed(seed, cal.Calls, 3)}
				if sc.Crashes > 0 {
					plans = append(plans, crashPlanForSeed(seed, sc, cal.Calls))
				}
				for _, plan := range plans {
					tr := Trial{Scenario: sc, Seed: seed, Plan: plan}
					first := RunTrial(tr)
					for rep := 1; rep < repeats; rep++ {
						r := RunTrial(tr)
						if i := firstDiff(first.Calls, r.Calls); i >= 0 {
							t.Fatalf("seed %d plan %s: run %d's per-edge trace differs from run 0's at call %d: %s",
								seed, plan, rep, i, diffAt(first.Calls, r.Calls, i))
						}
						if a, b := verdict(first), verdict(r); a != b {
							t.Fatalf("seed %d plan %s: run 0 ends %s, run %d ends %s", seed, plan, a, rep, b)
						}
					}
				}
			}
		})
	}
}

// firstDiff returns the first index at which two traces differ, -1 if
// they are equal.
func firstDiff(a, b []sim.CallKey) int {
	for i := 0; i < len(a) && i < len(b); i++ {
		if a[i] != b[i] {
			return i
		}
	}
	if len(a) != len(b) {
		return min(len(a), len(b))
	}
	return -1
}

// diffAt renders both traces' calls at index i.
func diffAt(a, b []sim.CallKey, i int) string {
	at := func(tr []sim.CallKey) string {
		if i < len(tr) {
			return formatKey(tr[i])
		}
		return "end of trace"
	}
	return at(a) + " vs " + at(b)
}

func TestSweepCleanSmall(t *testing.T) {
	res, err := Sweep(SweepConfig{
		Scenarios: []Scenario{MustScenario("SOR4"), MustScenario("LockChain4")},
		Seeds:     20,
	})
	if err != nil {
		t.Fatal(err)
	}
	if res.Failure != nil {
		f := Shrink(res.Failure)
		t.Fatalf("clean sweep found a failure:\n%s", f.ReproStanza())
	}
	if res.Trials < 40 {
		t.Fatalf("sweep ran %d trials, want >= 40", res.Trials)
	}
}

// fakeCalls is a calibration trace of n calls of one kind on edge 0->1.
func fakeCalls(n int) []sim.CallKey {
	calls := make([]sim.CallKey, n)
	for i := range calls {
		calls[i] = sim.CallKey{From: 0, To: 1, Kind: byte(msg.KindDiffRequest), N: int64(i)}
	}
	return calls
}

// failOn is a fake trial runner for the sweep and shrink machinery: it
// reports a violation for one (scenario, seed) whatever the plan, and
// passes every other trial.
func failOn(scenario string, seed uint64) func(Trial) TrialResult {
	return func(tr Trial) TrialResult {
		r := TrialResult{Calls: fakeCalls(100)}
		if tr.Scenario.Name == scenario && tr.Seed == seed {
			r.Violations = []Violation{{Invariant: "lost-update", Node: 2, Detail: "planted"}}
		}
		return r
	}
}

func TestSweepFindsAndShrinksMutation(t *testing.T) {
	// The failing seed is one whose generated plan is not empty, so the
	// shrink has events to strip.
	seed := uint64(1)
	for planForSeed(seed, fakeCalls(100), 3).Empty() {
		seed++
	}
	res, err := sweep(SweepConfig{
		Scenarios: []Scenario{MustScenario("SOR4"), MustScenario("LockChain4")},
		Seeds:     20,
	}, failOn("LockChain4", seed))
	if err != nil {
		t.Fatal(err)
	}
	if res.Failure == nil {
		t.Fatal("sweep found no failure")
	}
	if res.Failure.Scenario.Name != "LockChain4" || res.Failure.Seed != seed || res.Failure.Plan.Empty() {
		t.Fatalf("sweep reported %s seed %d plan %s, want LockChain4 seed %d under its generated plan",
			res.Failure.Scenario.Name, res.Failure.Seed, res.Failure.Plan, seed)
	}
	f := shrink(res.Failure, failOn("LockChain4", seed))
	if !f.Plan.Empty() {
		// The trial fails without any chaos, so the minimal plan is
		// empty.
		t.Fatalf("shrink left a non-minimal plan: %s", f.Plan)
	}
	if len(f.Violations) == 0 {
		t.Fatal("shrunk failure lost its violations")
	}
	stanza := f.ReproStanza()
	for _, want := range []string{"check.RunTrial", "MustScenario(\"LockChain4\")", "func TestRepro_", "lost-update"} {
		if !strings.Contains(stanza, want) {
			t.Fatalf("repro stanza missing %q:\n%s", want, stanza)
		}
	}
}

func TestShrinkDropsIrrelevantFaults(t *testing.T) {
	// A failing trial whose failure does not depend on the chaos events:
	// shrinking must strip every event, faults and crashes alike.
	f := shrink(&Failure{
		Scenario: MustScenario("LockChain4"),
		Seed:     3,
		Plan: Plan{
			Faults: map[sim.CallKey]transport.Fault{
				{From: 0, To: 1, Kind: byte(msg.KindDiffRequest), N: 9}:  transport.FaultDuplicate,
				{From: 2, To: 1, Kind: byte(msg.KindLockAcquire), N: 21}: transport.FaultDropReply,
			},
			Crashes: []sim.CrashSchedule{{Node: 1, At: sim.CallKey{From: 1, To: 2, Kind: byte(msg.KindLockRelease), N: 40}}},
		},
	}, failOn("LockChain4", 3))
	if !f.Plan.Empty() {
		t.Fatalf("shrink kept irrelevant events: %s", f.Plan)
	}
}

func TestPlanStringRoundTrip(t *testing.T) {
	enter := func(from, to int, n int64) sim.CallKey {
		return sim.CallKey{From: from, To: to, Kind: byte(msg.KindBarrierEnter), N: n}
	}
	plans := []Plan{
		{},
		{Faults: map[sim.CallKey]transport.Fault{enter(1, 0, 0): transport.FaultDropRequest}},
		{Faults: map[sim.CallKey]transport.Fault{
			enter(3, 0, 2):  transport.FaultDropReply,
			enter(1, 0, 44): transport.FaultDuplicate,
			{From: 2, To: 3, Kind: byte(msg.KindDiffBatchRequest), N: 5}: transport.FaultDropRequest,
		}},
		{
			Faults: map[sim.CallKey]transport.Fault{enter(1, 0, 7): transport.FaultDuplicate},
			Crashes: []sim.CrashSchedule{
				{Node: 0, At: sim.CallKey{From: 0, To: 3, Kind: byte(msg.KindGCCollect), N: 3}, RestartEpoch: 2},
				{Node: 1, At: enter(1, 0, 1)},
			},
		},
	}
	for _, p := range plans {
		got, err := ParsePlan(p.String())
		if err != nil {
			t.Fatalf("ParsePlan(%q): %v", p.String(), err)
		}
		if got.String() != p.String() || !reflect.DeepEqual(got.Faults, p.Clone().Faults) {
			t.Fatalf("round trip: %q -> %q", p.String(), got.String())
		}
	}
	if got := plans[3].String(); got != "1>0:BarrierEnter#7:duplicate,0>3:GCCollect#3:crash:0:r2,1>0:BarrierEnter#1:crash:1" {
		t.Fatalf("plan renders as %q", got)
	}
	for _, bad := range []string{
		"nonsense",
		"1>0:BarrierEnter#5:warp-drive",
		"1>0:NoSuchKind#5:drop-request",
		"1-0:BarrierEnter#5:drop-request",
		"1>0:BarrierEnter:drop-request",
		"5:drop-request",
	} {
		if _, err := ParsePlan(bad); err == nil {
			t.Fatalf("ParsePlan accepted %q", bad)
		}
	}
}

func TestPlanForSeedDeterministic(t *testing.T) {
	calls := fakeCalls(500)
	a := planForSeed(42, calls, 3)
	b := planForSeed(42, calls, 3)
	if a.String() != b.String() {
		t.Fatalf("plan generation not deterministic: %s vs %s", a, b)
	}
	// Across seeds, plans vary and name only calibrated calls.
	nonEmpty := 0
	for s := uint64(0); s < 50; s++ {
		p := planForSeed(s, calls, 3)
		if len(p.Faults) > 3 {
			t.Fatalf("seed %d: plan has %d faults, max 3", s, len(p.Faults))
		}
		if !p.Empty() {
			nonEmpty++
		}
		for k := range p.Faults {
			if !slices.Contains(calls, k) {
				t.Fatalf("seed %d: fault key %+v is not a calibrated call", s, k)
			}
		}
	}
	if nonEmpty == 0 {
		t.Fatal("no seed generated a chaos plan")
	}
}

// TestCrashPlanSitesOwnBarrierCall: a generated crash is armed at one of
// its victim's own barrier-protocol calls, which dsm.New requires of
// every crash key.
func TestCrashPlanSitesOwnBarrierCall(t *testing.T) {
	sc := MustScenario("SOR4ft")
	cal := RunTrial(Trial{Scenario: sc, Seed: 1})
	if cal.RunErr != nil || cal.Failed() {
		t.Fatalf("calibration: %v %v", cal.RunErr, cal.Violations)
	}
	for seed := uint64(0); seed < 20; seed++ {
		p := crashPlanForSeed(seed, sc, cal.Calls)
		if len(p.Crashes) != sc.Crashes {
			t.Fatalf("seed %d: %d crashes, want %d", seed, len(p.Crashes), sc.Crashes)
		}
		for _, s := range p.Crashes {
			switch msg.Kind(s.At.Kind) {
			case msg.KindBarrierEnter, msg.KindBarrierRelease, msg.KindGCCollect:
			default:
				t.Fatalf("seed %d: crash at a %v call", seed, msg.Kind(s.At.Kind))
			}
			if !s.At.Touches(s.Node) || !slices.Contains(cal.Calls, s.At) {
				t.Fatalf("seed %d: crash of node %d at %+v", seed, s.Node, s.At)
			}
		}
	}
}

func TestScenarioByName(t *testing.T) {
	if _, err := ScenarioByName("SOR4"); err != nil {
		t.Fatal(err)
	}
	if _, err := ScenarioByName("nope"); err == nil {
		t.Fatal("unknown scenario accepted")
	}
}
