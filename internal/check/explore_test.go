package check

// Integration tests for the exploration driver: clean trials across all
// scenarios, determinism, chaos resilience, the sweep and shrink
// machinery against a fake trial runner, and plan round-trips. Detection
// of real protocol bugs is shown by the patches under testdata/mutations
// (see TestMutationPatches).

import (
	"reflect"
	"strings"
	"testing"

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
			if r.Calls == 0 {
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
	if a.Calls != b.Calls {
		t.Fatalf("call counts differ across identical trials: %d vs %d", a.Calls, b.Calls)
	}
	if !reflect.DeepEqual(a.Violations, b.Violations) {
		t.Fatalf("violations differ: %v vs %v", a.Violations, b.Violations)
	}
}

func TestTrialSurvivesChaosPlan(t *testing.T) {
	// Injected drops and duplicates are absorbed by the transport retry
	// layer; the protocol must stay coherent through them.
	plan := Plan{Faults: map[int64]transport.Fault{
		5:  transport.FaultDropRequest,
		20: transport.FaultDropReply,
		35: transport.FaultDuplicate,
	}}
	for _, name := range []string{"SOR4", "LockChain4"} {
		r := RunTrial(Trial{Scenario: MustScenario(name), Seed: 2, Plan: plan})
		if r.RunErr != nil {
			t.Fatalf("%s: run error under chaos plan: %v", name, r.RunErr)
		}
		if r.Failed() {
			t.Fatalf("%s: violations under survivable chaos: %v", name, r.Violations)
		}
	}
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

// failOn is a fake trial runner for the sweep and shrink machinery: it
// reports a violation for one (scenario, seed) whatever the plan, and
// passes every other trial.
func failOn(scenario string, seed uint64) func(Trial) TrialResult {
	return func(tr Trial) TrialResult {
		r := TrialResult{Calls: 100}
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
	for planForSeed(seed, 100, 3).Empty() {
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
			Faults: map[int64]transport.Fault{
				9:  transport.FaultDuplicate,
				21: transport.FaultDropReply,
			},
			Crashes: []sim.CrashSchedule{{Node: 1, Call: 40}},
		},
	}, failOn("LockChain4", 3))
	if !f.Plan.Empty() {
		t.Fatalf("shrink kept irrelevant events: %s", f.Plan)
	}
}

func TestPlanStringRoundTrip(t *testing.T) {
	plans := []Plan{
		{},
		{Faults: map[int64]transport.Fault{1: transport.FaultDropRequest}},
		{Faults: map[int64]transport.Fault{
			3:   transport.FaultDropReply,
			44:  transport.FaultDuplicate,
			100: transport.FaultDropRequest,
		}},
	}
	for _, p := range plans {
		got, err := ParsePlan(p.String())
		if err != nil {
			t.Fatalf("ParsePlan(%q): %v", p.String(), err)
		}
		if got.String() != p.String() {
			t.Fatalf("round trip: %q -> %q", p.String(), got.String())
		}
	}
	if _, err := ParsePlan("nonsense"); err == nil {
		t.Fatal("ParsePlan accepted garbage")
	}
	if _, err := ParsePlan("5:warp-drive"); err == nil {
		t.Fatal("ParsePlan accepted an unknown fault")
	}
}

func TestPlanForSeedDeterministic(t *testing.T) {
	a := planForSeed(42, 500, 3)
	b := planForSeed(42, 500, 3)
	if a.String() != b.String() {
		t.Fatalf("plan generation not deterministic: %s vs %s", a, b)
	}
	// Across seeds, plans vary and stay within bounds.
	nonEmpty := 0
	for s := uint64(0); s < 50; s++ {
		p := planForSeed(s, 500, 3)
		if len(p.Faults) > 3 {
			t.Fatalf("seed %d: plan has %d faults, max 3", s, len(p.Faults))
		}
		if !p.Empty() {
			nonEmpty++
		}
		for c := range p.Faults {
			if c < 1 || c > 500 {
				t.Fatalf("seed %d: fault call %d out of calibrated range", s, c)
			}
		}
	}
	if nonEmpty == 0 {
		t.Fatal("no seed generated a chaos plan")
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
