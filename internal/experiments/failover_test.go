package experiments

import (
	"strings"
	"testing"
)

// TestFailoverComparisonGate runs the real BENCH_failover.json
// measurement and checks the invariants the gate encodes on the fresh
// numbers (TestLanes pushes the report through the gate itself).
func TestFailoverComparisonGate(t *testing.T) {
	rep, err := FailoverComparison()
	if err != nil {
		t.Fatal(err)
	}
	if rep.Clean.Digest != rep.Crash.Digest || rep.Clean.Digest != rep.Restart.Digest {
		t.Errorf("leg digests diverge: clean %s, crash %s, restart %s",
			rep.Clean.Digest, rep.Crash.Digest, rep.Restart.Digest)
	}
	if rep.Clean.Crashes != 0 || rep.Clean.Rejoins != 0 {
		t.Errorf("clean leg saw %d crashes / %d rejoins, want none",
			rep.Clean.Crashes, rep.Clean.Rejoins)
	}
	if rep.Crash.Crashes != 1 || rep.Crash.Failovers == 0 {
		t.Errorf("crash leg: crashes=%d failovers=%d, want 1 crash with failovers",
			rep.Crash.Crashes, rep.Crash.Failovers)
	}
	if rep.Restart.Rejoins != 1 || rep.Restart.RecoveryFetches == 0 {
		t.Errorf("restart leg: rejoins=%d recovery fetches=%d, want 1 rejoin with re-fetches",
			rep.Restart.Rejoins, rep.Restart.RecoveryFetches)
	}
	if rep.Clean.ReplicaDeltas == 0 {
		t.Error("clean leg shipped no replica deltas")
	}

	if out := FormatFailoverReport(rep); !strings.Contains(out, "digests identical") {
		t.Errorf("format output missing the digest verdict:\n%s", out)
	}
}

// TestCompareFailoverReportsRejects checks the gate trips on each
// regression class it claims to catch.
func TestCompareFailoverReportsRejects(t *testing.T) {
	rep, err := FailoverComparison()
	if err != nil {
		t.Fatal(err)
	}
	base, err := reportJSON(rep)
	if err != nil {
		t.Fatal(err)
	}
	for name, mutate := range map[string]func(*FailoverReport){
		"digest divergence": func(r *FailoverReport) { r.Crash.Digest = "deadbeefdeadbeef" },
		"clean leg crashed": func(r *FailoverReport) { r.Clean.Crashes = 1 },
		"missed crash":      func(r *FailoverReport) { r.Crash.Crashes = 0 },
		"no failovers":      func(r *FailoverReport) { r.Crash.Failovers = 0 },
		"missed rejoin":     func(r *FailoverReport) { r.Restart.Rejoins = 0 },
		"no recovery fetch": func(r *FailoverReport) { r.Restart.RecoveryFetches = 0 },
		"replication off":   func(r *FailoverReport) { r.Clean.ReplicaDeltas = 0 },
		"call-count drift":  func(r *FailoverReport) { r.Crash.Calls += 7 },
		"baseline digest": func(r *FailoverReport) {
			r.Clean.Digest = "feedfacefeedface"
			r.Crash.Digest = "feedfacefeedface"
			r.Restart.Digest = "feedfacefeedface"
		},
	} {
		bad := rep
		mutate(&bad)
		js, err := reportJSON(bad)
		if err != nil {
			t.Fatal(err)
		}
		if _, err := CompareFailoverReports(base, js); err == nil {
			t.Errorf("%s: gate passed a regressed report", name)
		}
	}
}
