package experiments

import (
	"strings"
	"testing"
)

// TestManagersComparisonGate runs the real BENCH_managers.json
// measurement and checks the scaling properties the gate encodes on the
// fresh numbers (TestLanes pushes the report through the gate itself).
func TestManagersComparisonGate(t *testing.T) {
	rep, err := ManagersComparison()
	if err != nil {
		t.Fatal(err)
	}
	if rep.Flat.EnterDepth != rep.Nodes-1 {
		t.Errorf("flat enter depth = %d, want n-1 = %d", rep.Flat.EnterDepth, rep.Nodes-1)
	}
	if rep.Tree.EnterDepth > rep.DepthBound || rep.Tree.ReleaseDepth > rep.DepthBound {
		t.Errorf("tree depths %d/%d exceed bound %d",
			rep.Tree.EnterDepth, rep.Tree.ReleaseDepth, rep.DepthBound)
	}
	if rep.Tree.EnterCalls != rep.Flat.EnterCalls {
		t.Errorf("tree sends %d enters, flat %d; topology must not change message count",
			rep.Tree.EnterCalls, rep.Flat.EnterCalls)
	}
	if rep.LockCentralized.Node0Share < 0.99 {
		t.Errorf("centralized node0 share = %.2f, want ~1.0", rep.LockCentralized.Node0Share)
	}
	if rep.LockSharded.Node0Share > MaxShardedNode0Share {
		t.Errorf("sharded node0 share = %.2f, ceiling %.2f",
			rep.LockSharded.Node0Share, MaxShardedNode0Share)
	}

	if out := FormatManagersReport(rep); !strings.Contains(out, "tree depth gate") {
		t.Errorf("format output missing the gate line:\n%s", out)
	}
}

// TestCompareManagersReportsRejects checks the gate trips on each
// regression class it claims to catch.
func TestCompareManagersReportsRejects(t *testing.T) {
	rep, err := ManagersComparison()
	if err != nil {
		t.Fatal(err)
	}
	base, err := reportJSON(rep)
	if err != nil {
		t.Fatal(err)
	}
	for name, mutate := range map[string]func(*ManagersReport){
		"depth over bound":    func(r *ManagersReport) { r.Tree.EnterDepth = r.DepthBound + 1 },
		"depth drift":         func(r *ManagersReport) { r.Tree.ReleaseDepth-- },
		"flat harness drift":  func(r *ManagersReport) { r.Flat.EnterDepth = 1 },
		"lock concentration":  func(r *ManagersReport) { r.LockSharded.Node0Share = 0.9 },
		"centralized leakage": func(r *ManagersReport) { r.LockCentralized.Node0Share = 0.5 },
	} {
		bad := rep
		mutate(&bad)
		js, err := reportJSON(bad)
		if err != nil {
			t.Fatal(err)
		}
		if _, err := CompareManagersReports(base, js); err == nil {
			t.Errorf("%s: gate passed a regressed report", name)
		}
	}
}

// TestBarrierShapeSmall pins the depth computation on hand-checkable
// topologies: 8 nodes flat is a 7-deep star; 8 nodes arity 2 is the
// tree 0-(1,2), 1-(3,4), 2-(5,6), 3-(7), whose critical path is
// depth(0) = 2 + depth(1) = 2 + (2 + depth(3)) = 2 + 2 + 1 = 5.
func TestBarrierShapeSmall(t *testing.T) {
	flat, err := measureBarrierShape(8, 0)
	if err != nil {
		t.Fatal(err)
	}
	if flat.EnterDepth != 7 || flat.ReleaseDepth != 7 || flat.MaxInDegree != 7 {
		t.Errorf("flat 8-node shape = %+v, want depth 7/7, max-in 7", flat)
	}
	tree, err := measureBarrierShape(8, 2)
	if err != nil {
		t.Fatal(err)
	}
	// Deepest chain: 7->3 (fan-in 1), 3,4->1 (2), 1,2->0 (2) = 5.
	if tree.EnterDepth != 5 || tree.ReleaseDepth != 5 {
		t.Errorf("tree 8-node depths = %d/%d, want 5/5", tree.EnterDepth, tree.ReleaseDepth)
	}
	if tree.MaxInDegree != 2 {
		t.Errorf("tree max in-degree = %d, want 2", tree.MaxInDegree)
	}
	if tree.EnterCalls != 7 || tree.ReleaseCalls != 7 {
		t.Errorf("tree calls = %d/%d, want 7/7", tree.EnterCalls, tree.ReleaseCalls)
	}
}
