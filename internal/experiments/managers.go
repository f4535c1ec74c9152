package experiments

// Decentralized-manager comparison: the BENCH_managers.json generator
// and regression gate. Two legs, both deterministic message-structure
// measurements (no wall clock, so the gate compares exact values):
//
//   - Barrier scaling at 64 nodes: the flat single-manager barrier
//     against the arity-2 tree. The measured critical-path depth of
//     each fan phase must stay within 2*ceil(log2 n) for the tree,
//     versus the flat topology's n-1.
//   - Lock-manager placement on a LockChain workload: with
//     LockShards: 1 every wire-bound lock message lands on node 0; with
//     the sharded default node 0's share must stay at most half.
//
// Both measurements observe the real protocol through a Probe: every
// logical transport call reports its endpoints and message kind, and
// the harness reconstructs the barrier tree (or the flat star) from the
// recorded edges rather than trusting the topology code it is meant to
// gate.
//
// See DESIGN.md §10.

import (
	"encoding/json"
	"fmt"
	"math/bits"
	"strings"
	"sync"
	"time"

	"actdsm/internal/dsm"
	"actdsm/internal/msg"
)

// ManagersReport is the BENCH_managers.json schema. Every number in it
// is deterministic (per-edge call counts, no faults, no timing), so the
// regression gate checks the committed values exactly in addition to
// the scaling properties.
type ManagersReport struct {
	// Nodes and Arity describe the barrier leg's cluster.
	Nodes int `json:"nodes"`
	Arity int `json:"arity"`
	// Flat is the single-manager baseline episode, Tree the k-ary
	// tree episode on the same cluster size.
	Flat BarrierShape `json:"flat"`
	Tree BarrierShape `json:"tree"`
	// DepthBound is 2*ceil(log2 Nodes) — the ceiling the tree's enter
	// and release depths are gated against (one factor of
	// ceil(log2 n) levels, at most Arity serialized messages each for
	// Arity 2).
	DepthBound int `json:"depth_bound"`
	// LockCentralized is the LockShards: 1 run (every lock managed by
	// node 0), LockSharded the default one-shard-per-node run.
	LockCentralized LockSpread `json:"lock_centralized"`
	LockSharded     LockSpread `json:"lock_sharded"`
}

// MaxShardedNode0Share is the gate's ceiling for node 0's share of
// wire-bound lock-manager traffic once locks shard across the cluster.
const MaxShardedNode0Share = 0.5

// managersBarrierNodes is the barrier leg's cluster size — the
// acceptance point where the flat barrier's 63-deep fan-in visibly
// dwarfs the tree's bound of 12.
const managersBarrierNodes = 64

// managersBarrierArity is the tree arity under test.
const managersBarrierArity = 2

// ceilLog2 returns ceil(log2 n) for n >= 2.
func ceilLog2(n int) int { return bits.Len(uint(n - 1)) }

// ManagersComparison measures both legs and assembles the report.
func ManagersComparison() (ManagersReport, error) {
	rep := ManagersReport{
		Nodes:      managersBarrierNodes,
		Arity:      managersBarrierArity,
		DepthBound: 2 * ceilLog2(managersBarrierNodes),
	}
	var err error
	if rep.Flat, err = measureBarrierShape(managersBarrierNodes, 0); err != nil {
		return rep, fmt.Errorf("managers flat barrier: %w", err)
	}
	if rep.Tree, err = measureBarrierShape(managersBarrierNodes, managersBarrierArity); err != nil {
		return rep, fmt.Errorf("managers tree barrier: %w", err)
	}
	if rep.LockCentralized, err = measureLockSpread(1); err != nil {
		return rep, fmt.Errorf("managers centralized locks: %w", err)
	}
	if rep.LockSharded, err = measureLockSpread(0); err != nil {
		return rep, fmt.Errorf("managers sharded locks: %w", err)
	}
	return rep, nil
}

// BarrierShape is one measured barrier episode. Depths are
// critical-path lengths in units of serialized messages: calls to the
// same destination serialize, and an interior tree node cannot forward
// its aggregate before its whole subtree has reported, so the enter
// depth of a topology is
//
//	depth(v) = fan-in(v) + max over children c of depth(c)
//
// evaluated at the root. A flat 64-node barrier scores 63 (every enter
// serializes at node 0); an arity-2 tree scores at most
// 2*ceil(log2 64) = 12. The release phase is measured the same way on
// the fan-out edges.
type BarrierShape struct {
	Nodes int `json:"nodes"`
	// Arity echoes the configured topology (0 = flat).
	Arity int `json:"arity"`
	// EnterDepth and ReleaseDepth are the measured critical-path
	// depths of the two fan phases.
	EnterDepth   int `json:"enter_depth"`
	ReleaseDepth int `json:"release_depth"`
	// EnterCalls and ReleaseCalls are the transport-call counts of the
	// phases (both topologies send n-1 messages per phase; only the
	// arrangement differs).
	EnterCalls   int `json:"enter_calls"`
	ReleaseCalls int `json:"release_calls"`
	// MaxInDegree is the most barrier-enter messages any single node
	// received: n-1 at the flat manager, at most Arity in the tree.
	MaxInDegree int `json:"max_in_degree"`
}

// measureBarrierShape runs one barrier episode on an idle cluster
// (arity 0 is the flat single-manager barrier, k >= 2 the k-ary tree)
// and reports the topology the messages actually formed. The legs of a
// tree level run in parallel, so the calls arrive in any order; the shape
// counts edges per node and never reads that order, and the payload (no
// writes, no notices) does not affect it.
func measureBarrierShape(nodes, arity int) (BarrierShape, error) {
	c, err := dsm.New(dsm.Config{
		Nodes:            nodes,
		Pages:            nodes,
		BarrierArity:     arity,
		GCThresholdBytes: -1,
	})
	if err != nil {
		return BarrierShape{}, err
	}
	defer func() { _ = c.Close() }()

	var (
		mu      sync.Mutex
		enter   [][2]int // child -> parent
		release [][2]int // parent -> child
	)
	c.SetProbe(&dsm.Probe{
		TransportCall: func(from, to int, kind msg.Kind, bytes int, wall time.Duration, failed bool) {
			mu.Lock()
			defer mu.Unlock()
			switch kind {
			case msg.KindBarrierEnter:
				enter = append(enter, [2]int{from, to})
			case msg.KindBarrierRelease:
				release = append(release, [2]int{from, to})
			}
		},
	})
	if _, err := c.Barrier(); err != nil {
		return BarrierShape{}, err
	}

	mu.Lock()
	defer mu.Unlock()
	enterChildren := map[int][]int{}
	inDegree := map[int]int{}
	for _, e := range enter {
		enterChildren[e[1]] = append(enterChildren[e[1]], e[0])
		inDegree[e[1]]++
	}
	releaseChildren := map[int][]int{}
	for _, e := range release {
		releaseChildren[e[0]] = append(releaseChildren[e[0]], e[1])
	}
	maxIn := 0
	for _, d := range inDegree {
		if d > maxIn {
			maxIn = d
		}
	}
	return BarrierShape{
		Nodes:        nodes,
		Arity:        arity,
		EnterDepth:   fanDepth(enterChildren, 0),
		ReleaseDepth: fanDepth(releaseChildren, 0),
		EnterCalls:   len(enter),
		ReleaseCalls: len(release),
		MaxInDegree:  maxIn,
	}, nil
}

// fanDepth computes the serialized-message critical path of a fan
// rooted at root: a node's own fan (its direct edges serialize) plus
// the deepest child subtree. Works for both directions — children maps
// aggregation sources for the enter phase and relay targets for the
// release phase.
func fanDepth(children map[int][]int, root int) int {
	deepest := 0
	for _, c := range children[root] {
		if d := fanDepth(children, c); d > deepest {
			deepest = d
		}
	}
	return len(children[root]) + deepest
}

// LockSpread reports where one LockChain-style workload's
// manager-bound lock messages (acquires, releases, and forwarded-grant
// pulls) landed. The counts are deterministic: the workload is serial
// and local self-serves never touch the wire.
type LockSpread struct {
	// Shards is the effective shard count.
	Shards int `json:"shards"`
	// Calls is the total manager-bound lock messages on the wire.
	Calls int `json:"calls"`
	// PerNode is the per-destination breakdown, indexed by node id.
	PerNode []int `json:"per_node"`
	// Node0Share is PerNode[0] / Calls — 1.0 when every lock is
	// centralized on node 0, and bounded well below that once locks
	// shard across the cluster.
	Node0Share float64 `json:"node0_share"`
}

// The lock leg's shape: lockSpreadLocks distinct locks handed round a
// lockSpreadNodes-node cluster for lockSpreadRounds rounds.
const (
	lockSpreadNodes  = 8
	lockSpreadLocks  = 16
	lockSpreadRounds = 8
)

// measureLockSpread runs a synthetic LockChain workload — every round,
// lock l is acquired and released by node (l+round) mod nodes, so each
// lock's ownership walks the cluster — and counts which node served
// each wire-bound lock message. lockShards is Config.LockShards: 1 is
// the centralized node-0 baseline, 0 the one-shard-per-node default.
func measureLockSpread(lockShards int) (LockSpread, error) {
	c, err := dsm.New(dsm.Config{
		Nodes:            lockSpreadNodes,
		Pages:            lockSpreadNodes,
		LockShards:       lockShards,
		GCThresholdBytes: -1,
	})
	if err != nil {
		return LockSpread{}, err
	}
	defer func() { _ = c.Close() }()

	var mu sync.Mutex
	perNode := make([]int, lockSpreadNodes)
	c.SetProbe(&dsm.Probe{
		TransportCall: func(from, to int, kind msg.Kind, bytes int, wall time.Duration, failed bool) {
			switch kind {
			case msg.KindLockAcquire, msg.KindLockRelease, msg.KindLockPull:
				mu.Lock()
				perNode[to]++
				mu.Unlock()
			}
		},
	})

	for r := 0; r < lockSpreadRounds; r++ {
		for l := 0; l < lockSpreadLocks; l++ {
			node := (l + r) % lockSpreadNodes
			if _, err := c.AcquireLock(node, 0, int32(l)); err != nil {
				return LockSpread{}, err
			}
			if _, err := c.ReleaseLock(node, 0, int32(l)); err != nil {
				return LockSpread{}, err
			}
		}
		// A barrier per round keeps the known sets (and thus release
		// payloads) bounded, exactly like a real iteration loop.
		if _, err := c.Barrier(); err != nil {
			return LockSpread{}, err
		}
	}

	mu.Lock()
	defer mu.Unlock()
	res := LockSpread{Shards: lockShards, PerNode: perNode}
	if lockShards == 0 {
		res.Shards = lockSpreadNodes
	}
	for _, n := range perNode {
		res.Calls += n
	}
	if res.Calls > 0 {
		res.Node0Share = float64(perNode[0]) / float64(res.Calls)
	}
	return res, nil
}

// FormatManagersReport renders the comparison for the actbench section.
func FormatManagersReport(r ManagersReport) string {
	var b strings.Builder
	fmt.Fprintf(&b, "barrier topology, %d nodes:\n", r.Nodes)
	fmt.Fprintf(&b, "%-18s %12s %14s %12s %12s\n",
		"config", "enter-depth", "release-depth", "calls/phase", "max-in")
	row := func(name string, res BarrierShape) {
		fmt.Fprintf(&b, "%-18s %12d %14d %12d %12d\n",
			name, res.EnterDepth, res.ReleaseDepth, res.EnterCalls, res.MaxInDegree)
	}
	row("flat (manager 0)", r.Flat)
	row(fmt.Sprintf("tree (arity %d)", r.Arity), r.Tree)
	fmt.Fprintf(&b, "tree depth gate: <= %d (2*ceil(log2 %d)); flat reference: %d\n",
		r.DepthBound, r.Nodes, r.Nodes-1)
	fmt.Fprintf(&b, "\nlock-manager traffic, LockChain (%d calls each):\n",
		r.LockSharded.Calls)
	fmt.Fprintf(&b, "%-18s %8s %12s  %s\n", "config", "shards", "node0-share", "per-node")
	lrow := func(name string, res LockSpread) {
		fmt.Fprintf(&b, "%-18s %8d %11.0f%%  %v\n",
			name, res.Shards, res.Node0Share*100, res.PerNode)
	}
	lrow("centralized", r.LockCentralized)
	lrow("sharded", r.LockSharded)
	fmt.Fprintf(&b, "sharded node0-share gate: <= %.0f%%\n", MaxShardedNode0Share*100)
	return b.String()
}

// CompareManagersReports validates a fresh report against the committed
// baseline. The measurements are deterministic, so the gate is strict:
// the scaling properties must hold (tree depths within DepthBound, flat
// depth exactly n-1, centralized lock traffic fully on node 0, sharded
// node-0 share at most MaxShardedNode0Share), and the fresh barrier
// depths must equal the committed ones — a silent topology change must
// regenerate the baseline deliberately.
func CompareManagersReports(baseline, current []byte) (string, error) {
	var base, cur ManagersReport
	if err := json.Unmarshal(baseline, &base); err != nil {
		return "", fmt.Errorf("baseline: %w", err)
	}
	if err := json.Unmarshal(current, &cur); err != nil {
		return "", fmt.Errorf("current: %w", err)
	}
	var b strings.Builder
	fmt.Fprintf(&b, "tree depth: baseline %d/%d, current %d/%d (bound %d)\n",
		base.Tree.EnterDepth, base.Tree.ReleaseDepth,
		cur.Tree.EnterDepth, cur.Tree.ReleaseDepth, cur.DepthBound)
	fmt.Fprintf(&b, "lock node0-share: centralized %.0f%% -> sharded %.0f%% (ceiling %.0f%%)\n",
		cur.LockCentralized.Node0Share*100, cur.LockSharded.Node0Share*100,
		MaxShardedNode0Share*100)
	var failures []string
	if cur.Tree.EnterDepth > cur.DepthBound || cur.Tree.ReleaseDepth > cur.DepthBound {
		failures = append(failures, fmt.Sprintf(
			"tree barrier depth %d/%d exceeds the 2*ceil(log2 %d) = %d bound",
			cur.Tree.EnterDepth, cur.Tree.ReleaseDepth, cur.Nodes, cur.DepthBound))
	}
	if cur.Flat.EnterDepth != cur.Nodes-1 {
		failures = append(failures, fmt.Sprintf(
			"flat barrier enter depth %d, want exactly n-1 = %d (harness drift?)",
			cur.Flat.EnterDepth, cur.Nodes-1))
	}
	if cur.Tree.EnterDepth != base.Tree.EnterDepth || cur.Tree.ReleaseDepth != base.Tree.ReleaseDepth {
		failures = append(failures, fmt.Sprintf(
			"tree depths %d/%d differ from committed baseline %d/%d; regenerate BENCH_managers.json if intended",
			cur.Tree.EnterDepth, cur.Tree.ReleaseDepth,
			base.Tree.EnterDepth, base.Tree.ReleaseDepth))
	}
	if cur.LockCentralized.Node0Share < 0.99 {
		failures = append(failures, fmt.Sprintf(
			"centralized baseline sends only %.0f%% of lock traffic to node 0, want all of it (harness drift?)",
			cur.LockCentralized.Node0Share*100))
	}
	if cur.LockSharded.Node0Share > MaxShardedNode0Share {
		failures = append(failures, fmt.Sprintf(
			"sharded lock traffic concentrates %.0f%% on node 0, ceiling %.0f%%",
			cur.LockSharded.Node0Share*100, MaxShardedNode0Share*100))
	}
	if len(failures) > 0 {
		return b.String(), fmt.Errorf("managers benchmark regression:\n  %s",
			strings.Join(failures, "\n  "))
	}
	return b.String(), nil
}
