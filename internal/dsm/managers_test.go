package dsm

import (
	"sync/atomic"
	"testing"
	"time"

	"actdsm/internal/memlayout"
	"actdsm/internal/msg"
	"actdsm/internal/sim"
	"actdsm/internal/transport"
	"actdsm/internal/vm"
)

// Tests for the decentralized managers: the tree barrier, migrating
// page homes, and sharded lock managers whose grants name the holder to
// pull from.

func TestNodeForIDSeam(t *testing.T) {
	// The old placement was int(p) % Nodes with p an int32-backed
	// PageID — fine until an id crosses a word seam. nodeForID must
	// stay in [0, n) for every int64, including negatives (Go's % takes
	// the dividend's sign) and values past either 32-bit boundary.
	cases := []struct {
		id int64
		n  int
	}{
		{0, 3}, {1, 3}, {2, 3}, {3, 3},
		{-1, 3}, {-3, 3}, {-4, 7},
		{1 << 31, 5}, {(1 << 31) - 1, 5}, {1 << 40, 5},
		{-(1 << 31), 5}, {-(1 << 40), 9},
		{int64(^uint64(0) >> 1), 11}, {-int64(^uint64(0)>>1) - 1, 11},
	}
	for _, tc := range cases {
		got := nodeForID(tc.id, tc.n)
		if got < 0 || got >= tc.n {
			t.Fatalf("nodeForID(%d, %d) = %d, out of range", tc.id, tc.n, got)
		}
		// Consistency with the mathematical mod for non-negative ids.
		if tc.id >= 0 && got != int(tc.id%int64(tc.n)) {
			t.Fatalf("nodeForID(%d, %d) = %d, want %d", tc.id, tc.n, got, tc.id%int64(tc.n))
		}
	}
	// Adjacent ids spread across nodes, negative or not.
	if nodeForID(-1, 4) == nodeForID(-2, 4) {
		t.Fatal("adjacent negative ids collapsed onto one node")
	}
}

func TestTreeLevelsShape(t *testing.T) {
	levels := treeLevels(10, 2)
	want := [][]int{{1, 2}, {3, 4, 5, 6}, {7, 8, 9}}
	if len(levels) != len(want) {
		t.Fatalf("levels = %v", levels)
	}
	for i := range want {
		if len(levels[i]) != len(want[i]) {
			t.Fatalf("level %d = %v, want %v", i, levels[i], want[i])
		}
		for j := range want[i] {
			if levels[i][j] != want[i][j] {
				t.Fatalf("level %d = %v, want %v", i, levels[i], want[i])
			}
		}
	}
	// Every non-root node appears exactly once, and parents sit in the
	// previous level, for several (n, k).
	for _, tc := range []struct{ n, k int }{{2, 2}, {5, 2}, {9, 3}, {64, 2}, {64, 8}, {7, 4}} {
		seen := map[int]bool{}
		lv := treeLevels(tc.n, tc.k)
		for li, l := range lv {
			for _, i := range l {
				if seen[i] {
					t.Fatalf("n=%d k=%d: node %d twice", tc.n, tc.k, i)
				}
				seen[i] = true
				p := treeParent(i, tc.k)
				if li == 0 {
					if p != 0 {
						t.Fatalf("n=%d k=%d: level-0 node %d parent %d", tc.n, tc.k, i, p)
					}
				} else {
					found := false
					for _, q := range lv[li-1] {
						if q == p {
							found = true
						}
					}
					if !found {
						t.Fatalf("n=%d k=%d: node %d parent %d not in level %d", tc.n, tc.k, i, p, li-1)
					}
				}
				if !isDescendant(i, p, tc.k) || !isDescendant(i, 0, tc.k) {
					t.Fatalf("n=%d k=%d: descendant relation broken at %d", tc.n, tc.k, i)
				}
			}
		}
		if len(seen) != tc.n-1 {
			t.Fatalf("n=%d k=%d: covered %d nodes", tc.n, tc.k, len(seen))
		}
	}
}

// TestTreeBarrierMatchesFlat runs the same workload under the flat
// broadcast and under tree barriers of several arities: every protocol
// counter except raw message traffic must be identical — the tree
// changes who carries the notices, not what the barrier computes.
func TestTreeBarrierMatchesFlat(t *testing.T) {
	const nodes, npages = 5, 4
	run := func(arity int) Snapshot {
		c, err := New(Config{Nodes: nodes, Pages: npages, BarrierArity: arity})
		if err != nil {
			t.Fatal(err)
		}
		defer func() { _ = c.Close() }()
		chaosWorkload(t, c, nodes, npages)
		return c.Stats().Snapshot()
	}
	flat := run(0).Counters()
	for _, arity := range []int{2, 3, 8} {
		tree := run(arity).Counters()
		a, b := tree, flat
		a.Messages, b.Messages = 0, 0
		a.BytesTotal, b.BytesTotal = 0, 0
		if a != b {
			t.Fatalf("arity %d counters diverge from flat:\ntree: %+v\nflat: %+v", arity, tree, flat)
		}
	}
}

// TestTreeBarrierShapes soaks the tree barrier across node counts and
// arities, including ragged trees where the last internal node has
// fewer than k children.
func TestTreeBarrierShapes(t *testing.T) {
	for _, tc := range []struct{ nodes, arity int }{
		{2, 2}, {3, 2}, {4, 3}, {6, 4}, {7, 2}, {9, 3},
	} {
		c, err := New(Config{Nodes: tc.nodes, Pages: 3, BarrierArity: tc.arity})
		if err != nil {
			t.Fatal(err)
		}
		chaosWorkload(t, c, tc.nodes, 3)
		_ = c.Close()
	}
}

// TestHomeMigration checks an explicit home move end to end: after the
// barrier that carries a queued move, every node agrees on the page's new
// home, later demand fetches are served by it, and coherence holds
// across further moves.
func TestHomeMigration(t *testing.T) {
	c, err := New(Config{Nodes: 3, Pages: 3})
	if err != nil {
		t.Fatal(err)
	}
	defer func() { _ = c.Close() }()
	move := func(page, to int) {
		t.Helper()
		if err := c.QueueHomeMoves(map[int]int{page: to}); err != nil {
			t.Fatal(err)
		}
	}

	// Page 1's static home is node 1; node 2 writes it and takes it over.
	wf32(t, c, 2, 16, 1024, 7.5)
	move(1, 2)
	barrier(t, c)
	for i := 0; i < 3; i++ {
		if got := c.nodes[i].home(1); got != 2 {
			t.Fatalf("node %d thinks page 1's home is %d, want 2", i, got)
		}
	}
	if got := c.Stats().Snapshot().PlacementHomeMoves; got != 1 {
		t.Fatalf("PlacementHomeMoves = %d, want 1", got)
	}
	// Demand fetch from node 0 must be served by the new home.
	var calls []msg.Kind
	var dests []int
	c.SetProbe(&Probe{TransportCall: func(from, to int, kind msg.Kind, bytes int, wall time.Duration, failed bool) {
		calls = append(calls, kind)
		dests = append(dests, to)
	}})
	if got := rf32(t, c, 0, 0, 1024); got != 7.5 {
		t.Fatalf("node 0 read %v, want 7.5", got)
	}
	c.SetProbe(nil)
	foundPageReq := false
	for i, k := range calls {
		if k == msg.KindPageRequest {
			foundPageReq = true
			if dests[i] != 2 {
				t.Fatalf("page request went to node %d, want moved home 2", dests[i])
			}
		}
	}
	if !foundPageReq {
		t.Fatal("no PageRequest observed on demand miss")
	}

	// A later move hands the page on again.
	wf32(t, c, 0, 0, 1025, 8.5)
	move(1, 0)
	barrier(t, c)
	if got := c.nodes[1].home(1); got != 0 {
		t.Fatalf("page 1 home after second barrier = %d, want 0", got)
	}
	if got := rf32(t, c, 1, 8, 1024); got != 7.5 {
		t.Fatalf("node 1 read %v, want 7.5", got)
	}
	if err := c.CheckCoherence(); err != nil {
		t.Fatal(err)
	}
}

// TestHomeMigrationWorkloads soaks home moves (with GC, which must
// consolidate at the moved home) against the shadow-checked workload,
// flat and tree.
func TestHomeMigrationWorkloads(t *testing.T) {
	for _, tc := range []struct {
		name  string
		arity int
		gc    int
	}{
		{"flat", 0, -1},
		{"tree", 2, -1},
		{"flat-gc", 0, 1},
		{"tree-gc", 3, 1},
	} {
		t.Run(tc.name, func(t *testing.T) {
			const nodes, npages = 4, 4
			c, err := New(Config{
				Nodes: nodes, Pages: npages,
				BarrierArity:     tc.arity,
				GCThresholdBytes: tc.gc,
			})
			if err != nil {
				t.Fatal(err)
			}
			defer func() { _ = c.Close() }()
			// Rotate sole ownership: in round r, node (p+r)%nodes writes
			// page p and takes over its home, so every barrier moves every
			// page's home.
			words := npages * memlayout.PageSize / 4
			shadow := make([]float32, words)
			for round := 0; round < 4; round++ {
				moves := make(map[int]int, npages)
				for p := 0; p < npages; p++ {
					node := (p + round) % nodes
					for k := 0; k < 4; k++ {
						w := p*1024 + node*8 + k
						val := float32(round*1000 + p*100 + k)
						wf32(t, c, node, node, w, val)
						shadow[w] = val
					}
					moves[p] = node
				}
				if err := c.QueueHomeMoves(moves); err != nil {
					t.Fatal(err)
				}
				barrier(t, c)
				for p := 0; p < npages; p++ {
					if got := c.nodes[0].home(vm.PageID(p)); got != (p+round)%nodes {
						t.Fatalf("round %d: page %d home %d, want %d", round, p, got, (p+round)%nodes)
					}
				}
			}
			for node := 0; node < nodes; node++ {
				for w := 0; w < words; w += 7 {
					if got := rf32(t, c, node, node, w); got != shadow[w] {
						t.Fatalf("node %d word %d = %v, want %v", node, w, got, shadow[w])
					}
				}
			}
			if err := c.CheckCoherence(); err != nil {
				t.Fatal(err)
			}
			// Round 0 writes every page at its static home; each later
			// round moves all of them.
			if got, want := c.Stats().Snapshot().PlacementHomeMoves, int64(3*npages); got != want {
				t.Fatalf("PlacementHomeMoves = %d, want %d", got, want)
			}
		})
	}
}

// TestLockShardsSpread checks the sharded lock managers: with the
// default sharding, acquires for a spread of locks are served by their
// shard owners across the cluster; LockShards: 1 restores the
// centralized node-0 baseline.
func TestLockShardsSpread(t *testing.T) {
	countDests := func(shards int) map[int]int {
		c, err := New(Config{Nodes: 4, Pages: 2, LockShards: shards})
		if err != nil {
			t.Fatal(err)
		}
		defer func() { _ = c.Close() }()
		dests := map[int]int{}
		c.SetProbe(&Probe{TransportCall: func(from, to int, kind msg.Kind, bytes int, wall time.Duration, failed bool) {
			if kind == msg.KindLockAcquire || kind == msg.KindLockRelease {
				dests[to]++
			}
		}})
		// Node 3 works through 16 locks; every acquire that leaves the
		// node reveals the serving manager.
		for lk := int32(0); lk < 16; lk++ {
			if _, err := c.AcquireLock(3, 24, lk); err != nil {
				t.Fatal(err)
			}
			wf32(t, c, 3, 24, int(lk), float32(lk))
			if _, err := c.ReleaseLock(3, 24, lk); err != nil {
				t.Fatal(err)
			}
		}
		return dests
	}

	central := countDests(1)
	for to := range central {
		if to != 0 {
			t.Fatalf("LockShards=1 sent lock traffic to node %d: %v", to, central)
		}
	}
	if central[0] == 0 {
		t.Fatal("LockShards=1 produced no lock traffic")
	}

	sharded := countDests(0)
	// Node 3 self-serves its own shard; the other three shard owners
	// must each have seen traffic.
	for _, owner := range []int{0, 1, 2} {
		if sharded[owner] == 0 {
			t.Fatalf("shard owner %d saw no lock traffic: %v", owner, sharded)
		}
	}
	total := 0
	for _, n := range sharded {
		total += n
	}
	if share := float64(sharded[0]) / float64(total); share > 0.5 {
		t.Fatalf("node 0 still serves %.0f%% of lock traffic: %v", share*100, sharded)
	}
}

// TestLockGrantForwarding checks the lock path across three nodes: the
// shard manager names the previous holder, the holder serves the history
// directly, and causality is preserved across the hand-off chain.
func TestLockGrantForwarding(t *testing.T) {
	c, err := New(Config{Nodes: 3, Pages: 2})
	if err != nil {
		t.Fatal(err)
	}
	defer func() { _ = c.Close() }()
	const lock = int32(4) // shard owner: node 1 with 3 nodes/shards

	if _, err := c.AcquireLock(0, 0, lock); err != nil {
		t.Fatal(err)
	}
	wf32(t, c, 0, 0, 0, 5.0)
	if _, err := c.ReleaseLock(0, 0, lock); err != nil {
		t.Fatal(err)
	}
	// Node 2's acquire goes to shard owner 1, which forwards to holder
	// 0; the pull must deliver node 0's write.
	if _, err := c.AcquireLock(2, 16, lock); err != nil {
		t.Fatal(err)
	}
	if got := rf32(t, c, 2, 16, 0); got != 5.0 {
		t.Fatalf("node 2 read %v after pulling from the holder, want 5", got)
	}
	wf32(t, c, 2, 16, 0, 6.0)
	if _, err := c.ReleaseLock(2, 16, lock); err != nil {
		t.Fatal(err)
	}
	// Hand back to node 1 (the shard owner itself): holder is node 2.
	if _, err := c.AcquireLock(1, 8, lock); err != nil {
		t.Fatal(err)
	}
	if got := rf32(t, c, 1, 8, 0); got != 6.0 {
		t.Fatalf("node 1 read %v, want 6 (transitive history)", got)
	}
	if _, err := c.ReleaseLock(1, 8, lock); err != nil {
		t.Fatal(err)
	}
	if got := c.Stats().Snapshot().LockForwards; got < 2 {
		t.Fatalf("LockForwards = %d, want >= 2", got)
	}
	barrier(t, c)
	if err := c.CheckCoherence(); err != nil {
		t.Fatal(err)
	}
}

// TestForwardedGrantPullRetry drops the first LockPull reply: the
// holder has served the history, the requester retries, and the
// re-served pull must carry the same notices (a pure read). The value
// still arrives exactly once.
func TestForwardedGrantPullRetry(t *testing.T) {
	var dropped atomic.Bool
	c, err := New(Config{
		Nodes: 3, Pages: 1,
		Transport: transport.Options{
			MaxAttempts: 4,
			BackoffBase: time.Microsecond,
		},
		Chaos: &transport.ChaosOptions{
			Plan: func(key sim.CallKey, payload []byte) transport.Fault {
				if msg.Kind(key.Kind) == msg.KindLockPull && dropped.CompareAndSwap(false, true) {
					return transport.FaultDropReply
				}
				return transport.FaultNone
			},
		},
	})
	if err != nil {
		t.Fatal(err)
	}
	defer func() { _ = c.Close() }()
	const lock = int32(1) // shard owner: node 1

	// Node 2 caches the zero page so only the pulled notice can
	// invalidate it.
	if got := rf32(t, c, 2, 16, 0); got != 0 {
		t.Fatalf("initial read = %v", got)
	}
	if _, err := c.AcquireLock(0, 0, lock); err != nil {
		t.Fatal(err)
	}
	wf32(t, c, 0, 0, 0, 42)
	if _, err := c.ReleaseLock(0, 0, lock); err != nil {
		t.Fatal(err)
	}
	if _, err := c.AcquireLock(2, 16, lock); err != nil {
		t.Fatal(err)
	}
	if got := rf32(t, c, 2, 16, 0); got != 42 {
		t.Fatalf("node 2 read %v after retried pull, want 42", got)
	}
	if _, err := c.ReleaseLock(2, 16, lock); err != nil {
		t.Fatal(err)
	}
	if !dropped.Load() {
		t.Fatal("planned fault never fired")
	}
	var pullRetries int64
	for _, cs := range c.Stats().Snapshot().Calls {
		if cs.Kind == "LockPull" {
			pullRetries = cs.Retries
		}
	}
	if pullRetries == 0 {
		t.Fatal("no LockPull retries recorded")
	}
}

// TestShardedLockChaosDedup drops and duplicates sharded lock traffic
// (one dropped LockAcquire reply, one duplicated LockRelease): retries and
// re-executions must leave every protocol counter identical to a
// fault-free run.
func TestShardedLockChaosDedup(t *testing.T) {
	workload := func(c *Cluster) {
		for round := 0; round < 3; round++ {
			for node := 0; node < 3; node++ {
				for lk := int32(0); lk < 4; lk++ {
					if _, err := c.AcquireLock(node, node*8, lk); err != nil {
						t.Fatal(err)
					}
					w := int(lk)*16 + node
					wf32(t, c, node, node*8, w, float32(round*100+node*10+int(lk)))
					if _, err := c.ReleaseLock(node, node*8, lk); err != nil {
						t.Fatal(err)
					}
				}
			}
		}
		barrier(t, c)
		if err := c.CheckCoherence(); err != nil {
			t.Fatal(err)
		}
	}
	run := func(chaos *transport.ChaosOptions) Snapshot {
		c, err := New(Config{
			Nodes: 3, Pages: 2,
			GCThresholdBytes: -1,
			Transport: transport.Options{
				MaxAttempts: 6,
				BackoffBase: time.Microsecond,
			},
			Chaos: chaos,
		})
		if err != nil {
			t.Fatal(err)
		}
		defer func() { _ = c.Close() }()
		workload(c)
		return c.Stats().Snapshot()
	}

	clean := run(nil)
	if clean.LockForwards == 0 {
		t.Fatal("workload never forwarded a grant; test proves nothing")
	}

	var dropAcq, dupRel atomic.Bool
	chaotic := run(&transport.ChaosOptions{
		Plan: func(key sim.CallKey, payload []byte) transport.Fault {
			switch msg.Kind(key.Kind) {
			case msg.KindLockAcquire:
				if dropAcq.CompareAndSwap(false, true) {
					return transport.FaultDropReply
				}
			case msg.KindLockRelease:
				if dupRel.CompareAndSwap(false, true) {
					return transport.FaultDuplicate
				}
			}
			return transport.FaultNone
		},
	})
	if !dropAcq.Load() || !dupRel.Load() {
		t.Fatalf("faults fired: acquire %v, release %v", dropAcq.Load(), dupRel.Load())
	}
	if got, want := chaotic.Counters(), clean.Counters(); got != want {
		t.Fatalf("counters diverge under lock chaos:\nchaos: %+v\nclean: %+v", got, want)
	}
}

// TestTreeNodeFailureMidFanIn fails an internal tree node's links in
// both barrier phases: one aggregated enter loses its reply after the
// parent folded it, and one release relay loses its request. Transport
// retry (Config.Transport.MaxAttempts) must complete the barrier with
// protocol counters identical to a fault-free run: the re-delivered
// aggregate folds exactly once.
func TestTreeNodeFailureMidFanIn(t *testing.T) {
	const nodes, npages = 7, 4
	run := func(chaos *transport.ChaosOptions) Snapshot {
		c, err := New(Config{
			Nodes: nodes, Pages: npages,
			BarrierArity:     2,
			GCThresholdBytes: -1,
			Transport:        transport.Options{MaxAttempts: 3, BackoffBase: time.Microsecond},
			Chaos:            chaos,
		})
		if err != nil {
			t.Fatal(err)
		}
		defer func() { _ = c.Close() }()
		chaosWorkload(t, c, nodes, npages)
		return c.Stats().Snapshot()
	}

	clean := run(nil)

	// Node 1 and node 2 are internal (children 3,4 and 5,6).
	var enterDrop, relayDrop atomic.Bool
	chaotic := run(&transport.ChaosOptions{
		Plan: func(key sim.CallKey, payload []byte) transport.Fault {
			switch msg.Kind(key.Kind) {
			case msg.KindBarrierEnter:
				// Node 1's aggregate (already carrying its children's
				// folds) reaches the root but the reply is lost.
				if key.From == 1 && key.To == 0 && key.N == 0 {
					enterDrop.Store(true)
					return transport.FaultDropReply
				}
			case msg.KindBarrierRelease:
				// The relay from node 2 down to node 5 never arrives.
				if key.From == 2 && key.To == 5 && key.N == 0 {
					relayDrop.Store(true)
					return transport.FaultDropRequest
				}
			}
			return transport.FaultNone
		},
	})
	if !enterDrop.Load() || !relayDrop.Load() {
		t.Fatalf("faults fired: enter %v, relay %v", enterDrop.Load(), relayDrop.Load())
	}
	retries := make(map[string]int64)
	for _, cs := range chaotic.Calls {
		retries[cs.Kind] = cs.Retries
	}
	if retries["BarrierEnter"] == 0 || retries["BarrierRelease"] == 0 {
		t.Fatalf("transport retries: BarrierEnter %d, BarrierRelease %d, want both > 0",
			retries["BarrierEnter"], retries["BarrierRelease"])
	}
	if got, want := chaotic.Counters(), clean.Counters(); got != want {
		t.Fatalf("counters diverge after tree failures:\nchaos: %+v\nclean: %+v", got, want)
	}
}

// TestChaosPlanReplayDeterminism is the per-edge keying regression: two
// runs of the same workload under the same deterministic drop-then-retry
// plan, fan-outs in parallel, must observe the identical per-edge
// transport-call trace (from, to, kind, place on the edge, fault) and
// identical protocol counters. This is what makes chaos plans keyed per
// edge replayable — see transport.RecordingPlan.
func TestChaosPlanReplayDeterminism(t *testing.T) {
	run := func() ([]transport.CallRecord, Counters) {
		log := &transport.CallLog{}
		c, err := New(Config{
			Nodes: 5, Pages: 4,
			BarrierArity:     2,
			GCThresholdBytes: -1,
			Transport: transport.Options{
				MaxAttempts: 6,
				BackoffBase: time.Microsecond,
			},
			Chaos: &transport.ChaosOptions{
				Plan: transport.RecordingPlan(func(key sim.CallKey, payload []byte) transport.Fault {
					// A sparse deterministic schedule keyed purely on
					// places on edges: requests and replies are lost at
					// fixed points of each edge's sequence.
					if key.N%7 == 3 {
						return transport.FaultDropRequest
					}
					if key.N%11 == 5 {
						return transport.FaultDropReply
					}
					return transport.FaultNone
				}, log),
			},
		})
		if err != nil {
			t.Fatal(err)
		}
		defer func() { _ = c.Close() }()
		chaosWorkload(t, c, 5, 4)
		for node := 0; node < 5; node++ {
			lk := int32(node * 3)
			if _, err := c.AcquireLock(node, node*8, lk); err != nil {
				t.Fatal(err)
			}
			wf32(t, c, node, node*8, node*4, float32(node))
			if _, err := c.ReleaseLock(node, node*8, lk); err != nil {
				t.Fatal(err)
			}
		}
		barrier(t, c)
		return log.Edges(), c.Stats().Snapshot().Counters()
	}

	traceA, countersA := run()
	traceB, countersB := run()
	if countersA != countersB {
		t.Fatalf("counters diverge between identical chaotic runs:\n%+v\n%+v", countersA, countersB)
	}
	if len(traceA) != len(traceB) {
		t.Fatalf("trace lengths diverge: %d vs %d", len(traceA), len(traceB))
	}
	faults := 0
	for i := range traceA {
		if traceA[i] != traceB[i] {
			t.Fatalf("per-edge trace diverges at record %d:\nA: %+v\nB: %+v", i, traceA[i], traceB[i])
		}
		if traceA[i].Fault != transport.FaultNone {
			faults++
		}
	}
	if faults == 0 {
		t.Fatal("plan injected nothing; test proves nothing")
	}
}

// TestDistributedManagersEndToEnd runs the fully decentralized
// configuration — tree barrier, sharded and forwarded locks, GC,
// batching and prefetch — over both transports against the shadow
// workload.
func TestDistributedManagersEndToEnd(t *testing.T) {
	for _, useTCP := range []bool{false, true} {
		name := "local"
		if useTCP {
			name = "tcp"
		}
		t.Run(name, func(t *testing.T) {
			c, err := New(Config{
				Nodes: 4, Pages: 4,
				BarrierArity:     2,
				GCThresholdBytes: 1,
				BatchDiffs:       true,
				PrefetchBudget:   8,
				UseTCP:           useTCP,
			})
			if err != nil {
				t.Fatal(err)
			}
			defer func() { _ = c.Close() }()
			chaosWorkload(t, c, 4, 4)
		})
	}
}

// TestManagerConfigValidation: the acceptance side of the manager knobs
// (TestNewValidation holds the rejections).
func TestManagerConfigValidation(t *testing.T) {
	// LockShards beyond the node count is fine: shards fold onto nodes.
	c, err := New(Config{Nodes: 2, Pages: 1, LockShards: 64})
	if err != nil {
		t.Fatal(err)
	}
	_ = c.Close()
	if mgr := c.lockManager(63); mgr < 0 || mgr >= 2 {
		t.Fatalf("lockManager(63) = %d", mgr)
	}
}

var _ = vm.PageID(0)
var _ = memlayout.PageSize
