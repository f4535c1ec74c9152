package dsm

import (
	"sync"
	"testing"
	"time"

	"actdsm/internal/memlayout"
	"actdsm/internal/msg"
	"actdsm/internal/sim"
	"actdsm/internal/transport"
	"actdsm/internal/vm"
)

// ftConfig is the shared base configuration for the failover acceptance
// tests: fault tolerance with deterministic call numbering (SerialFanOut)
// so crash-at-call schedules replay exactly.
func ftConfig(nodes, npages int, chaos *transport.ChaosOptions) Config {
	if chaos == nil {
		chaos = &transport.ChaosOptions{}
	}
	return Config{
		Nodes:            nodes,
		Pages:            npages,
		FaultTolerance:   true,
		SerialFanOut:     true,
		GCThresholdBytes: -1,
		Transport: transport.Options{
			MaxAttempts: 4,
			BackoffBase: time.Microsecond,
		},
		Chaos: chaos,
	}
}

// ftWorkload drives the two-phase crash workload: every node writes its
// disjoint lanes for preRounds barrier rounds, then kill (if non-nil)
// crashes a node, then the survivors write their lanes for postRounds
// more rounds. The same write sequence runs in the fault-free reference
// (survivors-only in phase two there as well), so the final contents of
// the two runs must be byte-identical. Returns the shadow array.
func ftWorkload(t *testing.T, c *Cluster, nodes, npages, preRounds, postRounds int,
	survivors []int, kill func()) []float32 {
	t.Helper()
	words := npages * memlayout.PageSize / 4
	shadow := make([]float32, words)
	write := func(node, round int) {
		for k := 0; k < 6; k++ {
			w := (node*19 + k*31 + round*57) % words
			w -= w % nodes // disjoint per-node lanes within a round
			w += node
			if w >= words {
				continue
			}
			val := float32(round*1000 + node*100 + k)
			wf32(t, c, node, node, w, val)
			shadow[w] = val
		}
	}
	for round := 0; round < preRounds; round++ {
		for node := 0; node < nodes; node++ {
			write(node, round)
		}
		barrier(t, c)
	}
	if kill != nil {
		kill()
	}
	for round := preRounds; round < preRounds+postRounds; round++ {
		for _, node := range survivors {
			write(node, round)
		}
		barrier(t, c)
	}
	return shadow
}

// ftVerify reads every word from reader and compares against shadow.
func ftVerify(t *testing.T, c *Cluster, reader int, shadow []float32) {
	t.Helper()
	for w := range shadow {
		if got := rf32(t, c, reader, reader, w); got != shadow[w] {
			t.Fatalf("node %d word %d = %v, want %v", reader, w, got, shadow[w])
		}
	}
	if err := c.CheckCoherence(); err != nil {
		t.Fatal(err)
	}
}

// survivorsOf returns 0..nodes-1 minus the victim.
func survivorsOf(nodes, victim int) []int {
	out := make([]int, 0, nodes-1)
	for i := 0; i < nodes; i++ {
		if i != victim {
			out = append(out, i)
		}
	}
	return out
}

// TestFailoverLockShardManager crashes a lock-shard manager mid-protocol
// and proves the role fails over: the sharpest possible scenario is a
// reader holding a still-valid cached copy whose only way to learn of an
// update is the write notice carried by its lock grant. The manager dies
// after serving the writer's release, so the grant must come from the
// shadow log its ring successor accumulated via shadow releases. The
// final contents must match a fault-free run of the same sequence, and
// the failover counters pin the recovery path that served it.
func TestFailoverLockShardManager(t *testing.T) {
	const nodes, npages = 4, 2
	const victim = 2
	const lock = int32(victim) // lockManager(lock) == victim
	run := func(crash bool) (float32, Snapshot) {
		c, err := New(ftConfig(nodes, npages, nil))
		if err != nil {
			t.Fatal(err)
		}
		defer func() { _ = c.Close() }()

		// Node 3 caches word 0 while it is still zero; the copy stays
		// valid until a write notice arrives.
		if got := rf32(t, c, 3, 3, 0); got != 0 {
			t.Fatalf("initial read = %v, want 0", got)
		}
		// Node 0 updates word 0 under the victim-managed lock. The
		// release ships the notice to the victim AND a shadow copy to
		// the victim's ring successor.
		if _, err := c.AcquireLock(0, 0, lock); err != nil {
			t.Fatal(err)
		}
		wf32(t, c, 0, 0, 0, 42)
		if _, err := c.ReleaseLock(0, 0, lock); err != nil {
			t.Fatal(err)
		}
		if crash {
			if err := c.Kill(victim); err != nil {
				t.Fatal(err)
			}
		}
		// Node 3 takes the lock: with the manager dead this acquire is
		// served by the successor from the shadow log, and must still
		// carry node 0's notice.
		if _, err := c.AcquireLock(3, 3, lock); err != nil {
			t.Fatal(err)
		}
		got := rf32(t, c, 3, 3, 0)
		if _, err := c.ReleaseLock(3, 3, lock); err != nil {
			t.Fatal(err)
		}
		barrier(t, c)
		if err := c.CheckCoherence(); err != nil {
			t.Fatal(err)
		}
		return got, c.Stats().Snapshot()
	}

	clean, cleanSnap := run(false)
	crashed, snap := run(true)
	if clean != 42 || crashed != 42 {
		t.Fatalf("post-failover read = %v (clean %v), want 42 — "+
			"the shadow lock log lost the grant notices", crashed, clean)
	}
	if snap.Crashes != 1 {
		t.Fatalf("Crashes = %d, want 1", snap.Crashes)
	}
	if snap.Failovers == 0 {
		t.Fatal("no failovers recorded; the acquire never re-routed")
	}
	// Exactly-once content creation: crash or not, the same writes
	// closed the same intervals.
	if snap.DiffsCreated != cleanSnap.DiffsCreated || snap.TwinsCreated != cleanSnap.TwinsCreated {
		t.Fatalf("diff/twin creation diverged: crash %d/%d, clean %d/%d",
			snap.DiffsCreated, snap.TwinsCreated, cleanSnap.DiffsCreated, cleanSnap.TwinsCreated)
	}
}

// TestFailoverBarrierTreeInterior crashes an interior node of the k-ary
// barrier tree at the exact transport call where it would relay its
// enter aggregate, pinned by a recorded calibration run. The episode
// must re-run over the shrunk alive set with the victim's replicated
// notices folded in by its ring successor, and the surviving nodes'
// final contents must be byte-identical to a fault-free reference.
func TestFailoverBarrierTreeInterior(t *testing.T) {
	const nodes, npages = 7, 3
	const victim = 1 // tree position 1: interior, parent of leaves
	base := func(chaos *transport.ChaosOptions) Config {
		cfg := ftConfig(nodes, npages, chaos)
		cfg.BarrierArity = 2
		return cfg
	}

	// Calibration: record the clean run's call trace to find the victim's
	// barrier-enter relay in the second barrier episode.
	log := &transport.CallLog{}
	{
		c, err := New(base(&transport.ChaosOptions{Plan: transport.RecordingPlan(nil, log)}))
		if err != nil {
			t.Fatal(err)
		}
		ftWorkload(t, c, nodes, npages, 2, 2, survivorsOf(nodes, victim), nil)
		_ = c.Close()
	}
	var crashCall int64
	enters := 0
	for _, r := range log.Records() {
		if r.Kind == byte(msg.KindBarrierEnter) && r.From == victim {
			enters++
			if enters == 2 { // the victim's relay in the second episode
				crashCall = r.Call
				break
			}
		}
	}
	if crashCall == 0 {
		t.Fatal("calibration never saw the victim relay a barrier enter")
	}

	run := func(chaos *transport.ChaosOptions) ([]float32, Snapshot, *Cluster) {
		c, err := New(base(chaos))
		if err != nil {
			t.Fatal(err)
		}
		var kill func()
		if chaos == nil || len(chaos.Crashes) == 0 {
			kill = nil
		}
		_ = kill
		shadow := ftWorkload(t, c, nodes, npages, 2, 2, survivorsOf(nodes, victim), nil)
		return shadow, c.Stats().Snapshot(), c
	}

	cleanC, err := New(base(nil))
	if err != nil {
		t.Fatal(err)
	}
	defer func() { _ = cleanC.Close() }()
	cleanShadow := ftWorkload(t, cleanC, nodes, npages, 2, 2, survivorsOf(nodes, victim), nil)

	shadow, snap, c := run(&transport.ChaosOptions{
		Crashes: []sim.CrashSchedule{{Node: victim, Call: crashCall}},
	})
	defer func() { _ = c.Close() }()

	if snap.Crashes != 1 {
		t.Fatalf("Crashes = %d, want 1 (crash call %d)", snap.Crashes, crashCall)
	}
	if snap.RecoveryRounds == 0 {
		t.Fatal("no barrier recovery round recorded; the crash missed the phase")
	}
	// The victim died mid-barrier, after closing and replicating its
	// phase-one state: every one of its pre-crash writes must survive.
	// Both shadows were built from the same write sequence (the victim's
	// post-crash rounds are survivor-only in both runs), so surviving
	// nodes must read byte-identical content.
	for w := range shadow {
		if shadow[w] != cleanShadow[w] {
			t.Fatalf("workloads diverged at word %d", w)
		}
	}
	ftVerify(t, c, 0, shadow)
	for _, reader := range []int{2, 6} {
		for w := 0; w < len(shadow); w += 7 {
			if got := rf32(t, c, reader, reader, w); got != shadow[w] {
				t.Fatalf("survivor %d word %d = %v, want %v", reader, w, got, shadow[w])
			}
		}
	}
	ftVerify(t, cleanC, 0, cleanShadow)
}

// TestFailoverHomeDirectory crashes the home of a migrated page: with
// HomeMigration the page's last writer became its home, so killing that
// node takes down both the page image and the diff directory entry. The
// ring standby (refreshed by the migrated-home upkeep at the barrier)
// must serve the page, and a reader must still see the dead home's
// writes.
func TestFailoverHomeDirectory(t *testing.T) {
	const nodes, npages = 4, 3
	const victim = 1
	cfg := ftConfig(nodes, npages, nil)
	cfg.HomeMigration = true
	c, err := New(cfg)
	if err != nil {
		t.Fatal(err)
	}
	defer func() { _ = c.Close() }()

	words := npages * memlayout.PageSize / 4
	wordsPerPage := memlayout.PageSize / 4
	// The victim becomes the sole writer — and so the migrated home — of
	// every page.
	for p := 0; p < npages; p++ {
		wf32(t, c, victim, victim, p*wordsPerPage, float32(100+p))
	}
	barrier(t, c)
	for p := 0; p < npages; p++ {
		if got := c.nodes[0].home(vm.PageID(p)); got != victim {
			t.Fatalf("page %d home = %d, want migrated to %d", p, got, victim)
		}
	}

	if err := c.Kill(victim); err != nil {
		t.Fatal(err)
	}
	// Every fetch must fail over to the standby's refreshed copy.
	for p := 0; p < npages; p++ {
		if got := rf32(t, c, 3, 3, p*wordsPerPage); got != float32(100+p) {
			t.Fatalf("page %d word 0 = %v after home crash, want %v", p, got, float32(100+p))
		}
	}
	snap := c.Stats().Snapshot()
	if snap.Crashes != 1 {
		t.Fatalf("Crashes = %d, want 1", snap.Crashes)
	}
	if snap.Failovers == 0 {
		t.Fatal("no failovers recorded; reads never re-routed to the standby")
	}
	barrier(t, c)
	if err := c.CheckCoherence(); err != nil {
		t.Fatal(err)
	}
	_ = words
}

// TestFailoverCrashRestart runs the full crash/recovery cycle through a
// scheduled restart: the victim crashes mid-workload via a crash-at-call
// schedule, rejoins at a named barrier episode with wiped state, and
// then writes again; the final contents seen by every node must match
// the shadow, and the rejoin counters pin the recovery protocol.
func TestFailoverCrashRestart(t *testing.T) {
	// npages > victim so the victim statically homes page 2 and the
	// rejoin protocol has something to eagerly re-fetch.
	const nodes, npages = 4, 4
	const victim = 2
	words := npages * memlayout.PageSize / 4

	// Calibration: find the call number of the victim's first barrier
	// enter (episode 0), so the crash lands between its phase-one
	// replication and the fan-in. The victim therefore writes only in
	// round 0; later rounds are survivor-only in BOTH runs so the final
	// contents stay identical.
	log := &transport.CallLog{}
	{
		c, err := New(ftConfig(nodes, npages, &transport.ChaosOptions{
			Plan: transport.RecordingPlan(nil, log),
		}))
		if err != nil {
			t.Fatal(err)
		}
		ftWorkload(t, c, nodes, npages, 1, 2, survivorsOf(nodes, victim), nil)
		_ = c.Close()
	}
	var crashCall int64
	for _, r := range log.Records() {
		if r.Kind == byte(msg.KindBarrierEnter) && r.From == victim {
			crashCall = r.Call // first barrier enter from the victim
			break
		}
	}
	if crashCall == 0 {
		t.Fatal("calibration never saw the victim enter a barrier")
	}

	c, err := New(ftConfig(nodes, npages, &transport.ChaosOptions{
		Crashes: []sim.CrashSchedule{{Node: victim, Call: crashCall, RestartEpoch: 2}},
	}))
	if err != nil {
		t.Fatal(err)
	}
	defer func() { _ = c.Close() }()

	shadow := ftWorkload(t, c, nodes, npages, 1, 2, survivorsOf(nodes, victim), nil)
	snap := c.Stats().Snapshot()
	if snap.Crashes != 1 {
		t.Fatalf("Crashes = %d, want 1 (crash call %d)", snap.Crashes, crashCall)
	}
	if snap.Rejoins != 1 {
		t.Fatalf("Rejoins = %d, want 1 — the scheduled restart never ran", snap.Rejoins)
	}
	if snap.RecoveryFetches == 0 {
		t.Fatal("rejoin performed no recovery fetches")
	}

	// The rejoined node writes again and every node observes it.
	wf32(t, c, victim, victim, victim, 7777)
	shadow[victim] = 7777
	barrier(t, c)
	for node := 0; node < nodes; node++ {
		for w := 0; w < words; w += 5 {
			if got := rf32(t, c, node, node, w); got != shadow[w] {
				t.Fatalf("node %d word %d = %v, want %v", node, w, got, shadow[w])
			}
		}
	}
	if err := c.CheckCoherence(); err != nil {
		t.Fatal(err)
	}
}

// TestFailoverImperativeRestart covers Cluster.Restart, the imperative
// recovery entry point: kill, verify the view routes around the victim,
// restart, verify the node serves and writes again.
func TestFailoverImperativeRestart(t *testing.T) {
	const nodes, npages = 3, 2
	c, err := New(ftConfig(nodes, npages, nil))
	if err != nil {
		t.Fatal(err)
	}
	defer func() { _ = c.Close() }()

	wf32(t, c, 1, 1, 0, 11)
	barrier(t, c)
	if err := c.Kill(1); err != nil {
		t.Fatal(err)
	}
	if got := c.DeadNodes(); len(got) != 1 || got[0] != 1 {
		t.Fatalf("DeadNodes = %v, want [1]", got)
	}
	if got := c.AliveSuccessor(1); got != 2 {
		t.Fatalf("AliveSuccessor(1) = %d, want 2", got)
	}
	if got := rf32(t, c, 0, 0, 0); got != 11 {
		t.Fatalf("word 0 = %v after crash, want 11", got)
	}
	if err := c.Restart(1); err != nil {
		t.Fatal(err)
	}
	if got := c.DeadNodes(); len(got) != 0 {
		t.Fatalf("DeadNodes = %v after restart, want none", got)
	}
	barrier(t, c)
	wf32(t, c, 1, 1, 4, 22)
	barrier(t, c)
	if got := rf32(t, c, 2, 2, 4); got != 22 {
		t.Fatalf("rejoined node's write = %v at node 2, want 22", got)
	}
	if got := rf32(t, c, 1, 1, 0); got != 11 {
		t.Fatalf("rejoined node reads word 0 = %v, want 11", got)
	}
	if err := c.CheckCoherence(); err != nil {
		t.Fatal(err)
	}
}

// TestFailoverHammerRace drives concurrent serves, lock traffic, and GC
// while a manager crashes and later rejoins, with every page of a node
// on one shard stripe (where a path taking two shard locks would
// deadlock) and with the pages spread over eight. Run with -race; the
// assertion is the absence of data races plus a coherent final state.
func TestFailoverHammerRace(t *testing.T) {
	for _, shards := range []int{1, 8} {
		name := "shards1"
		if shards == 8 {
			name = "shards8"
		}
		t.Run(name, func(t *testing.T) {
			const nodes, npages = 4, 4
			const victim = 1
			cfg := ftConfig(nodes, npages, nil)
			cfg.SerialFanOut = false // let fan-outs race
			cfg.ServiceShards = shards
			cfg.GCThresholdBytes = 1 // GC every barrier with stored diffs
			c, err := New(cfg)
			if err != nil {
				t.Fatal(err)
			}
			defer func() { _ = c.Close() }()

			words := npages * memlayout.PageSize / 4
			var wg sync.WaitGroup
			workers := []int{0, 2, 3}
			phase := make(chan struct{}) // closed when the victim is dead
			for _, node := range workers {
				node := node
				wg.Add(1)
				go func() {
					defer wg.Done()
					lk := int32(victim) // the dying manager's shard
					for i := 0; i < 40; i++ {
						if _, err := c.AcquireLock(node, node, lk); err != nil {
							t.Error(err)
							return
						}
						w := (i*nodes + node) % words
						b, _, err := c.Span(node, node, w*4, 4, vm.Write)
						if err != nil {
							t.Error(err)
							return
						}
						memlayout.ViewF32(b).Set(0, float32(node*1000+i))
						if _, err := c.ReleaseLock(node, node, lk); err != nil {
							t.Error(err)
							return
						}
						if i == 20 {
							<-phase // wait until the victim is down
						}
					}
				}()
			}
			// The victim participates until it dies mid-traffic.
			for i := 0; i < 10; i++ {
				if _, err := c.AcquireLock(victim, victim, int32(victim)); err != nil {
					t.Fatal(err)
				}
				wf32(t, c, victim, victim, i, float32(i))
				if _, err := c.ReleaseLock(victim, victim, int32(victim)); err != nil {
					t.Fatal(err)
				}
			}
			if err := c.Kill(victim); err != nil {
				t.Fatal(err)
			}
			close(phase)
			wg.Wait()

			barrier(t, c)
			if err := c.Restart(victim); err != nil {
				t.Fatal(err)
			}
			barrier(t, c)
			if err := c.CheckCoherence(); err != nil {
				t.Fatal(err)
			}
			snap := c.Stats().Snapshot()
			if snap.Crashes != 1 || snap.Rejoins != 1 {
				t.Fatalf("Crashes/Rejoins = %d/%d, want 1/1", snap.Crashes, snap.Rejoins)
			}
			if snap.Failovers == 0 {
				t.Fatal("hammer never exercised a failover")
			}
		})
	}
}
