package dsm

import (
	"fmt"
	"sync"
	"testing"
	"time"

	"actdsm/internal/memlayout"
	"actdsm/internal/msg"
	"actdsm/internal/sim"
	"actdsm/internal/transport"
	"actdsm/internal/vm"
)

// ftMode is the data-path axis of the crash-schedule tests: every crash
// runs once over the unbatched demand route and once with batched fetches,
// barrier push and pull prefetch on, where a dead writer's diffs have to
// reach DiffBatchRequests and the root's push collection from the replica
// store.
type ftMode struct {
	name     string
	batch    bool
	prefetch int
}

var ftModes = []ftMode{{"unbatched", false, 0}, {"batched+prefetch", true, -1}}

// forEachFTMode runs body as one subtest per mode.
func forEachFTMode(t *testing.T, body func(t *testing.T, mode ftMode)) {
	for _, mode := range ftModes {
		t.Run(mode.name, func(t *testing.T) { body(t, mode) })
	}
}

// ftConfig is the shared base configuration for the failover acceptance
// tests: fault tolerance under a chaos transport, whose per-edge call keys
// let crash-at-call schedules replay exactly with fan-outs in parallel.
func ftConfig(mode ftMode, nodes, npages int, chaos *transport.ChaosOptions) Config {
	if chaos == nil {
		chaos = &transport.ChaosOptions{}
	}
	return Config{
		Nodes:            nodes,
		Pages:            npages,
		FaultTolerance:   true,
		BatchDiffs:       mode.batch,
		PrefetchBudget:   mode.prefetch,
		GCThresholdBytes: -1,
		Transport: transport.Options{
			MaxAttempts: 4,
			BackoffBase: time.Microsecond,
		},
		Chaos: chaos,
	}
}

// epoch ends an epoch the way the thread engine does: the barrier, then
// the pull prefetch round (a no-op without a prefetch budget).
func epoch(t *testing.T, c *Cluster) {
	t.Helper()
	barrier(t, c)
	if _, err := c.PrefetchRound(); err != nil {
		t.Fatal(err)
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
		epoch(t, c)
	}
	if kill != nil {
		kill()
	}
	for round := preRounds; round < preRounds+postRounds; round++ {
		for _, node := range survivors {
			write(node, round)
		}
		epoch(t, c)
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

// crashAtCall is the crash-schedule acceptance run the manager-role tests
// share. A recorded clean run of the two-phase workload finds the call to
// die at — the nth one pick accepts, whose edge must touch the victim —
// then the workload runs once clean
// and once with the victim crashing at exactly that call, mid-protocol.
// Every write of an interval the victim closed and replicated must
// survive, so the survivors of the crashed run read byte for byte what the
// clean run wrote. Returns the crashed
// run's counters.
func crashAtCall(t *testing.T, mode ftMode, nodes, npages, arity, victim, nth int, pick func(transport.CallRecord) bool) Snapshot {
	t.Helper()
	run := func(chaos *transport.ChaosOptions) (*Cluster, []float32) {
		cfg := ftConfig(mode, nodes, npages, chaos)
		cfg.BarrierArity = arity
		c, err := New(cfg)
		if err != nil {
			t.Fatal(err)
		}
		t.Cleanup(func() { _ = c.Close() })
		return c, ftWorkload(t, c, nodes, npages, 2, 2, survivorsOf(nodes, victim), nil)
	}

	log := &transport.CallLog{}
	run(&transport.ChaosOptions{Plan: transport.RecordingPlan(nil, log)})
	var crashAt *sim.CallKey
	for _, r := range log.Edges() {
		if pick(r) {
			if nth--; nth == 0 {
				crashAt = &r.CallKey
				break
			}
		}
	}
	if crashAt == nil {
		t.Fatal("calibration never saw the call to crash at")
	}

	cleanC, cleanShadow := run(nil)
	c, shadow := run(&transport.ChaosOptions{Crashes: []sim.CrashSchedule{{Node: victim, At: *crashAt}}})
	snap := c.Stats().Snapshot()
	if snap.Crashes != 1 {
		t.Fatalf("Crashes = %d, want 1 (crash at %+v)", snap.Crashes, *crashAt)
	}
	// Both shadows were built from the same write sequence (the victim's
	// post-crash rounds are survivor-only in both runs).
	for w := range shadow {
		if shadow[w] != cleanShadow[w] {
			t.Fatalf("workloads diverged at word %d", w)
		}
	}
	for _, reader := range survivorsOf(nodes, victim) {
		ftVerify(t, c, reader, shadow)
	}
	ftVerify(t, cleanC, 0, cleanShadow)
	return snap
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
	forEachFTMode(t, func(t *testing.T, mode ftMode) {
		run := func(crash bool) (float32, Snapshot) {
			c, err := New(ftConfig(mode, nodes, npages, nil))
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
			epoch(t, c)
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
	})
}

// TestFailoverForwardedHolder kills the holder a grant names: the manager
// keeps no notices, so once node 0 has released and died, the next
// acquirer's LockPull is answered by node 0's standby from the replicated
// history marked at the release. The mark
// must be recorded wherever the release lands, including when the
// manager itself is node 0's standby. The crash sweep cannot reach this:
// its crashes sit at barrier-protocol calls, and the marks reset at every
// barrier. A pull the standby served confirms no position.
func TestFailoverForwardedHolder(t *testing.T) {
	const nodes, npages = 4, 2
	const holder = 0
	for _, mgr := range []int{1, 2} { // node 0's standby, and a third node
		lock := int32(mgr) // lockManager(lock) == mgr
		t.Run(fmt.Sprintf("manager=%d", mgr), func(t *testing.T) {
			forEachFTMode(t, func(t *testing.T, mode ftMode) {
				for _, crash := range []bool{false, true} {
					c, err := New(ftConfig(mode, nodes, npages, nil))
					if err != nil {
						t.Fatal(err)
					}
					t.Cleanup(func() { _ = c.Close() })
					// Node 3 caches word 0 while it is still zero.
					if got := rf32(t, c, 3, 3, 0); got != 0 {
						t.Fatalf("initial read = %v, want 0", got)
					}
					if _, err := c.AcquireLock(holder, holder, lock); err != nil {
						t.Fatal(err)
					}
					wf32(t, c, holder, holder, 0, 42)
					if _, err := c.ReleaseLock(holder, holder, lock); err != nil {
						t.Fatal(err)
					}
					if crash {
						if err := c.Kill(holder); err != nil {
							t.Fatal(err)
						}
					}
					if _, err := c.AcquireLock(3, 3, lock); err != nil {
						t.Fatal(err)
					}
					// A pull the standby served indexes the replica, not
					// node 0's known: node 3 confirms no position from it.
					n3 := c.nodes[3]
					n3.lockSync()
					pos := n3.pullPos[holder]
					n3.mu.Unlock()
					if crash != (pos == 0) {
						t.Fatalf("crash=%v: node 3 confirmed position %d at node %d", crash, pos, holder)
					}
					if got := rf32(t, c, 3, 3, 0); got != 42 {
						t.Fatalf("crash=%v: node 3 reads %v after the pull, want 42", crash, got)
					}
					if _, err := c.ReleaseLock(3, 3, lock); err != nil {
						t.Fatal(err)
					}
					epoch(t, c)
					if err := c.CheckCoherence(); err != nil {
						t.Fatal(err)
					}
					if snap := c.Stats().Snapshot(); snap.LockForwards == 0 || crash != (snap.Failovers > 0) {
						t.Fatalf("crash=%v: %d forwards, %d failovers", crash, snap.LockForwards, snap.Failovers)
					}
				}
			})
		})
	}
}

// TestFailoverCountedOncePerCall crashes a writer at the DiffRequest asking
// for its own diffs: the reader's route retries at the writer's standby,
// and that one call answered by a standby is one failover. The reader
// first fetches a page from a third node, so that the barrier's closing
// view refresh, which already counts the next call, does not see the crash.
func TestFailoverCountedOncePerCall(t *testing.T) {
	const nodes, npages = 4, 3
	const writer, wordsPerPage = 1, memlayout.PageSize / 4
	run := func(chaos *transport.ChaosOptions) Snapshot {
		c, err := New(ftConfig(ftModes[0], nodes, npages, chaos))
		if err != nil {
			t.Fatal(err)
		}
		defer func() { _ = c.Close() }()
		rf32(t, c, 0, 0, 0) // node 0, page 0's home, holds it
		wf32(t, c, writer, writer, 0, 7)
		barrier(t, c)
		rf32(t, c, 0, 0, 2*wordsPerPage) // a PageRequest to page 2's home
		if got := rf32(t, c, 0, 0, 0); got != 7 {
			t.Fatalf("reader sees %v, want 7", got)
		}
		return c.Stats().Snapshot()
	}
	log := &transport.CallLog{}
	run(&transport.ChaosOptions{Plan: transport.RecordingPlan(nil, log)})
	var crashAt *sim.CallKey
	for _, r := range log.Records() {
		if r.Kind == byte(msg.KindDiffRequest) && r.To == writer {
			crashAt = &r.CallKey
			break
		}
	}
	if crashAt == nil {
		t.Fatal("calibration saw no DiffRequest to the writer")
	}
	snap := run(&transport.ChaosOptions{Crashes: []sim.CrashSchedule{{Node: writer, At: *crashAt}}})
	if snap.Crashes != 1 || snap.Failovers != 1 {
		t.Fatalf("Crashes/Failovers = %d/%d, want 1/1", snap.Crashes, snap.Failovers)
	}
}

// TestFailoverBarrierTreeInterior crashes an interior node of the k-ary
// barrier tree at the exact transport call where it would relay its
// enter aggregate in the second episode. The episode must re-run over the
// shrunk alive set with the victim's replicated notices folded in by its
// ring successor.
func TestFailoverBarrierTreeInterior(t *testing.T) {
	const nodes, npages = 7, 3
	const victim = 1 // tree position 1: interior, parent of leaves
	forEachFTMode(t, func(t *testing.T, mode ftMode) {
		snap := crashAtCall(t, mode, nodes, npages, 2, victim, 2, func(r transport.CallRecord) bool {
			return r.Kind == byte(msg.KindBarrierEnter) && r.From == victim
		})
		if snap.RecoveryRounds == 0 {
			t.Fatal("no barrier recovery round recorded; the crash missed the phase")
		}
	})
}

// TestFailoverBarrierRoot crashes the barrier's root in the middle of the
// second episode's release fan-out: some members hold the release (and, in
// the prefetch mode, their pushed diffs), the others never get one. The
// episode re-runs under the next root, which collects the push again — the
// dead root's diffs now from its standby's replica store.
func TestFailoverBarrierRoot(t *testing.T) {
	const nodes, npages = 4, 3
	const root = 0
	forEachFTMode(t, func(t *testing.T, mode ftMode) {
		// The flat root sends one release per member per episode; die on
		// the second episode's release to node 2, while the releases to
		// the other members run on legs of their own.
		snap := crashAtCall(t, mode, nodes, npages, 0, root, 2, func(r transport.CallRecord) bool {
			return r.Kind == byte(msg.KindBarrierRelease) && r.From == root && r.To == 2
		})
		if snap.RecoveryRounds == 0 {
			t.Fatal("no barrier recovery round recorded; the crash missed the release phase")
		}
	})
}

// TestFailoverStandbyItself crashes a node in its standby role: it dies on
// the call that delivers its ring predecessor's replica delta. The
// predecessor must re-ship its epoch's history to the next standby and the
// barrier must complete over the survivors. The delta is the third
// episode's, the first survivor-only round: members close their intervals
// in view order, so the victim's own interval of that episode is still
// open when its predecessor's delta arrives, and an open interval dies
// with its node.
func TestFailoverStandbyItself(t *testing.T) {
	const nodes, npages = 4, 3
	const origin, standby = 1, 2
	forEachFTMode(t, func(t *testing.T, mode ftMode) {
		snap := crashAtCall(t, mode, nodes, npages, 0, standby, 3, func(r transport.CallRecord) bool {
			return r.Kind == byte(msg.KindReplicaDelta) && r.From == origin && r.To == standby
		})
		if snap.Failovers == 0 {
			t.Fatal("no failovers recorded; the delta was never re-shipped to the next standby")
		}
	})
}

// TestFailoverDeadWriterDiffs kills the writer of diffs its readers still
// have pending — after the barrier release that announced them, or after
// the lock release that closed and replicated the interval, so that the
// barrier itself runs without the writer. Every way a diff is asked for
// must then reach the replica store on the writer's standby: a demand
// fetch from another node (a DiffRequest or, batched, a DiffBatchRequest
// on the wire), a demand fetch by the standby itself (a local read), and
// in the prefetch mode the root's push collection. The crashed run ends
// byte-identical to the clean one.
func TestFailoverDeadWriterDiffs(t *testing.T) {
	const nodes, npages = 4, 4
	const writer, standby = 1, 2
	const lock = int32(0) // managed by node 0, which survives
	const wordsPerPage = memlayout.PageSize / 4
	readers := survivorsOf(nodes, writer)
	type outcome struct {
		memory    [][]float32 // per reader, every word of the segment
		snap      Snapshot
		toStandby int // diff requests that reached the standby over the wire
		pushCalls int // those of them the root made inside the barrier
	}
	forEachFTMode(t, func(t *testing.T, mode ftMode) {
		kind := msg.KindDiffRequest
		if mode.batch {
			kind = msg.KindDiffBatchRequest
		}
		for _, underLock := range []bool{false, true} {
			name := "after barrier release"
			if underLock {
				name = "after lock release"
			}
			t.Run(name, func(t *testing.T) {
				run := func(crash bool) (out outcome) {
					c, err := New(ftConfig(mode, nodes, npages, nil))
					if err != nil {
						t.Fatal(err)
					}
					defer func() { _ = c.Close() }()
					// Only page 0 is predicted, so push and pull move its
					// diffs and leave pages 1 and 2 to demand.
					hot := vm.NewBitmap(npages)
					hot.Set(0)
					c.SetPrefetchPredictor(func(int) *vm.Bitmap { return hot })
					var inBarrier bool
					c.SetProbe(&Probe{TransportCall: func(from, to int, k msg.Kind, _ int, _ time.Duration, _ bool) {
						if to == standby && k == kind {
							out.toStandby++
							if inBarrier && from == 0 {
								out.pushCalls++
							}
						}
					}})
					end := func() {
						inBarrier = true
						barrier(t, c)
						inBarrier = false
						if _, err := c.PrefetchRound(); err != nil {
							t.Fatal(err)
						}
					}
					kill := func() {
						if crash {
							if err := c.Kill(writer); err != nil {
								t.Fatal(err)
							}
						}
					}

					// Every reader holds a copy of pages 0..2.
					for _, r := range readers {
						for p := 0; p < 3; p++ {
							rf32(t, c, r, r, p*wordsPerPage)
						}
					}
					end()
					if underLock {
						if _, err := c.AcquireLock(writer, writer, lock); err != nil {
							t.Fatal(err)
						}
					}
					for p := 0; p < 3; p++ {
						wf32(t, c, writer, writer, p*wordsPerPage+writer, float32(100+p))
					}
					if underLock {
						if _, err := c.ReleaseLock(writer, writer, lock); err != nil {
							t.Fatal(err)
						}
						kill() // the barrier runs without the writer
						end()
					} else {
						end()
						kill() // the notices are out, the diffs not yet fetched
					}
					for _, r := range readers {
						var words []float32
						for w := 0; w < npages*wordsPerPage; w++ {
							words = append(words, rf32(t, c, r, r, w))
						}
						out.memory = append(out.memory, words)
					}
					end()
					if err := c.CheckCoherence(); err != nil {
						t.Fatal(err)
					}
					out.snap = c.Stats().Snapshot()
					return out
				}

				clean, crashed := run(false), run(true)
				for i, r := range readers {
					for w := range crashed.memory[i] {
						want := float32(0)
						if p := w / wordsPerPage; p < 3 && w%wordsPerPage == writer {
							want = float32(100 + p)
						}
						if got := crashed.memory[i][w]; got != want || got != clean.memory[i][w] {
							t.Fatalf("node %d word %d = %v after the crash, %v in the clean run, want %v",
								r, w, got, clean.memory[i][w], want)
						}
					}
				}
				if crashed.snap.Crashes != 1 || crashed.snap.Failovers == 0 {
					t.Fatalf("Crashes/Failovers = %d/%d, want 1 and some", crashed.snap.Crashes, crashed.snap.Failovers)
				}
				if clean.toStandby != 0 {
					t.Fatalf("clean run sent the standby %d %vs", clean.toStandby, kind)
				}
				if crashed.toStandby == 0 {
					t.Fatalf("no %v reached the standby: the dead writer's diffs were never fetched from the replica store", kind)
				}
				if wantPush := mode.prefetch != 0 && underLock; (crashed.pushCalls > 0) != wantPush {
					t.Fatalf("root sent the standby %d %vs inside the barrier, want some: %v", crashed.pushCalls, kind, wantPush)
				}
				if mode.prefetch != 0 && crashed.snap.PrefetchedPages != clean.snap.PrefetchedPages {
					t.Fatalf("%d pages pushed or prefetched after the crash, %d in the clean run",
						crashed.snap.PrefetchedPages, clean.snap.PrefetchedPages)
				}
			})
		}
	})
}

// TestFailoverHomeDirectory crashes the home of a moved page: the victim
// wrote every page and a queued move made it their home, so killing that
// node takes down both the page image and the diff directory entry. The
// ring standby (refreshed by the moved-home upkeep at the barrier) must
// serve the page, and a reader must still see the dead home's writes.
func TestFailoverHomeDirectory(t *testing.T) {
	const nodes, npages = 4, 3
	const victim = 1
	const wordsPerPage = memlayout.PageSize / 4
	forEachFTMode(t, func(t *testing.T, mode ftMode) {
		c, err := New(ftConfig(mode, nodes, npages, nil))
		if err != nil {
			t.Fatal(err)
		}
		defer func() { _ = c.Close() }()

		// The victim becomes the sole writer, and then the home, of every
		// page.
		moves := make(map[int]int, npages)
		for p := 0; p < npages; p++ {
			wf32(t, c, victim, victim, p*wordsPerPage, float32(100+p))
			moves[p] = victim
		}
		if err := c.QueueHomeMoves(moves); err != nil {
			t.Fatal(err)
		}
		epoch(t, c)
		for p := 0; p < npages; p++ {
			if got := c.nodes[0].home(vm.PageID(p)); got != victim {
				t.Fatalf("page %d home = %d, want moved to %d", p, got, victim)
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
		epoch(t, c)
		if err := c.CheckCoherence(); err != nil {
			t.Fatal(err)
		}
	})
}

// TestFailoverQueuedHomeMove crashes an interior node of the barrier tree
// on the release that would carry a queued home move to it. The root has
// applied the move before the fan-out reaches the victim, and the victim's
// child never gets it; the episode's re-run must still announce the move to
// the child, so every alive node agrees on the page's home, and
// PlacementHomeMoves must count the move once.
func TestFailoverQueuedHomeMove(t *testing.T) {
	const nodes, npages = 4, 2
	const victim, target, page = 1, 2, 0 // arity 2: node 1 relays to node 3
	const word = page * memlayout.PageSize / 4
	forEachFTMode(t, func(t *testing.T, mode ftMode) {
		run := func(chaos *transport.ChaosOptions) *Cluster {
			cfg := ftConfig(mode, nodes, npages, chaos)
			cfg.BarrierArity = 2
			c, err := New(cfg)
			if err != nil {
				t.Fatal(err)
			}
			t.Cleanup(func() { _ = c.Close() })
			wf32(t, c, target, target, word, 7) // the target now holds a copy
			epoch(t, c)
			if err := c.QueueHomeMoves(map[int]int{page: target}); err != nil {
				t.Fatal(err)
			}
			epoch(t, c)
			return c
		}
		log := &transport.CallLog{}
		run(&transport.ChaosOptions{Plan: transport.RecordingPlan(nil, log)})
		// The second episode's release to the victim.
		at := sim.CallKey{From: 0, To: victim, Kind: byte(msg.KindBarrierRelease), N: 1}
		seen := false
		for _, r := range log.Records() {
			seen = seen || r.CallKey == at
		}
		if !seen {
			t.Fatal("calibration never saw the release to crash at")
		}

		c := run(&transport.ChaosOptions{Crashes: []sim.CrashSchedule{{Node: victim, At: at}}})
		snap := c.Stats().Snapshot()
		if snap.Crashes != 1 || snap.RecoveryRounds == 0 {
			t.Fatalf("Crashes = %d, RecoveryRounds = %d; the crash missed the release phase", snap.Crashes, snap.RecoveryRounds)
		}
		homes := c.Homes()
		if homes[page] != target {
			t.Fatalf("page %d home = %d, want %d", page, homes[page], target)
		}
		for _, i := range survivorsOf(nodes, victim) {
			for p, want := range homes {
				if got := c.nodes[i].home(vm.PageID(p)); got != want {
					t.Fatalf("node %d: page %d home = %d, node 0 says %d", i, p, got, want)
				}
			}
		}
		if snap.PlacementHomeMoves != 1 {
			t.Fatalf("PlacementHomeMoves = %d, want 1", snap.PlacementHomeMoves)
		}
		if got := rf32(t, c, 3, 3, word); got != 7 {
			t.Fatalf("node 3 reads %v, want 7", got)
		}
		if err := c.CheckCoherence(); err != nil {
			t.Fatal(err)
		}
	})
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
	forEachFTMode(t, func(t *testing.T, mode ftMode) {
		// Calibration: find the key of the victim's first barrier
		// enter (episode 0), so the crash lands between its phase-one
		// replication and the fan-in. The victim therefore writes only in
		// round 0; later rounds are survivor-only in BOTH runs so the final
		// contents stay identical.
		log := &transport.CallLog{}
		{
			c, err := New(ftConfig(mode, nodes, npages, &transport.ChaosOptions{
				Plan: transport.RecordingPlan(nil, log),
			}))
			if err != nil {
				t.Fatal(err)
			}
			ftWorkload(t, c, nodes, npages, 1, 2, survivorsOf(nodes, victim), nil)
			_ = c.Close()
		}
		var crashAt *sim.CallKey
		for _, r := range log.Records() {
			if r.Kind == byte(msg.KindBarrierEnter) && r.From == victim && r.N == 0 {
				crashAt = &r.CallKey // first barrier enter from the victim
				break
			}
		}
		if crashAt == nil {
			t.Fatal("calibration never saw the victim enter a barrier")
		}

		c, err := New(ftConfig(mode, nodes, npages, &transport.ChaosOptions{
			Crashes: []sim.CrashSchedule{{Node: victim, At: *crashAt, RestartEpoch: 2}},
		}))
		if err != nil {
			t.Fatal(err)
		}
		defer func() { _ = c.Close() }()

		shadow := ftWorkload(t, c, nodes, npages, 1, 2, survivorsOf(nodes, victim), nil)
		snap := c.Stats().Snapshot()
		if snap.Crashes != 1 {
			t.Fatalf("Crashes = %d, want 1 (crash at %+v)", snap.Crashes, *crashAt)
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
		epoch(t, c)
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
	})
}

// TestFailoverImperativeRestart covers Cluster.Restart, the imperative
// recovery entry point: kill, verify the view routes around the victim,
// restart, verify the node serves and writes again.
func TestFailoverImperativeRestart(t *testing.T) {
	const nodes, npages = 3, 2
	forEachFTMode(t, func(t *testing.T, mode ftMode) {
		c, err := New(ftConfig(mode, nodes, npages, nil))
		if err != nil {
			t.Fatal(err)
		}
		defer func() { _ = c.Close() }()

		wf32(t, c, 1, 1, 0, 11)
		epoch(t, c)
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
		epoch(t, c)
		wf32(t, c, 1, 1, 4, 22)
		epoch(t, c)
		if got := rf32(t, c, 2, 2, 4); got != 22 {
			t.Fatalf("rejoined node's write = %v at node 2, want 22", got)
		}
		if got := rf32(t, c, 1, 1, 0); got != 11 {
			t.Fatalf("rejoined node reads word 0 = %v, want 11", got)
		}
		if err := c.CheckCoherence(); err != nil {
			t.Fatal(err)
		}
	})
}

// TestFailoverHammerRace drives concurrent serves, lock traffic, and GC
// while a manager crashes and later rejoins, with every page of a node
// on one shard stripe (where a path taking two shard locks would
// deadlock) and with the pages spread over eight. Run with -race; the
// assertion is the absence of data races plus a coherent final state.
//
// Accesses obey the access-path contract (doc.go): the engine runs one
// application thread at a time, so a span and the write into its window
// never overlap another node's access. The access mutex stands in for
// that rule; lock calls, fan-outs and Kill stay concurrent.
func TestFailoverHammerRace(t *testing.T) {
	for _, tc := range []struct {
		name   string
		shards int
		mode   ftMode
	}{
		{"shards1", 1, ftModes[0]},
		{"shards8", 8, ftModes[0]},
		{"shards1/batched+prefetch", 1, ftModes[1]},
		{"shards8/batched+prefetch", 8, ftModes[1]},
	} {
		t.Run(tc.name, func(t *testing.T) {
			const nodes, npages = 4, 4
			const victim = 1
			cfg := ftConfig(tc.mode, nodes, npages, nil)
			cfg.GCThresholdBytes = 1 // GC every barrier with stored diffs
			c, err := newCluster(cfg, tc.shards)
			if err != nil {
				t.Fatal(err)
			}
			defer func() { _ = c.Close() }()

			words := npages * memlayout.PageSize / 4
			var access sync.Mutex // held from each Span through its write
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
						access.Lock()
						b, _, err := c.Span(node, node, w*4, 4, vm.Write)
						if err != nil {
							access.Unlock()
							t.Error(err)
							return
						}
						memlayout.ViewF32(b).Set(0, float32(node*1000+i))
						access.Unlock()
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
				access.Lock()
				wf32(t, c, victim, victim, i, float32(i))
				access.Unlock()
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
