package dsm

import (
	"errors"
	"fmt"
	"hash/fnv"
	"testing"

	"actdsm/internal/memlayout"
	"actdsm/internal/msg"
	"actdsm/internal/sim"
	"actdsm/internal/transport"
	"actdsm/internal/vm"
)

// Tests that pin the shape of a garbage-collection round: one GCCollect
// per (home, member) whatever the page count, the same result whichever
// way the two phases are fanned out, and a crash landing inside the round
// ending where the clean run ends.

// callCount returns how many logical calls of the kind the snapshot holds.
func callCount(s Snapshot, kind msg.Kind) int64 {
	for _, cs := range s.Calls {
		if cs.Kind == kind.String() {
			return cs.Count
		}
	}
	return 0
}

// TestGCRoundMessageCount: a round's collect traffic is h*(n-1) calls for
// h homes with something to collect among n members, not one broadcast per
// page, and GCCollections still counts pages.
func TestGCRoundMessageCount(t *testing.T) {
	const nodes, npages = 4, 12
	all := make([]vm.PageID, npages)
	for p := range all {
		all[p] = vm.PageID(p)
	}
	for _, tc := range []struct {
		name   string
		writer int
		dirty  []vm.PageID
	}{
		{"one writer, two homes", 3, []vm.PageID{0, 1, 4, 5, 8}},
		{"one page", 2, []vm.PageID{7}},
		{"every page, every home", 1, all},
	} {
		t.Run(tc.name, func(t *testing.T) {
			c, err := New(Config{Nodes: nodes, Pages: npages, GCThresholdBytes: 1})
			if err != nil {
				t.Fatal(err)
			}
			defer func() { _ = c.Close() }()
			homes := make(map[int]bool)
			for _, p := range tc.dirty {
				homes[c.Homes()[p]] = true
				dirtyPage(t, c, tc.writer, p, byte(p))
			}
			barrier(t, c)
			s := c.Stats().Snapshot()
			if s.GCRounds != 1 || s.GCCollections != int64(len(tc.dirty)) {
				t.Fatalf("GC rounds/pages = %d/%d, want 1/%d", s.GCRounds, s.GCCollections, len(tc.dirty))
			}
			if got, want := callCount(s, msg.KindGCCollect), int64(len(homes)*(nodes-1)); got != want {
				t.Fatalf("GCCollect calls = %d, want %d: %d homes x %d other members (%d pages collected)",
					got, want, len(homes), nodes-1, len(tc.dirty))
			}
			if got := c.StoredDiffBytes(); got != 0 {
				t.Fatalf("StoredDiffBytes = %d after the round", got)
			}
			// The collected pages read back everywhere, by refetch.
			for node := 0; node < nodes; node++ {
				for _, p := range tc.dirty {
					b := mustSpan(t, c, node, node, int(p)*memlayout.PageSize, 4, vm.Read)
					if b[1] != 3+byte(p) {
						t.Fatalf("node %d page %d byte 1 = %#x, want %#x", node, p, b[1], 3+byte(p))
					}
				}
			}
			if err := c.CheckCoherence(); err != nil {
				t.Fatal(err)
			}
		})
	}
}

// gcWorkload drives rounds of writes that dirty every page from every
// writer (so every home has a list of npages/nodes pages to consolidate
// and collect at each barrier), maintaining the shadow array. Only the
// nodes in writers write in rounds [from, to).
func gcWorkload(t *testing.T, c *Cluster, shadow []float32, npages int, writers []int, from, to int) {
	t.Helper()
	const wordsPerPage = memlayout.PageSize / 4
	for round := from; round < to; round++ {
		for _, node := range writers {
			for p := 0; p < npages; p++ {
				w := p*wordsPerPage + (round*16+node*3+p)%(wordsPerPage/8)*8 + node
				val := float32(round*1000 + node*100 + p)
				wf32(t, c, node, node, w, val)
				shadow[w] = val
			}
		}
		barrier(t, c)
	}
}

// memoryDigest hashes the whole segment as node reads it.
func memoryDigest(t *testing.T, c *Cluster, node, npages int) uint64 {
	t.Helper()
	h := fnv.New64a()
	for p := 0; p < npages; p++ {
		h.Write(mustSpan(t, c, node, node, p*memlayout.PageSize, memlayout.PageSize, vm.Read))
	}
	return h.Sum64()
}

// TestGCFanOutModesEquivalent: with a round after every barrier, running
// the homes' consolidations and the members' collects concurrently ends
// with the memory, home table and protocol counters of the serial order.
func TestGCFanOutModesEquivalent(t *testing.T) {
	const nodes, npages, rounds = 4, 8, 5
	type result struct {
		digest   uint64
		homes    string
		counters Counters
	}
	run := func(serial, migrate bool) result {
		c, err := New(Config{
			Nodes: nodes, Pages: npages, GCThresholdBytes: 1,
			SerialFanOut: serial,
		})
		if err != nil {
			t.Fatal(err)
		}
		defer func() { _ = c.Close() }()
		if migrate {
			// Every page moves off its static home at the first barrier's
			// release, before that barrier's round, so every round
			// consolidates at the moved homes.
			moves := make(map[int]int, npages)
			for p := 0; p < npages; p++ {
				moves[p] = (p + 1) % nodes
			}
			if err := c.QueueHomeMoves(moves); err != nil {
				t.Fatal(err)
			}
		}
		shadow := make([]float32, npages*memlayout.PageSize/4)
		gcWorkload(t, c, shadow, npages, []int{0, 1, 2, 3}, 0, rounds)
		r := result{counters: c.Stats().Snapshot().Counters(), homes: fmt.Sprint(c.Homes())}
		if r.counters.GCRounds != rounds {
			t.Fatalf("GC rounds = %d, want one per barrier (%d)", r.counters.GCRounds, rounds)
		}
		r.digest = memoryDigest(t, c, 0, npages)
		for node := 1; node < nodes; node++ {
			if d := memoryDigest(t, c, node, npages); d != r.digest {
				t.Fatalf("serial=%v: node %d digest %x, node 0 %x", serial, node, d, r.digest)
			}
		}
		for w, want := range shadow {
			if got := rf32(t, c, 0, 0, w); got != want {
				t.Fatalf("serial=%v: word %d = %v, want %v", serial, w, got, want)
			}
		}
		if err := c.CheckCoherence(); err != nil {
			t.Fatal(err)
		}
		return r
	}
	for _, migrate := range []bool{false, true} {
		serial, parallel := run(true, migrate), run(false, migrate)
		if serial != parallel {
			t.Fatalf("migrate=%v: fan-out modes diverge:\nserial:   %+v\nparallel: %+v", migrate, serial, parallel)
		}
	}
}

// TestGCCrashInsideRound crashes a home at two points of a round, sited by
// a recorded calibration run: at its first collect — every home and
// standby has consolidated, nothing of the victim's has been dropped — and
// at its second, when one member has already dropped and invalidated the
// victim's pages. Either way the round re-runs over the shrunk view (the
// victim's pages now served by its refreshed standby), completes without
// finding a needed diff gone, and the survivors end with the bytes of a
// run in which nothing crashed.
func TestGCCrashInsideRound(t *testing.T) {
	const nodes, npages, victim = 4, 8, 2
	const pre, post = 2, 2 // the victim writes in the first two rounds only
	everyone := []int{0, 1, 2, 3}
	survivors := survivorsOf(nodes, victim)
	run := func(chaos *transport.ChaosOptions) (uint64, Snapshot) {
		cfg := ftConfig(ftModes[0], nodes, npages, chaos)
		cfg.GCThresholdBytes = 1
		c, err := New(cfg)
		if err != nil {
			t.Fatal(err)
		}
		defer func() { _ = c.Close() }()
		shadow := make([]float32, npages*memlayout.PageSize/4)
		gcWorkload(t, c, shadow, npages, everyone, 0, pre)
		gcWorkload(t, c, shadow, npages, survivors, pre, pre+post)
		for w, want := range shadow {
			if got := rf32(t, c, 0, 0, w); got != want {
				t.Fatalf("word %d = %v, want %v", w, got, want)
			}
		}
		if err := c.CheckCoherence(); err != nil {
			t.Fatal(err)
		}
		return memoryDigest(t, c, 3, npages), c.Stats().Snapshot()
	}

	log := &transport.CallLog{}
	clean, cleanSnap := run(&transport.ChaosOptions{Plan: transport.RecordingPlan(nil, log)})
	if cleanSnap.GCRounds != pre+post {
		t.Fatalf("clean run: %d GC rounds, want %d", cleanSnap.GCRounds, pre+post)
	}
	// The victim's collects in the round after barrier `pre`: one to each
	// other member, in member order.
	var sends []transport.CallRecord
	releases := 0
	for _, r := range log.Records() {
		switch {
		case r.Kind == byte(msg.KindBarrierRelease) && r.To == victim:
			releases++
		case r.Kind == byte(msg.KindGCCollect) && r.From == victim && releases == pre:
			sends = append(sends, r)
		}
	}
	if len(sends) != nodes-1 {
		t.Fatalf("calibration saw %d collects from the victim in round %d, want %d", len(sends), pre, nodes-1)
	}

	for i, name := range []string{"between the phases", "inside phase 2"} {
		t.Run(name, func(t *testing.T) {
			got, snap := run(&transport.ChaosOptions{
				Crashes: []sim.CrashSchedule{{Node: victim, Call: sends[i].Call}},
			})
			if snap.Crashes != 1 || snap.RecoveryRounds == 0 {
				t.Fatalf("crashes/recovery rounds = %d/%d, want 1 and a re-run (crash call %d)",
					snap.Crashes, snap.RecoveryRounds, sends[i].Call)
			}
			if got != clean {
				t.Fatalf("survivor digest %x after the crash, clean run %x", got, clean)
			}
		})
	}
}

// TestGCCollectRefusedWhole hands a node collects it must refuse — built
// by hand, as a broken or hostile peer would — and checks that nothing
// moved: a list is validated before its first page is touched.
func TestGCCollectRefusedWhole(t *testing.T) {
	const npages = 4
	c, err := New(Config{Nodes: 2, Pages: npages, GCThresholdBytes: -1})
	if err != nil {
		t.Fatal(err)
	}
	defer func() { _ = c.Close() }()
	// Node 0 writes pages 1 and 3 (home: node 1) and keeps their diffs.
	dirtyPage(t, c, 0, 1, 1)
	dirtyPage(t, c, 0, 3, 3)
	barrier(t, c)
	n := c.nodes[0]
	stored := c.StoredDiffBytes()
	intact := func(when string) {
		t.Helper()
		if got := c.StoredDiffBytes(); got != stored || !n.pages[1].hasCopy || !n.pages[3].hasCopy {
			t.Fatalf("%s: stored diffs %d (want %d), copies %v/%v: a refused collect moved state",
				when, got, stored, n.pages[1].hasCopy, n.pages[3].hasCopy)
		}
	}

	overCounted := msg.Encode(&msg.GCCollect{Pages: []int32{1, 3}})
	overCounted[1] = 8 // eight pages claimed, two present
	for _, tc := range []struct {
		name  string
		frame []byte
		want  error // nil: refused by msg.Decode, before the serve
	}{
		{"page past the segment", msg.Encode(&msg.GCCollect{Pages: []int32{1, 3, npages}}), errCollectPage},
		{"negative page", msg.Encode(&msg.GCCollect{Pages: []int32{1, -1}}), errCollectPage},
		{"count beyond the frame", overCounted, nil},
	} {
		_, err := c.tr.Call(1, 0, tc.frame)
		if err == nil || (tc.want != nil && !errors.Is(err, tc.want)) {
			t.Fatalf("%s: err = %v, want %v", tc.name, err, tc.want)
		}
		intact(tc.name)
	}

	// The well-formed list collects both pages; delivering it again, or a
	// prefix of it, changes nothing.
	for _, pages := range [][]int32{{1, 3}, {1, 3}, {1}, nil} {
		if _, _, err := c.call(1, 0, &msg.GCCollect{Pages: pages}); err != nil {
			t.Fatalf("collect %v: %v", pages, err)
		}
		if got := c.StoredDiffBytes(); got != 0 || n.pages[1].hasCopy || n.pages[3].hasCopy {
			t.Fatalf("after collect %v: stored diffs %d, copies %v/%v", pages, got, n.pages[1].hasCopy, n.pages[3].hasCopy)
		}
	}
}
