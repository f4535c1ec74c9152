package dsm

// Ordering tests for the lock-free Span (run with -race -count=10): what a
// span reads unlocked is ordered after server-side mutation by the node's
// generation counter alone, prefetch accounting is exact on the
// counter-gated settle path, and the charges a span returns are the cost
// model's, field by field.

import (
	"runtime"
	"testing"
	"time"

	"actdsm/internal/memlayout"
	"actdsm/internal/msg"
	"actdsm/internal/sim"
	"actdsm/internal/vm"
)

// awaitGeneration spins until node n's mutation generation has moved past
// from. It is the spanner's only synchronization with the server goroutine
// in the tests below — no channel, no WaitGroup — so if a shard
// write-section stopped bumping the generation the test would time out,
// and if the bump stopped ordering the section's writes the race detector
// would report the span's unlocked reads.
func awaitGeneration(t *testing.T, n *node, from uint64) {
	t.Helper()
	deadline := time.Now().Add(10 * time.Second)
	for n.gen.Load() == from {
		if time.Now().After(deadline) {
			t.Fatal("server-side write-section never bumped the node's generation")
		}
		runtime.Gosched()
	}
}

// TestSpanOrderedAfterBarrierReleaseByGeneration: a barrier release
// carrying a notice for page 0 is served on node 0 by another goroutine;
// the next span on page 0 must see the invalidation and fault.
func TestSpanOrderedAfterBarrierReleaseByGeneration(t *testing.T) {
	c, err := New(Config{Nodes: 2, Pages: 1, GCThresholdBytes: -1})
	if err != nil {
		t.Fatal(err)
	}
	t.Cleanup(func() { _ = c.Close() })
	rf32(t, c, 0, 0, 0)    // node 0 (the home) holds page 0 warm
	wf32(t, c, 1, 1, 0, 7) // node 1 writes it
	notices, _ := c.nodes[1].closeInterval()
	if len(notices) != 1 {
		t.Fatalf("closeInterval produced %d notices, want 1", len(notices))
	}

	n := c.nodes[0]
	gen := n.gen.Load()
	served := make(chan error, 1)
	go func() {
		_, err := n.serveBarrierRelease(&msg.BarrierRelease{Lam: notices[0].Lam, Notices: notices})
		served <- err
	}()
	awaitGeneration(t, n, gen)

	before := c.Stats().Snapshot()
	b, ti, err := c.Span(0, 0, 0, 4, vm.Read)
	if err != nil {
		t.Fatal(err)
	}
	if got := memlayout.ViewF32(b).Get(0); got != 7 {
		t.Fatalf("span after the release read %v, want node 1's 7", got)
	}
	after := c.Stats().Snapshot()
	if after.CoherenceFaults != before.CoherenceFaults+1 || after.DiffFetches != before.DiffFetches+1 {
		t.Fatalf("span did not fault on the invalidated page: faults %d→%d, diff fetches %d→%d",
			before.CoherenceFaults, after.CoherenceFaults, before.DiffFetches, after.DiffFetches)
	}
	if ti.Stall <= 0 || ti.Overhead < c.Costs().SoftFault {
		t.Fatalf("faulting span charged %+v", ti)
	}
	if err := <-served; err != nil {
		t.Fatal(err)
	}
}

// TestSpanOrderedAfterGCCollectByGeneration: a GCCollect of page 0 is
// served on node 1 (a replica) by another goroutine; the next span there
// must find the replica gone and fetch the page again.
func TestSpanOrderedAfterGCCollectByGeneration(t *testing.T) {
	c, err := New(Config{Nodes: 2, Pages: 1, GCThresholdBytes: -1})
	if err != nil {
		t.Fatal(err)
	}
	t.Cleanup(func() { _ = c.Close() })
	wf32(t, c, 0, 0, 0, 3)
	rf32(t, c, 1, 1, 0) // node 1 holds a replica

	n := c.nodes[1]
	gen := n.gen.Load()
	served := make(chan error, 1)
	go func() {
		_, err := n.serveGCCollect(&msg.GCCollect{Pages: []int32{0}})
		served <- err
	}()
	awaitGeneration(t, n, gen)

	before := c.Stats().Snapshot()
	if got := rf32(t, c, 1, 1, 0); got != 3 {
		t.Fatalf("span after the collect read %v, want 3", got)
	}
	after := c.Stats().Snapshot()
	if after.PageFetches != before.PageFetches+1 {
		t.Fatalf("span did not re-fetch the collected replica: page fetches %d→%d",
			before.PageFetches, after.PageFetches)
	}
	if err := <-served; err != nil {
		t.Fatal(err)
	}
}

// prefetchedReplica returns a 2-node prefetch cluster in which node 1
// holds page 0 (home: node 0) brought current by a prefetch round and not
// yet touched, plus the function that runs one more epoch of node 0
// writing the page.
func prefetchedReplica(t *testing.T) (*Cluster, func(read bool)) {
	t.Helper()
	c, err := New(Config{Nodes: 2, Pages: 1, PrefetchBudget: -1})
	if err != nil {
		t.Fatal(err)
	}
	t.Cleanup(func() { _ = c.Close() })
	val := float32(0)
	epoch := func(read bool) {
		val++
		wf32(t, c, 0, 0, 0, val)
		barrier(t, c)
		if _, err := c.PrefetchRound(); err != nil {
			t.Fatal(err)
		}
		if read {
			rf32(t, c, 1, 1, 0)
		}
	}
	epoch(true)  // node 1's demand miss seeds its fault window
	epoch(false) // node 1 prefetches page 0 and leaves it untouched
	if live := c.nodes[1].prefetchedLive.Load(); live != 1 {
		t.Fatalf("live prefetched pages on node 1 = %d, want 1", live)
	}
	return c, epoch
}

// TestPrefetchSettledThroughLiveCounter pins prefetch accounting on the
// counter-gated settle path: one hit per prefetched page however often it
// is touched, the hit feeds the fault window, an invalidation before any
// touch is one waste, and every wipe path returns the counter to zero.
func TestPrefetchSettledThroughLiveCounter(t *testing.T) {
	t.Run("hit", func(t *testing.T) {
		c, _ := prefetchedReplica(t)
		n := c.nodes[1]
		before := c.Stats().Snapshot()
		rf32(t, c, 1, 1, 0)
		rf32(t, c, 1, 1, 0)
		after := c.Stats().Snapshot()
		if hits := after.PrefetchHits - before.PrefetchHits; hits != 1 {
			t.Fatalf("PrefetchHits moved by %d over two touches, want 1", hits)
		}
		if after.CoherenceFaults != before.CoherenceFaults {
			t.Fatal("touching a prefetched page faulted")
		}
		if live := n.prefetchedLive.Load(); live != 0 {
			t.Fatalf("live prefetched pages after the hit = %d, want 0", live)
		}
		n.lockSync()
		fed := n.faultWin.Get(0)
		n.mu.Unlock()
		if !fed {
			t.Fatal("prefetch hit did not feed the fault window")
		}
	})
	t.Run("wasted", func(t *testing.T) {
		c, epoch := prefetchedReplica(t)
		before := c.Stats().Snapshot()
		// The next epoch's notice invalidates the untouched page: one
		// waste. (Its prefetch round predicts nothing — the page neither
		// missed nor hit last epoch.)
		epoch(false)
		after := c.Stats().Snapshot()
		if wasted := after.PrefetchWasted - before.PrefetchWasted; wasted != 1 {
			t.Fatalf("PrefetchWasted moved by %d, want 1", wasted)
		}
		if after.PrefetchHits != before.PrefetchHits {
			t.Fatal("an untouched page counted a hit")
		}
		if live := c.nodes[1].prefetchedLive.Load(); live != 0 {
			t.Fatalf("live prefetched pages after the invalidation = %d, want 0", live)
		}
	})
	t.Run("gc-collect", func(t *testing.T) {
		c, _ := prefetchedReplica(t)
		before := c.Stats().Snapshot()
		if _, err := c.nodes[1].serveGCCollect(&msg.GCCollect{Pages: []int32{0}}); err != nil {
			t.Fatal(err)
		}
		if wasted := c.Stats().Snapshot().PrefetchWasted - before.PrefetchWasted; wasted != 1 {
			t.Fatalf("PrefetchWasted moved by %d on collect, want 1", wasted)
		}
		if live := c.nodes[1].prefetchedLive.Load(); live != 0 {
			t.Fatalf("live prefetched pages after collect = %d, want 0", live)
		}
	})
	t.Run("rejoin", func(t *testing.T) {
		c, _ := prefetchedReplica(t)
		c.nodes[1].resetForRejoin()
		if live := c.nodes[1].prefetchedLive.Load(); live != 0 {
			t.Fatalf("live prefetched pages after the rejoin wipe = %d, want 0", live)
		}
	})
}

// TestSpanChargesScripted runs a fixed fault / twin / tracking-fault
// sequence and checks every returned ThreadInterval field by field against
// the cost model.
func TestSpanChargesScripted(t *testing.T) {
	c := newTestCluster(t, 2, 2) // page 0 lives on node 0, page 1 on node 1
	k := c.Costs()
	const page1 = memlayout.PageSize
	// pageFetch is a full-page round trip whose request lists pending
	// notices outstanding against the page.
	pageFetch := func(pending int) sim.Time {
		return k.FetchCost(
			msg.Size(&msg.PageRequest{Pending: make([]msg.Notice, pending)}),
			msg.Size(&msg.PageReply{Data: make([]byte, memlayout.PageSize), AppliedVT: make([]int32, 2)}))
	}
	span := func(name string, node, off, size int, a vm.Access, want sim.ThreadInterval) []byte {
		t.Helper()
		b, ti, err := c.Span(node, node, off, size, a)
		if err != nil {
			t.Fatalf("%s: %v", name, err)
		}
		if ti != want {
			t.Fatalf("%s charged %+v, want %+v", name, ti, want)
		}
		return b
	}

	span("cold remote read", 0, page1, 4, vm.Read,
		sim.ThreadInterval{Stall: pageFetch(0), Overhead: k.SoftFault})
	b := span("first write (twin)", 0, page1, 4, vm.Write,
		sim.ThreadInterval{Overhead: k.SoftFault + k.TwinCopy})
	b[0] = 9
	span("warm write", 0, page1, 4, vm.Write, sim.ThreadInterval{})

	c.BeginTracking(0, func(int, vm.PageID) {})
	span("tracked warm read", 0, 0, 4, vm.Read, sim.ThreadInterval{Overhead: k.TrackFault})
	c.RearmTracking(0)
	span("tracked first write", 0, 0, 4, vm.Write,
		sim.ThreadInterval{Overhead: k.TrackFault + k.SoftFault + k.TwinCopy})[0] = 5
	span("tracked two-page span, one armed", 0, 0, 2*memlayout.PageSize, vm.Write,
		sim.ThreadInterval{Overhead: k.TrackFault})
	c.EndTracking(0)

	barrier(t, c)
	// Node 1 re-reads its own page 1: one diff from node 0.
	diffBytes := c.Stats().Snapshot().BytesDiff
	b, ti, err := c.Span(1, 1, page1, 4, vm.Read)
	if err != nil {
		t.Fatal(err)
	}
	dl := int(c.Stats().Snapshot().BytesDiff - diffBytes)
	want := sim.ThreadInterval{
		Stall: k.FetchCost(
			msg.Size(&msg.DiffRequest{Intervals: make([]int32, 1)}),
			msg.Size(&msg.DiffReply{Diffs: [][]byte{make([]byte, dl)}})),
		Overhead: k.SoftFault + sim.Time(dl)*k.DiffPerByte,
	}
	if dl == 0 || ti != want || b[0] != 9 {
		t.Fatalf("diff miss read %d with a %d-byte diff and charged %+v, want 9 and %+v", b[0], dl, ti, want)
	}
	// Node 1 spans both pages: page 0 was never held (a full fetch naming
	// the barrier's notice for node 0's write), page 1 is warm.
	span("two-page span, one cold", 1, 0, 2*memlayout.PageSize, vm.Read,
		sim.ThreadInterval{Stall: pageFetch(1), Overhead: k.SoftFault})
}
