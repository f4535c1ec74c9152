package dsm

import (
	"errors"
	"strings"
	"testing"

	"actdsm/internal/memlayout"
	"actdsm/internal/sim"
	"actdsm/internal/transport"
	"actdsm/internal/vm"
)

func newTestCluster(t *testing.T, nodes, pages int) *Cluster {
	t.Helper()
	c, err := New(Config{Nodes: nodes, Pages: pages})
	if err != nil {
		t.Fatal(err)
	}
	t.Cleanup(func() { _ = c.Close() })
	return c
}

// wf32 writes x at float32 index idx of the segment via a span on node.
func wf32(t *testing.T, c *Cluster, node, tid, idx int, x float32) {
	t.Helper()
	b, _, err := c.Span(node, tid, idx*4, 4, vm.Write)
	if err != nil {
		t.Fatal(err)
	}
	memlayout.ViewF32(b).Set(0, x)
}

// rf32 reads float32 index idx via a span on node.
func rf32(t *testing.T, c *Cluster, node, tid, idx int) float32 {
	t.Helper()
	b, _, err := c.Span(node, tid, idx*4, 4, vm.Read)
	if err != nil {
		t.Fatal(err)
	}
	return memlayout.ViewF32(b).Get(0)
}

func barrier(t *testing.T, c *Cluster) {
	t.Helper()
	if _, err := c.Barrier(); err != nil {
		t.Fatal(err)
	}
}

// TestNewValidation: every configuration New refuses is refused by name,
// and the knobs that used to exclude each other construct together.
func TestNewValidation(t *testing.T) {
	chaos := &transport.ChaosOptions{}
	for _, tc := range []struct {
		name string
		cfg  Config
		want error  // nil: New must accept the configuration
		knob string // for errSingleWriter: the field the error names
	}{
		{"zero nodes", Config{Nodes: 0, Pages: 1}, errNodes, ""},
		{"zero pages", Config{Nodes: 1, Pages: 0}, errPages, ""},
		{"negative lock shards", Config{Nodes: 2, Pages: 1, LockShards: -1}, errLockShards, ""},
		{"barrier arity 1", Config{Nodes: 2, Pages: 1, BarrierArity: 1}, errBarrierArity, ""},
		{"negative barrier arity", Config{Nodes: 2, Pages: 1, BarrierArity: -2}, errBarrierArity, ""},
		{"topology of another size", Config{Nodes: 2, Pages: 2, Topology: sim.NewTopology(3, sim.Costs{})}, errTopologySize, ""},
		{"fault tolerance without chaos", Config{Nodes: 2, Pages: 1, FaultTolerance: true}, errFTNeedsChaos, ""},
		{"crash schedule without fault tolerance",
			Config{Nodes: 2, Pages: 1, Chaos: &transport.ChaosOptions{Crashes: []sim.CrashSchedule{{Node: 1, At: sim.CallKey{From: 0, To: 1}}}}}, errCrashNeedsFT, ""},
		{"crash key off its node's edges",
			Config{Nodes: 3, Pages: 1, FaultTolerance: true, Chaos: &transport.ChaosOptions{Crashes: []sim.CrashSchedule{{Node: 2, At: sim.CallKey{From: 0, To: 1, N: 4}}}}}, errCrashKey, ""},
		{"single-writer with prefetch", Config{Nodes: 2, Pages: 1, Protocol: SingleWriter, PrefetchBudget: 4}, errSingleWriter, "PrefetchBudget"},
		{"single-writer with batching", Config{Nodes: 2, Pages: 1, Protocol: SingleWriter, BatchDiffs: true}, errSingleWriter, "BatchDiffs"},
		{"single-writer with lock forwarding", Config{Nodes: 2, Pages: 1, Protocol: SingleWriter, LockForwarding: true}, errSingleWriter, "LockForwarding"},
		{"single-writer with fault tolerance", Config{Nodes: 2, Pages: 1, Protocol: SingleWriter, FaultTolerance: true, Chaos: chaos}, errSingleWriter, "FaultTolerance"},
		{"fault tolerance with batching and prefetch",
			Config{Nodes: 3, Pages: 2, FaultTolerance: true, BatchDiffs: true, PrefetchBudget: -1, Chaos: chaos}, nil, ""},
	} {
		t.Run(tc.name, func(t *testing.T) {
			c, err := New(tc.cfg)
			if err == nil {
				_ = c.Close()
			}
			if !errors.Is(err, tc.want) {
				t.Fatalf("New: %v, want %v", err, tc.want)
			}
			if tc.knob != "" && !strings.Contains(err.Error(), tc.knob) {
				t.Fatalf("New: %v does not name %s", err, tc.knob)
			}
		})
	}
}

func TestSpanBounds(t *testing.T) {
	c := newTestCluster(t, 2, 2)
	if _, _, err := c.Span(0, 0, -1, 4, vm.Read); err == nil {
		t.Fatal("expected error for negative offset")
	}
	if _, _, err := c.Span(0, 0, 0, 0, vm.Read); err == nil {
		t.Fatal("expected error for zero size")
	}
	if _, _, err := c.Span(0, 0, 2*memlayout.PageSize-2, 4, vm.Read); err == nil {
		t.Fatal("expected error for span past end")
	}
}

func TestLocalWriteReadBack(t *testing.T) {
	c := newTestCluster(t, 2, 4)
	wf32(t, c, 0, 0, 10, 3.25)
	if got := rf32(t, c, 0, 0, 10); got != 3.25 {
		t.Fatalf("read back %v", got)
	}
}

func TestBarrierPropagatesWrites(t *testing.T) {
	c := newTestCluster(t, 2, 4)
	// Page 1's manager is node 1; write from node 0 so the write
	// itself is a remote miss and the diff must travel.
	wf32(t, c, 0, 0, 1024+5, 42.5) // float index 1029 is on page 1
	barrier(t, c)
	if got := rf32(t, c, 1, 8, 1024+5); got != 42.5 {
		t.Fatalf("node 1 read %v, want 42.5", got)
	}
	s := c.Stats().Snapshot()
	if s.RemoteMisses == 0 {
		t.Fatal("expected remote misses")
	}
	if s.Barriers != 1 {
		t.Fatalf("Barriers = %d", s.Barriers)
	}
}

func TestMultiWriterSamePage(t *testing.T) {
	c := newTestCluster(t, 3, 2)
	// Nodes 0 and 1 write disjoint words of page 0 in the same
	// interval; after the barrier node 2 must see both.
	wf32(t, c, 0, 0, 0, 1.0)
	wf32(t, c, 1, 8, 100, 2.0)
	barrier(t, c)
	if got := rf32(t, c, 2, 16, 0); got != 1.0 {
		t.Fatalf("word 0 = %v, want 1", got)
	}
	if got := rf32(t, c, 2, 16, 100); got != 2.0 {
		t.Fatalf("word 100 = %v, want 2", got)
	}
	// And the writers see each other's updates.
	if got := rf32(t, c, 0, 0, 100); got != 2.0 {
		t.Fatalf("node 0 sees word 100 = %v", got)
	}
	if got := rf32(t, c, 1, 8, 0); got != 1.0 {
		t.Fatalf("node 1 sees word 0 = %v", got)
	}
}

func TestRepeatedIterationsPingPong(t *testing.T) {
	// SOR-like alternation: node 0 and node 1 take turns updating the
	// same word, reading the other's last value.
	c := newTestCluster(t, 2, 1)
	want := float32(0)
	for iter := 0; iter < 6; iter++ {
		node := iter % 2
		got := rf32(t, c, node, node*8, 3)
		if got != want {
			t.Fatalf("iter %d node %d read %v, want %v", iter, node, got, want)
		}
		want = float32(iter + 1)
		wf32(t, c, node, node*8, 3, want)
		barrier(t, c)
	}
}

func TestLockPropagatesWithoutBarrier(t *testing.T) {
	c := newTestCluster(t, 2, 2)
	const lock = int32(7)
	// Node 0: acquire, increment counter, release.
	if _, err := c.AcquireLock(0, 0, lock); err != nil {
		t.Fatal(err)
	}
	wf32(t, c, 0, 0, 0, 5.0)
	if _, err := c.ReleaseLock(0, 0, lock); err != nil {
		t.Fatal(err)
	}
	// Node 1: acquire the same lock — must observe the write with no
	// intervening barrier.
	if _, err := c.AcquireLock(1, 8, lock); err != nil {
		t.Fatal(err)
	}
	if got := rf32(t, c, 1, 8, 0); got != 5.0 {
		t.Fatalf("node 1 read %v under lock, want 5", got)
	}
	wf32(t, c, 1, 8, 0, 6.0)
	if _, err := c.ReleaseLock(1, 8, lock); err != nil {
		t.Fatal(err)
	}
	// Back to node 0.
	if _, err := c.AcquireLock(0, 0, lock); err != nil {
		t.Fatal(err)
	}
	if got := rf32(t, c, 0, 0, 0); got != 6.0 {
		t.Fatalf("node 0 read %v under lock, want 6", got)
	}
	if _, err := c.ReleaseLock(0, 0, lock); err != nil {
		t.Fatal(err)
	}
	if got := c.Stats().Snapshot().LockAcquires; got != 3 {
		t.Fatalf("LockAcquires = %d", got)
	}
}

func TestLockCarriesProgramOrderHistory(t *testing.T) {
	// Node 0 writes page A under lock 1, then writes page B under lock
	// 2. Node 1 acquires only lock 2 but must still see the page-A
	// write (program order on node 0 happens-before the release of 2).
	c := newTestCluster(t, 2, 2)
	if _, err := c.AcquireLock(0, 0, 1); err != nil {
		t.Fatal(err)
	}
	wf32(t, c, 0, 0, 0, 11) // page 0
	if _, err := c.ReleaseLock(0, 0, 1); err != nil {
		t.Fatal(err)
	}
	if _, err := c.AcquireLock(0, 0, 2); err != nil {
		t.Fatal(err)
	}
	wf32(t, c, 0, 0, 1024, 22) // page 1
	if _, err := c.ReleaseLock(0, 0, 2); err != nil {
		t.Fatal(err)
	}
	if _, err := c.AcquireLock(1, 8, 2); err != nil {
		t.Fatal(err)
	}
	if got := rf32(t, c, 1, 8, 1024); got != 22 {
		t.Fatalf("page B = %v, want 22", got)
	}
	if got := rf32(t, c, 1, 8, 0); got != 11 {
		t.Fatalf("page A = %v, want 11 (program-order history)", got)
	}
	if _, err := c.ReleaseLock(1, 8, 2); err != nil {
		t.Fatal(err)
	}
}

func TestGarbageCollection(t *testing.T) {
	c, err := New(Config{Nodes: 2, Pages: 2, GCThresholdBytes: 1})
	if err != nil {
		t.Fatal(err)
	}
	defer func() { _ = c.Close() }()
	// Node 0 writes page 1 (manager: node 1): diff stored at node 0.
	wf32(t, nil2t(t, c), 0, 0, 1024, 9)
	barrier(t, c)
	s := c.Stats().Snapshot()
	if s.GCRounds != 1 || s.GCCollections == 0 {
		t.Fatalf("GCRounds=%d GCCollections=%d", s.GCRounds, s.GCCollections)
	}
	if got := c.StoredDiffBytes(); got != 0 {
		t.Fatalf("StoredDiffBytes = %d after GC", got)
	}
	// Non-manager replica (node 0's own copy!) was invalidated; the
	// value must still be readable everywhere via refetch.
	if c.nodes[0].as.Prot(1) != vm.ProtNone {
		t.Fatalf("node 0 page 1 prot = %v, want none", c.nodes[0].as.Prot(1))
	}
	if got := rf32(t, c, 0, 0, 1024); got != 9 {
		t.Fatalf("node 0 reread %v, want 9", got)
	}
	if got := rf32(t, c, 1, 8, 1024); got != 9 {
		t.Fatalf("node 1 read %v, want 9", got)
	}
}

// nil2t exists to keep wf32's signature simple in the GC test above.
func nil2t(t *testing.T, c *Cluster) *Cluster { t.Helper(); return c }

func TestGCDisabled(t *testing.T) {
	c, err := New(Config{Nodes: 2, Pages: 1, GCThresholdBytes: -1})
	if err != nil {
		t.Fatal(err)
	}
	defer func() { _ = c.Close() }()
	wf32(t, c, 1, 8, 0, 1)
	barrier(t, c)
	if got := c.Stats().Snapshot().GCRounds; got != 0 {
		t.Fatalf("GCRounds = %d with GC disabled", got)
	}
	if c.StoredDiffBytes() == 0 {
		t.Fatal("expected stored diffs with GC disabled")
	}
}

func TestTrackingFaultsCountedAndCharged(t *testing.T) {
	c := newTestCluster(t, 1, 3)
	var seen []vm.PageID
	cost := c.BeginTracking(0, func(tid int, p vm.PageID) { seen = append(seen, p) })
	if cost <= 0 {
		t.Fatal("BeginTracking cost should be positive")
	}
	if !c.Tracking(0) {
		t.Fatal("Tracking(0) = false")
	}
	// Touch pages 0 and 2.
	_, ti, err := c.Span(0, 0, 0, 4, vm.Read)
	if err != nil {
		t.Fatal(err)
	}
	if ti.Overhead < c.Costs().TrackFault {
		t.Fatalf("tracking fault not charged: %+v", ti)
	}
	if _, _, err := c.Span(0, 0, 2*memlayout.PageSize, 4, vm.Read); err != nil {
		t.Fatal(err)
	}
	// Second touch of page 0: no new tracking fault.
	if _, _, err := c.Span(0, 0, 8, 4, vm.Read); err != nil {
		t.Fatal(err)
	}
	if len(seen) != 2 || seen[0] != 0 || seen[1] != 2 {
		t.Fatalf("tracked pages = %v", seen)
	}
	if got := c.Stats().Snapshot().TrackingFaults; got != 2 {
		t.Fatalf("TrackingFaults = %d", got)
	}
	// Re-arm: page 0 faults again.
	if cost := c.RearmTracking(0); cost <= 0 {
		t.Fatal("RearmTracking cost should be positive")
	}
	if _, _, err := c.Span(0, 1, 0, 4, vm.Read); err != nil {
		t.Fatal(err)
	}
	if len(seen) != 3 {
		t.Fatalf("after rearm, tracked = %v", seen)
	}
	c.EndTracking(0)
	if c.Tracking(0) {
		t.Fatal("still tracking after EndTracking")
	}
}

func TestRemoteFaultHook(t *testing.T) {
	c := newTestCluster(t, 2, 2)
	type ev struct {
		node, tid int
		page      vm.PageID
	}
	var events []ev
	c.SetRemoteFaultHook(func(node, tid int, p vm.PageID) {
		events = append(events, ev{node, tid, p})
	})
	// Page 1 managed by node 1; node 0's first read is a remote miss.
	_ = rf32(t, c, 0, 3, 1024)
	if len(events) != 1 || events[0] != (ev{0, 3, 1}) {
		t.Fatalf("events = %+v", events)
	}
	// Second read: no new event.
	_ = rf32(t, c, 0, 3, 1025)
	if len(events) != 1 {
		t.Fatalf("events after warm read = %+v", events)
	}
}

func TestStallChargedOnRemoteMiss(t *testing.T) {
	c := newTestCluster(t, 2, 2)
	_, ti, err := c.Span(0, 0, memlayout.PageSize, 4, vm.Read) // page 1, remote
	if err != nil {
		t.Fatal(err)
	}
	if ti.Stall <= 0 {
		t.Fatalf("remote miss charged no stall: %+v", ti)
	}
	if ti.Overhead < c.Costs().SoftFault {
		t.Fatalf("remote miss charged no fault overhead: %+v", ti)
	}
	// Warm access: free.
	_, ti2, err := c.Span(0, 0, memlayout.PageSize, 4, vm.Read)
	if err != nil {
		t.Fatal(err)
	}
	if ti2 != (sim.ThreadInterval{}) {
		t.Fatalf("warm access charged %+v", ti2)
	}
}

func TestDeterministicStats(t *testing.T) {
	run := func() Snapshot {
		c, err := New(Config{Nodes: 4, Pages: 8})
		if err != nil {
			t.Fatal(err)
		}
		defer func() { _ = c.Close() }()
		for iter := 0; iter < 3; iter++ {
			for node := 0; node < 4; node++ {
				for p := 0; p < 8; p++ {
					wf32(t, c, node, node, p*1024+node*16, float32(iter*node+p))
				}
			}
			if _, err := c.Barrier(); err != nil {
				t.Fatal(err)
			}
		}
		return c.Stats().Snapshot()
	}
	a, b := run(), run()
	if a.Counters() != b.Counters() {
		t.Fatalf("stats differ between identical runs:\n%+v\n%+v", a, b)
	}
}

func TestTCPClusterEndToEnd(t *testing.T) {
	c, err := New(Config{Nodes: 3, Pages: 3, UseTCP: true})
	if err != nil {
		t.Fatal(err)
	}
	defer func() { _ = c.Close() }()
	wf32(t, c, 0, 0, 1024, 7.5)  // page 1 (manager 1), writer 0
	wf32(t, c, 2, 16, 2048, 8.5) // page 2 (manager 2), writer 2
	barrier(t, c)
	if got := rf32(t, c, 1, 8, 1024); got != 7.5 {
		t.Fatalf("tcp: node1 read %v", got)
	}
	if got := rf32(t, c, 0, 0, 2048); got != 8.5 {
		t.Fatalf("tcp: node0 read %v", got)
	}
	if got := c.Stats().Snapshot().BytesTotal; got == 0 {
		t.Fatal("tcp: no bytes accounted")
	}
}

func TestManagerInitialCopies(t *testing.T) {
	c := newTestCluster(t, 4, 8)
	for p := 0; p < 8; p++ {
		for n := 0; n < 4; n++ {
			prot := c.nodes[n].as.Prot(vm.PageID(p))
			if n == p%4 && prot != vm.ProtRead {
				t.Fatalf("manager %d of page %d: prot %v", n, p, prot)
			}
			if n != p%4 && prot != vm.ProtNone {
				t.Fatalf("non-manager %d of page %d: prot %v", n, p, prot)
			}
		}
	}
}

func TestBytesDiffAccounted(t *testing.T) {
	c := newTestCluster(t, 2, 1)
	wf32(t, c, 1, 8, 0, 1) // node 1 writes page 0 (manager 0) — remote write fault
	barrier(t, c)
	_ = rf32(t, c, 0, 0, 0) // node 0 revalidates via diff fetch
	s := c.Stats().Snapshot()
	if s.BytesDiff == 0 {
		t.Fatal("no diff bytes accounted")
	}
	if s.DiffFetches == 0 {
		t.Fatal("no diff fetches accounted")
	}
	if s.BytesDiff >= s.BytesTotal {
		t.Fatalf("BytesDiff %d >= BytesTotal %d", s.BytesDiff, s.BytesTotal)
	}
}
