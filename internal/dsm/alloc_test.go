package dsm

import (
	"bytes"
	"runtime"
	"testing"

	"actdsm/internal/memlayout"
	"actdsm/internal/msg"
	"actdsm/internal/pool"
	"actdsm/internal/sim"
	"actdsm/internal/transport"
	"actdsm/internal/vm"
)

// The allocation gate (make alloc-gate): the engine-side access path's
// allocation counts and bytes, shaped like the benchmark ladder's
// dsm.span_warm, dsm.remote_miss, dsm.lock_handoff and dsm.diff_create
// rungs so that a re-introduced escape or copy fails a push instead of
// waiting for a benchmark run. Skipped under the race detector, whose
// instrumentation allocates.

// Ceilings are what the access path achieves plus one for runtime noise (a
// sync.Pool refill after a GC cycle): 1 for a remote miss, single or
// batched from two writers, all of it the costs slice the barrier between
// write and read returns; 0 for a miss alone, counted without its
// barrier, that snapshots a backlog of 64 or more notices and fetches
// their diffs; a lock hand-off, plain or with its grant forwarded to the
// holder, rounds to 0 — its messages are pooled, and only the barrier
// every 256 hand-offs allocates.
const (
	remoteMissAllocCeiling  = 2
	batchMissAllocCeiling   = 2
	backlogMissAllocCeiling = 1
	lockHandoffAllocCeiling = 1
	lockForwardAllocCeiling = 1
)

// remoteMissBytesCeiling bounds what a dense remote miss may allocate
// beyond the writer's one stored diff (see TestRemoteMissBytesCeiling).
// The cycle achieves about 230 B there: the barrier's costs slice and its
// share of the chunk tails the packing leaves, under 130 B a dense diff;
// a second copy of the diff would add 4.1 KB or
// more, so three quarters of a page separates the two.
const remoteMissBytesCeiling = memlayout.PageSize * 3 / 4

func skipUnderRace(t *testing.T) {
	t.Helper()
	if pool.Race {
		t.Skip("allocation counts are meaningless under the race detector")
	}
}

func mustSpan(t *testing.T, c *Cluster, node, tid, off, size int, a vm.Access) []byte {
	t.Helper()
	b, _, err := c.Span(node, tid, off, size, a)
	if err != nil {
		t.Fatal(err)
	}
	return b
}

func TestSpanWarmZeroAllocs(t *testing.T) {
	skipUnderRace(t)
	c := newTestCluster(t, 1, 4)
	mustSpan(t, c, 0, 0, 0, 4*memlayout.PageSize, vm.Write)
	for _, tc := range []struct {
		name  string
		pages int
		a     vm.Access
	}{
		{"read-1", 1, vm.Read}, {"read-4", 4, vm.Read},
		{"write-1", 1, vm.Write}, {"write-4", 4, vm.Write},
	} {
		var err error
		allocs := testing.AllocsPerRun(1000, func() {
			_, _, err = c.Span(0, 0, 0, tc.pages*memlayout.PageSize, tc.a)
		})
		if err != nil {
			t.Fatal(err)
		}
		if allocs != 0 {
			t.Errorf("warm %s span: %v allocs/op, want 0", tc.name, allocs)
		}
	}
}

// TestRemoteMissAllocCeiling is the dsm.remote_miss rung: node 1 writes,
// a barrier invalidates node 0, node 0 re-reads (one diff fetch). The
// BatchDiffs row has nodes 1 and 2 write the page, so node 0's re-read is
// a batched fetch whose fan-out hands one writer's request to a parked
// worker and sends the other's itself. The backlog row gives node 0's miss
// a long pending set: nodes 1–3 take turns writing the page under a lock
// (backlogRounds intervals each), node 0 acquires the lock and reads, so
// its one miss snapshots 3 × backlogRounds notices and fetches as many
// diffs, one DiffRequest per writer. Only that miss is counted: the fault
// path keeps its snapshot and diff table on the node, so once they have
// grown a miss costs the same whatever its backlog — a snapshot or table
// made per miss adds one allocation each.
func TestRemoteMissAllocCeiling(t *testing.T) {
	skipUnderRace(t)
	for _, tc := range []struct {
		name    string
		writers int
		batch   bool
		ceiling float64
		allocs  func(t *testing.T, c *Cluster, writers int) float64
	}{
		{"single", 1, false, remoteMissAllocCeiling, cycleMissAllocs},
		{"BatchDiffs", 2, true, batchMissAllocCeiling, cycleMissAllocs},
		{"backlog", 3, false, backlogMissAllocCeiling, backlogMissAllocs},
	} {
		t.Run(tc.name, func(t *testing.T) {
			c, err := New(Config{Nodes: 1 + tc.writers, Pages: 1, GCThresholdBytes: -1, BatchDiffs: tc.batch})
			if err != nil {
				t.Fatal(err)
			}
			t.Cleanup(func() { _ = c.Close() })
			allocs := tc.allocs(t, c, tc.writers)
			t.Logf("remote miss (%d writers, %s): %v allocs/op", tc.writers, tc.name, allocs)
			if allocs > tc.ceiling {
				t.Errorf("remote miss: %v allocs/op, ceiling %v", allocs, tc.ceiling)
			}
			if tc.batch && c.Stats().Snapshot().DiffBatchFetches == 0 {
				t.Fatal("no batched diff fetch")
			}
		})
	}
}

// cycleMissAllocs returns the mean allocations of a whole cycle: the
// writers write the page, a barrier invalidates node 0, node 0 re-reads.
func cycleMissAllocs(t *testing.T, c *Cluster, writers int) float64 {
	i := 0
	return testing.AllocsPerRun(2000, func() {
		i++
		for w := 1; w <= writers; w++ {
			mustSpan(t, c, w, 8*w, 4*w, 4, vm.Write)[0] = byte(i)
		}
		barrier(t, c)
		mustSpan(t, c, 0, 0, 0, 4, vm.Read)
	})
}

// backlogRounds is how many lock-granted intervals each writer of the
// backlog row closes before node 0's miss: 3 × 24 = 72 notices, of which
// node 0 must still have at least 64 pending (four times the 16 a
// frame-sized snapshot holds): as the page's home it applies a few while
// serving the writers' first page fetches.
const backlogRounds = 24

// backlogMissAllocs runs the backlog row's cycle and returns the mean
// allocations of node 0's miss alone, after a warm-up that grows the
// node's fault scratch.
func backlogMissAllocs(t *testing.T, c *Cluster, writers int) float64 {
	t.Helper()
	const lock, warm, ops = 1, 8, 200
	var total uint64
	var before, after runtime.MemStats
	for i := 0; i < warm+ops; i++ {
		for r := 0; r < backlogRounds; r++ {
			for w := 1; w <= writers; w++ {
				if _, err := c.AcquireLock(w, 8*w, lock); err != nil {
					t.Fatal(err)
				}
				mustSpan(t, c, w, 8*w, 4*w, 4, vm.Write)[0] = byte(i + r)
				if _, err := c.ReleaseLock(w, 8*w, lock); err != nil {
					t.Fatal(err)
				}
			}
		}
		if _, err := c.AcquireLock(0, 0, lock); err != nil {
			t.Fatal(err)
		}
		if got := len(c.nodes[0].pages[0].pending); got < 64 {
			t.Fatalf("node 0 misses with %d pending notices, want at least 64", got)
		}
		runtime.ReadMemStats(&before)
		mustSpan(t, c, 0, 0, 0, 4, vm.Read)
		runtime.ReadMemStats(&after)
		if i >= warm {
			total += after.Mallocs - before.Mallocs
		}
		if _, err := c.ReleaseLock(0, 0, lock); err != nil {
			t.Fatal(err)
		}
		barrier(t, c)
	}
	return float64(total) / ops
}

// TestFanOutWarmZeroAllocs: a warm fan-out of width 8 allocates nothing —
// its join state is pooled, and its legs go by value to workers already
// parked (TestFanOutWorkersBounded holds their number) — nor does the
// cluster's fan-out under a crash schedule, which also counts the fan-outs
// in flight for the chaos layer.
func TestFanOutWarmZeroAllocs(t *testing.T) {
	skipUnderRace(t)
	c, err := New(Config{Nodes: 2, Pages: 1, FaultTolerance: true, Chaos: &transport.ChaosOptions{
		Crashes: []sim.CrashSchedule{{Node: 1, At: sim.CallKey{From: 0, To: 1, N: 1 << 40}}},
	}})
	if err != nil {
		t.Fatal(err)
	}
	defer func() { _ = c.Close() }()
	f := func(int) error { return nil }
	for name, run := range map[string]func(){
		"runner":  func() { _ = fanOut(8, f) },
		"cluster": func() { _ = c.fanOut(8, f) },
	} {
		for i := 0; i < 100; i++ {
			run()
		}
		if allocs := testing.AllocsPerRun(1000, run); allocs != 0 {
			t.Errorf("warm fan-out of width 8 (%s): %v allocs/op, want 0", name, allocs)
		}
	}
}

// TestRemoteMissBytesCeiling is the same rung with every word of the page
// changed, counted in bytes: the cycle's only page-sized allocation is
// the writer's stored diff, its exact 4,100 bytes of a store chunk (no GC
// runs, so every diff takes fresh chunk bytes). The requester applies
// that diff straight out of the reply frame, so nothing else in the cycle
// may come near a page — a decode copy, or a diff encoder that grows by
// doubling, each add 4 KiB or more.
func TestRemoteMissBytesCeiling(t *testing.T) {
	skipUnderRace(t)
	c, err := New(Config{Nodes: 2, Pages: 1, GCThresholdBytes: -1})
	if err != nil {
		t.Fatal(err)
	}
	t.Cleanup(func() { _ = c.Close() })
	cycle := func(i int) {
		b := mustSpan(t, c, 1, 8, 0, memlayout.PageSize, vm.Write)
		for w := 0; w < len(b); w += 4 {
			b[w] = byte(i)
		}
		barrier(t, c)
		mustSpan(t, c, 0, 0, 0, 4, vm.Read)
	}
	for i := 1; i <= 64; i++ {
		cycle(i) // warm the buffer pools
	}
	const ops = 1000
	storedDiff := len(MakeDiff(page(), bytesOf(1))) // 4,100, packed into its chunk
	var before, after runtime.MemStats
	runtime.ReadMemStats(&before)
	for i := 1; i <= ops; i++ {
		cycle(64 + i)
	}
	runtime.ReadMemStats(&after)
	perOp := float64(after.TotalAlloc-before.TotalAlloc) / ops
	beyondDiff := perOp - float64(storedDiff)
	t.Logf("dense remote miss: %.0f B/op, %.0f beyond the writer's stored diff", perOp, beyondDiff)
	if beyondDiff > remoteMissBytesCeiling {
		t.Errorf("dense remote miss allocates %.0f B/op beyond the stored diff, ceiling %d", beyondDiff, remoteMissBytesCeiling)
	}
}

// bytesOf returns a page filled with v.
func bytesOf(v byte) []byte {
	b := page()
	for i := range b {
		b[i] = v
	}
	return b
}

// TestMakeDiffOneAlloc is the dsm.diff_create rung's allocation count: a
// diff is encoded on the stack and allocated once, at its size; an
// unchanged page allocates nothing.
func TestMakeDiffOneAlloc(t *testing.T) {
	skipUnderRace(t)
	twin := page()
	sparse := page()
	copy(sparse[1024:1536], bytesOf(3))
	for _, tc := range []struct {
		name string
		cur  []byte
		want float64
	}{
		{"dense", bytesOf(1), 1},
		{"sparse", sparse, 1},
		{"unchanged", page(), 0},
	} {
		var d []byte
		if got := testing.AllocsPerRun(200, func() { d = MakeDiff(twin, tc.cur) }); got != tc.want {
			t.Errorf("MakeDiff %s: %v allocs/op, want %v", tc.name, got, tc.want)
		}
		if tc.want == 0 && d != nil {
			t.Errorf("MakeDiff %s: got a %d-byte diff", tc.name, len(d))
		}
	}
}

// TestNoticeIngestAllocs: queueing a write notice into a pending set with
// spare capacity allocates nothing, wherever in the causal order it lands,
// and neither does dropping a duplicate or a stale notice. Nor, once warm,
// does a notice set taking a batch into a list with spare capacity — three
// intervals and a second copy of one — after a barrier cleared it, or a
// barrier fold of an enter carrying that batch into the episode's state.
func TestNoticeIngestAllocs(t *testing.T) {
	skipUnderRace(t)
	c, err := New(Config{Nodes: 2, Pages: 1, GCThresholdBytes: -1})
	if err != nil {
		t.Fatal(err)
	}
	t.Cleanup(func() { _ = c.Close() })
	n := c.nodes[0]
	st := &n.pages[0]
	st.noteApplied(1, 4) // writer 1's intervals up to 4 are reflected
	st.pending = make([]msg.Notice, 0, 16)
	notice := func(iv int32) msg.Notice { return msg.Notice{Page: 0, Writer: 1, Interval: iv, Lam: iv} }
	var batch []msg.Notice
	for _, id := range [][2]int32{{0, 1}, {1, 1}, {1, 2}, {1, 2}} {
		for pg := int32(0); pg < 4; pg++ {
			batch = append(batch, msg.Notice{Page: pg, Writer: id[0], Interval: id[1], Lam: id[1]})
		}
	}
	var set noticeSet
	taken := make([]msg.Notice, 0, len(batch))
	enter := &msg.BarrierEnter{Node: 1, Notices: batch}
	b := &c.barriers[n.id]
	for _, tc := range []struct {
		name   string
		ingest func()
	}{
		{"admit", func() {
			st.pending = st.pending[:0]
			for iv := int32(12); iv > 4; iv-- { // each lands in front: the insert shifts
				n.addPending(notice(iv))
			}
		}},
		{"duplicate", func() { n.addPending(notice(8)) }},
		{"stale", func() { n.addPending(notice(3)) }},
		{"notice set", func() {
			set.clear()
			if taken = set.add(taken[:0], batch); len(taken) != 12 {
				t.Fatalf("notice set took %d notices, want 12", len(taken))
			}
		}},
		{"barrier fold", func() {
			b.notices = b.notices[:0]
			b.have.clear()
			if _, err := n.serveBarrierEnter(enter); err != nil || len(b.notices) != 12 {
				t.Fatalf("barrier fold took %d notices (%v), want 12", len(b.notices), err)
			}
		}},
	} {
		if allocs := testing.AllocsPerRun(1000, tc.ingest); allocs != 0 {
			t.Errorf("notice ingest, %s: %v allocs/op, want 0", tc.name, allocs)
		}
		if len(st.pending) != 8 {
			t.Fatalf("notice ingest, %s: %d notices pending, want 8", tc.name, len(st.pending))
		}
	}
}

// TestPendingGrowsFromShard: 64 pages of one shard each queue 16 notices
// from empty, a round at a time, as a barrier release delivers them. Their
// queues grow by doubling into blocks carved from the shard's slab, so the
// whole ingest makes at most three allocations, not one per page at each
// doubling.
func TestPendingGrowsFromShard(t *testing.T) {
	skipUnderRace(t)
	const perShard, notices = 64, 16
	c, err := New(Config{Nodes: 2, Pages: perShard * defaultServiceShards, GCThresholdBytes: -1})
	if err != nil {
		t.Fatal(err)
	}
	t.Cleanup(func() { _ = c.Close() })
	n := c.nodes[0]
	ingest := func() {
		n.shards[0].notices = blockPool[msg.Notice]{slab: n.shards[0].notices.slab}
		for k := range perShard {
			n.pages[k*defaultServiceShards].pending = nil
		}
		for iv := int32(1); iv <= notices; iv++ {
			for k := range perShard {
				n.addPending(msg.Notice{Page: int32(k * defaultServiceShards), Writer: 1, Interval: iv, Lam: iv})
			}
		}
	}
	if allocs := testing.AllocsPerRun(1, ingest); allocs > 3 {
		t.Errorf("%d pages queueing %d notices each: %v allocations, want at most 3", perShard, notices, allocs)
	}
	for k := range perShard {
		if got := len(n.pages[k*defaultServiceShards].pending); got != notices {
			t.Fatalf("page %d: %d notices pending, want %d", k*defaultServiceShards, got, notices)
		}
	}
}

// TestCloseIntervalWarmZeroAllocs: once warm, closing an interval that
// wrote 100 pages allocates nothing — the dirty-page and notice lists are
// the node's, each page's diff run keeps its array across the drop, and
// the diffs go to recycled chunks. Between closes the since-barrier
// history is reset the way a barrier would, and the diffs are dropped the
// way a GC collect would, without invalidating the copies.
func TestCloseIntervalWarmZeroAllocs(t *testing.T) {
	skipUnderRace(t)
	const pages = 100
	c, err := New(Config{Nodes: 2, Pages: pages, GCThresholdBytes: -1})
	if err != nil {
		t.Fatal(err)
	}
	t.Cleanup(func() { _ = c.Close() })
	n := c.nodes[0]
	mustSpan(t, c, 0, 0, 0, pages*memlayout.PageSize, vm.Read) // a copy of every page
	i := 0
	cycle := func() {
		i++
		b := mustSpan(t, c, 0, 0, 0, pages*memlayout.PageSize, vm.Write)
		for p := range pages {
			b[p*memlayout.PageSize] = byte(i)
		}
		if closed, _ := n.closeInterval(); len(closed) != pages {
			t.Fatalf("closeInterval: %d notices, want %d", len(closed), pages)
		}
		n.lockSync()
		n.known = n.known[:0]
		n.knownHave.clear()
		n.mu.Unlock()
		for p := range vm.PageID(pages) {
			sh := n.lockShard(p)
			n.diffBytes.Add(-n.pages[p].dropDiffs())
			n.unlockShard(sh)
		}
	}
	cycle() // warm the lists, the runs and the pools
	if allocs := testing.AllocsPerRun(1000, cycle); allocs != 0 {
		t.Errorf("warm close of %d dirty pages: %v allocs/op, want 0", pages, allocs)
	}
}

// TestDiffRunsGrowFromShard: 64 pages of one shard each close 16 intervals
// from empty runs, a close of all 64 at a time. Their runs grow by
// doubling into blocks of the shard's diff pool, taking back the blocks
// their neighbours outgrew, so the whole round makes at most three
// allocations, not one per page at each doubling. Dropped as a GC collect
// drops them (collectPage), the runs keep their blocks, and a second
// round allocates nothing. The lists, twins, known and the store's chunk
// are warmed by a round beforehand; each round resets known as a barrier
// does.
func TestDiffRunsGrowFromShard(t *testing.T) {
	skipUnderRace(t)
	const perShard, intervals = 64, 16
	c, err := New(Config{Nodes: 2, Pages: perShard * defaultServiceShards, GCThresholdBytes: -1})
	if err != nil {
		t.Fatal(err)
	}
	t.Cleanup(func() { _ = c.Close() })
	n := c.nodes[0]
	page := func(k int) vm.PageID { return vm.PageID(k * defaultServiceShards) }
	round := func() {
		for range intervals {
			for k := range perShard {
				sh := n.lockShard(page(k))
				st := &n.pages[page(k)]
				st.twin = append(getPageBuf()[:0], n.pageData(page(k))...)
				st.dirty = true
				n.pageData(page(k))[0]++
				n.unlockShard(sh)
			}
			if closed, _ := n.closeInterval(); len(closed) != perShard {
				t.Fatalf("closeInterval: %d notices, want %d", len(closed), perShard)
			}
		}
		n.lockSync()
		n.known = n.known[:0]
		n.knownHave.clear()
		n.mu.Unlock()
	}
	collect := func() {
		for k := range perShard {
			if err := n.collectPage(page(k)); err != nil {
				t.Fatal(err)
			}
		}
	}
	fromEmpty := func() {
		collect()
		for k := range perShard {
			n.pages[page(k)].diffs = nil
		}
		n.shards[0].diffs = blockPool[storedDiff]{slab: n.shards[0].diffs.slab}
		round()
	}
	round() // warm the lists, the twins, known and the store
	allocs := testing.AllocsPerRun(1, fromEmpty)
	t.Logf("%d runs growing to %d diffs from empty: %v allocations", perShard, intervals, allocs)
	if allocs > 3 {
		t.Errorf("%d pages closing %d intervals each from empty runs: %v allocations, want at most 3", perShard, intervals, allocs)
	}
	for k := range perShard {
		if got := len(n.pages[page(k)].diffs); got != intervals {
			t.Fatalf("page %d: run holds %d diffs, want %d", page(k), got, intervals)
		}
	}
	if allocs := testing.AllocsPerRun(1, func() { collect(); round() }); allocs != 0 {
		t.Errorf("the same round after a GC collect dropped the runs: %v allocations, want 0", allocs)
	}
}

// TestKnownKeepsArrayAcrossBarrier: a node's causal history keeps its
// array across the barrier. Two nodes hand a lock back and forth through
// warm epochs, each closed by a barrier; through one more epoch of the
// same hand-offs each node's known grows to the warm epoch's length in
// the array it had, so its growth allocates nothing. Not skipped under
// the race detector: it compares arrays, not counts.
func TestKnownKeepsArrayAcrossBarrier(t *testing.T) {
	const handoffs = 256
	c, err := New(Config{Nodes: 2, Pages: 8, GCThresholdBytes: -1})
	if err != nil {
		t.Fatal(err)
	}
	t.Cleanup(func() { _ = c.Close() })
	epoch := func() (lens [2]int) {
		for i := range handoffs {
			nd := i & 1
			if _, err := c.AcquireLock(nd, nd, 1); err != nil {
				t.Fatal(err)
			}
			mustSpan(t, c, nd, nd, (i%8)*memlayout.PageSize, 4, vm.Write)[0] = byte(i)
			if _, err := c.ReleaseLock(nd, nd, 1); err != nil {
				t.Fatal(err)
			}
		}
		for i, n := range c.nodes {
			lens[i] = len(n.known)
		}
		return lens
	}
	epoch() // the first epoch's first acquire carries no history
	barrier(t, c)
	warm := epoch()
	barrier(t, c)
	var arrays [2]*msg.Notice
	for i, n := range c.nodes {
		if len(n.known) != 0 || cap(n.known) < warm[i] {
			t.Fatalf("node %d after the barrier: known %d/%d, want 0/%d or more", i, len(n.known), cap(n.known), warm[i])
		}
		arrays[i] = &n.known[:1][0]
	}
	if got := epoch(); got != warm || got[0] == 0 {
		t.Fatalf("second epoch: known lengths %v, warm epoch %v", got, warm)
	}
	for i, n := range c.nodes {
		if &n.known[0] != arrays[i] {
			t.Errorf("node %d: known grew %d notices into a new array, want the one it kept across the barrier", i, len(n.known))
		}
	}
}

// TestBarrierFoldKeepsArray: a barrier position's fold keeps its notice
// array from episode to episode. Four nodes each write every page every
// epoch, so the root folds the same notices at every barrier; once warm,
// each barrier folds them into the array the one before left, so the
// fold grows nothing. Not skipped under the race detector: it compares
// arrays, not counts.
func TestBarrierFoldKeepsArray(t *testing.T) {
	const nodes = 4
	c, err := New(Config{Nodes: nodes, Pages: nodes, GCThresholdBytes: -1})
	if err != nil {
		t.Fatal(err)
	}
	t.Cleanup(func() { _ = c.Close() })
	stamp := byte(0)
	epoch := func() (int, *msg.Notice) {
		stamp++ // a write that changes nothing makes no diff and no notice
		for nd := range nodes {
			for p := range nodes {
				mustSpan(t, c, nd, nd, p*memlayout.PageSize+nd*8, 4, vm.Write)[0] = stamp
			}
		}
		barrier(t, c)
		b := &c.barriers[0]
		if len(b.notices) == 0 {
			t.Fatal("the root folded no notices")
		}
		return len(b.notices), &b.notices[0]
	}
	epoch() // the first epoch's faults fetch whole pages
	n, warm := epoch()
	for ep := range 3 {
		if got, array := epoch(); got != n || array != warm {
			t.Fatalf("warm barrier %d: the root folded %d notices (warm %d) into a new array, want the one it kept", ep, got, n)
		}
	}
}

// barrierEpisodeAllocCeiling bounds a warm barrier episode: its enters,
// releases, fold state and tree levels, and the GC round's lists and page
// set, are storage the cluster and its message pools keep, so the episode
// allocates the costs slice Barrier returns and nothing else. The ceiling
// leaves room for runtime noise (a sync.Pool refill after a Go
// collection), not for a per-message allocation: 8 nodes exchange 14
// barrier messages an episode, and a GC round 56 more.
const barrierEpisodeAllocCeiling = 8

// TestBarrierEpisodeAllocCeiling is the dsm.barrier rung: 8 nodes each
// write one page, then a barrier; flat and as a binary tree, and with
// every barrier forced to run a GC round over the 8 pages.
func TestBarrierEpisodeAllocCeiling(t *testing.T) {
	skipUnderRace(t)
	for _, tc := range []struct {
		name  string
		arity int
		gc    int
	}{{"flat", 0, -1}, {"arity2", 2, -1}, {"flat-gc", 0, 1}, {"arity2-gc", 2, 1}} {
		t.Run(tc.name, func(t *testing.T) {
			const nodes = 8
			c, err := New(Config{Nodes: nodes, Pages: nodes, BarrierArity: tc.arity, GCThresholdBytes: tc.gc})
			if err != nil {
				t.Fatal(err)
			}
			t.Cleanup(func() { _ = c.Close() })
			i := 0
			episode := func() {
				i++
				for n := range nodes {
					mustSpan(t, c, n, n, n*memlayout.PageSize, 4, vm.Write)[0] = byte(i)
				}
				barrier(t, c)
			}
			for range 8 { // grow every list to the episode's size
				episode()
			}
			allocs := testing.AllocsPerRun(500, episode)
			t.Logf("barrier episode (%s): %v allocs/op", tc.name, allocs)
			if allocs > barrierEpisodeAllocCeiling {
				t.Errorf("barrier episode (%s): %v allocs/op, ceiling %d", tc.name, allocs, barrierEpisodeAllocCeiling)
			}
			if s := c.Stats().Snapshot(); tc.gc > 0 && s.GCRounds == 0 {
				t.Fatal("no GC round ran")
			}
		})
	}
}

// TestLockHandoffAllocCeiling is the dsm.lock_handoff rung: two nodes
// alternate acquire, write, release on one lock, with a barrier every 256
// hand-offs bounding the notice history a release ships. The plain row is
// the rung itself; under LockForwarding every grant names the other node as
// the holder and the acquire adds a LockPull to it.
func TestLockHandoffAllocCeiling(t *testing.T) {
	skipUnderRace(t)
	for _, tc := range []struct {
		name    string
		forward bool
		ceiling float64
	}{
		{"plain", false, lockHandoffAllocCeiling},
		{"forwarded", true, lockForwardAllocCeiling},
	} {
		t.Run(tc.name, func(t *testing.T) {
			c, err := New(Config{Nodes: 2, Pages: 1, GCThresholdBytes: -1, LockForwarding: tc.forward})
			if err != nil {
				t.Fatal(err)
			}
			t.Cleanup(func() { _ = c.Close() })
			i := 0
			allocs := testing.AllocsPerRun(4096, func() {
				n := i & 1
				if _, err := c.AcquireLock(n, n, 1); err != nil {
					t.Fatal(err)
				}
				mustSpan(t, c, n, n, 0, 4, vm.Write)[0] = byte(i)
				if _, err := c.ReleaseLock(n, n, 1); err != nil {
					t.Fatal(err)
				}
				if i&255 == 255 {
					barrier(t, c)
				}
				i++
			})
			t.Logf("lock hand-off (acquire, write, release): %v allocs/op", allocs)
			if allocs > tc.ceiling {
				t.Errorf("lock hand-off: %v allocs/op, ceiling %v", allocs, tc.ceiling)
			}
			if tc.forward && c.Stats().Snapshot().LockForwards == 0 {
				t.Fatal("no grant named a holder to pull from")
			}
		})
	}
}

// grantBytesSpread bounds how far apart the B/op of a hand-off whose
// grants carry 16 notices and one whose grants carry 512 may be (see
// TestLockGrantNoticeBytes). Lists allocated per grant would put 7.8 KiB
// of notices (496 × 16 B), and twice that for a list grown by doubling,
// between the two.
const grantBytesSpread = 1024

// TestLockGrantNoticeBytes pins the grant's notice list to its pooled
// message, in bytes: a warm acquire → apply → release hand-off allocates
// the same whether the manager's log — and so every grant — holds 16
// notices or 512. Nodes 0 and 1 alternate on a lock node 1 manages, so one
// grant is served to the wire (and released by the handler after its
// encode) and decoded, and the other is served in place; the acquirer
// releases both.
// The log holds writer 2's notices on a page nobody touches, and the
// acquirer's confirmed log position is cleared before each acquire, so
// every grant re-carries the whole log and the releases add nothing.
func TestLockGrantNoticeBytes(t *testing.T) {
	skipUnderRace(t)
	const lock, ops = 1, 2000
	perOp := func(logLen int) float64 {
		c, err := New(Config{Nodes: 3, Pages: 1, GCThresholdBytes: -1})
		if err != nil {
			t.Fatal(err)
		}
		t.Cleanup(func() { _ = c.Close() })
		mgr := c.lockManager(lock)
		if mgr != 1 {
			t.Fatalf("lock %d is managed by node %d, want 1", lock, mgr)
		}
		ml := c.nodes[mgr].locks[mgr]
		for iv := int32(1); iv <= int32(logLen); iv++ {
			ml.log = ml.have.add(ml.log, []msg.Notice{{Page: 0, Writer: 2, Interval: iv, Lam: iv}})
		}
		handoff := func(i int) {
			n := c.nodes[i&1]
			n.lockSync()
			clear(n.lockPos)
			n.mu.Unlock()
			if _, err := c.AcquireLock(n.id, n.id, lock); err != nil {
				t.Fatal(err)
			}
			if _, err := c.ReleaseLock(n.id, n.id, lock); err != nil {
				t.Fatal(err)
			}
		}
		for i := range 64 {
			handoff(i) // warm the pools, the pending sets and known
		}
		if got := len(c.nodes[0].pages[0].pending); got != logLen {
			t.Fatalf("%d notices pending at node 0, want the log's %d", got, logLen)
		}
		var before, after runtime.MemStats
		runtime.ReadMemStats(&before)
		for i := range ops {
			handoff(i)
		}
		runtime.ReadMemStats(&after)
		if got := len(c.nodes[mgr].locks[mgr].log); got != logLen {
			t.Fatalf("manager log grew to %d notices, want %d", got, logLen)
		}
		return float64(after.TotalAlloc-before.TotalAlloc) / ops
	}
	small, large := perOp(16), perOp(512)
	t.Logf("lock hand-off: %.0f B/op with 16-notice grants, %.0f B/op with 512", small, large)
	if large-small > grantBytesSpread {
		t.Errorf("512-notice grants cost %.0f B/op more than 16-notice ones, want under %d: the grant's size allocates", large-small, grantBytesSpread)
	}
}

// TestDiffLifecycleAllocs: on warm pools the diff path's own storage and
// every pooled message kind allocate nothing — a twin's get and put; each
// request kind decoded off a frame and served through the transport
// handler's body (respond), which releases it and the reply it served,
// with the reply's pins and, for a page, its image; each reply kind
// decoded and released as a requester does; and a stored diff's whole
// life, created by closeInterval, served and dropped by a GC collect. The
// last row holds the diff store to nothing across the Go collector too: a
// GC epoch's chunks come back whole to the node's free list, which no
// collection empties.
func TestDiffLifecycleAllocs(t *testing.T) {
	skipUnderRace(t)
	c, err := New(Config{Nodes: 2, Pages: 1, GCThresholdBytes: -1})
	if err != nil {
		t.Fatal(err)
	}
	t.Cleanup(func() { _ = c.Close() })
	n := c.nodes[0] // page 0's home, so a collect keeps its copy
	i := 0
	// write changes every word of the page's first size bytes.
	write := func(size int) {
		i++
		b := mustSpan(t, c, 0, 0, 0, size, vm.Write)
		for w := 0; w < len(b); w += 4 {
			b[w] = byte(i)
		}
	}
	// closeIv closes the interval and returns its number, resetting the
	// since-barrier histories the way a barrier would so that they do not
	// grow across the run.
	closeIv := func() int32 {
		closed, _ := n.closeInterval()
		if len(closed) != 1 {
			t.Fatalf("closeInterval: %d notices, want 1", len(closed))
		}
		n.lockSync()
		n.known = n.known[:0]
		n.knownHave.clear()
		n.mu.Unlock()
		return closed[0].Interval
	}
	store := func() int32 {
		write(4)
		return closeIv()
	}
	decode := func(frame []byte) msg.Message {
		m, err := msg.Decode(frame)
		if err != nil {
			t.Fatal(err)
		}
		return m
	}
	// serve hands respond a request decoded off its frame, as the
	// transport handler does.
	serve := func(frame []byte) []byte {
		out, err := n.respond(1, decode(frame))
		if err != nil {
			t.Fatal(err)
		}
		return out
	}
	// The request rows serve a stored diff, not an empty slot; the
	// create/serve/drop row runs last, since its collect drops it.
	iv := store()
	single := msg.Encode(&msg.DiffRequest{From: 1, Page: 0, Intervals: []int32{iv}})
	batch := msg.Encode(&msg.DiffBatchRequest{From: 1, Pages: []msg.PageIntervals{{Page: 0, Intervals: []int32{iv}}}})
	if mgr := c.lockManager(0); mgr != n.id {
		t.Fatalf("lock 0 is managed by node %d, want %d", mgr, n.id)
	}
	nt := msg.Notice{Page: 0, Writer: 1, Interval: 1, Lam: 1}
	ml := n.locks[n.id]
	ml.log = ml.have.add(ml.log, []msg.Notice{nt})
	frames := map[msg.Kind][]byte{msg.KindDiffRequest: single, msg.KindDiffBatchRequest: batch}
	for _, req := range []msg.Message{
		&msg.PageRequest{From: 1, Page: 0, Pending: []msg.Notice{{Page: 0, Writer: 0, Interval: 1, Lam: 1}}},
		&msg.LockAcquire{Node: 0, Lock: 0, Seen: []int32{0, 0}},
		&msg.LockRelease{Node: 1, Lock: 0, Lam: 1, Notices: []msg.Notice{nt}},
		&msg.LockPull{Node: 1, Lock: 0, Holder: 0, Seen: []int32{0, 0}},
	} {
		frames[req.Kind()] = msg.Encode(req)
	}
	// replies keeps the first reply of each kind: the grant is the
	// acquire's, which carries the log's notice.
	replies := map[msg.Kind][]byte{}
	for _, k := range []msg.Kind{msg.KindDiffRequest, msg.KindDiffBatchRequest, msg.KindPageRequest,
		msg.KindLockAcquire, msg.KindLockRelease, msg.KindLockPull} {
		out := serve(frames[k])
		reply := decode(out)
		var got []byte
		switch r := reply.(type) {
		case *msg.DiffReply:
			got = r.Diffs[0]
		case *msg.DiffBatchReply:
			got = r.Pages[0].Diffs[0]
		case *msg.LockGrant:
			if k == msg.KindLockAcquire && len(r.Notices) != 1 {
				t.Fatalf("served grant carries %d notices, want the log's 1", len(r.Notices))
			}
		}
		if k == msg.KindDiffRequest || k == msg.KindDiffBatchRequest {
			if want := n.pages[0].ownDiff(iv).bytes(); len(want) == 0 || !bytes.Equal(got, want) {
				t.Fatalf("%v: served %d bytes, want the stored %d", k, len(got), len(want))
			}
		}
		if _, ok := replies[reply.Kind()]; !ok {
			replies[reply.Kind()] = out
		}
	}
	type row struct {
		name  string
		cycle func()
	}
	rows := []row{{"twin get/put", func() { putPageBuf(getPageBuf()) }}}
	for _, k := range []msg.Kind{msg.KindPageRequest, msg.KindDiffRequest, msg.KindDiffBatchRequest,
		msg.KindLockAcquire, msg.KindLockRelease, msg.KindLockPull} {
		frame := frames[k]
		rows = append(rows, row{k.String() + " served", func() { msg.PutBuf(serve(frame)) }})
	}
	for _, k := range []msg.Kind{msg.KindPageReply, msg.KindDiffReply, msg.KindDiffBatchReply, msg.KindLockGrant} {
		frame := replies[k]
		if frame == nil {
			t.Fatalf("no %v frame", k)
		}
		rows = append(rows, row{k.String() + " decoded", func() { msg.Release(decode(frame)) }})
	}
	rows = append(rows, row{"stored diff create/serve/drop", func() {
		req := msg.New[*msg.DiffRequest]()
		req.From, req.Page, req.Intervals = 1, 0, append(req.Intervals, store())
		out, err := n.respond(1, req)
		if err != nil {
			t.Fatal(err)
		}
		msg.PutBuf(out)
		if err := n.collectPage(0); err != nil {
			t.Fatal(err)
		}
	}})
	for _, tc := range rows {
		tc.cycle() // warm the pools
		if allocs := testing.AllocsPerRun(1000, tc.cycle); allocs != 0 {
			t.Errorf("%s: %v allocs/op, want 0", tc.name, allocs)
		}
	}
	// A GC epoch: dense diffs over two chunks and into a third, their GC
	// drop, then two Go collections, which empty every sync.Pool. The
	// chunks wait on the node's free list, so the next epoch's diffs
	// allocate nothing. The page is left written across the collections,
	// so its twin is out of pageBufs. The collections still cost a few
	// allocations of their own — the twin pool's sync.Pools rebuild their
	// per-P arrays, the runtime runs its post-collection cleanups — so the
	// epoch is held to under one allocation per diff and under a page of
	// bytes: a diff that allocated would cost one or more each, a chunk
	// that allocated 128 KiB.
	const epochs, epochDiffs = 10, 2*diffChunkSize/(memlayout.PageSize+4) + 2
	write(memlayout.PageSize)
	epoch := func() {
		for range epochDiffs {
			closeIv()
			write(memlayout.PageSize)
		}
		if err := n.collectPage(0); err != nil {
			t.Fatal(err)
		}
		runtime.GC()
		runtime.GC()
	}
	epoch()
	var before, after runtime.MemStats
	runtime.ReadMemStats(&before)
	for range epochs {
		epoch()
	}
	runtime.ReadMemStats(&after)
	perDiff := (after.Mallocs - before.Mallocs) / (epochs * epochDiffs)
	perEpoch := (after.TotalAlloc - before.TotalAlloc) / epochs
	t.Logf("diff epoch across Go collections: %d allocs/epoch, %d B/epoch", (after.Mallocs-before.Mallocs)/epochs, perEpoch)
	if perDiff != 0 || perEpoch >= memlayout.PageSize {
		t.Errorf("diff epoch across Go collections: %d allocs per diff and %d B per epoch, want 0 and under %d", perDiff, perEpoch, memlayout.PageSize)
	}
}
