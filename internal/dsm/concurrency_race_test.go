package dsm

// Concurrency regression suite for the sharded service path. These tests
// exist to run under the race detector (`make race`, CI's
// `go test -race ./internal/dsm/...`): they drive the request mixes the
// per-shard locking allows to overlap — diff serves, page copies, batch
// fetches, GC collects, lock-manager traffic, and stats snapshots — from
// many goroutines against one node at once, with no synchronization
// beyond what the node itself provides. Any serve path that touches
// shared state outside its shard (or outside the sync/lock-manager
// mutexes) shows up as a race report here long before it corrupts a
// full protocol run.

import (
	"bytes"
	"fmt"
	"sync"
	"sync/atomic"
	"testing"

	"actdsm/internal/memlayout"
	"actdsm/internal/msg"
	"actdsm/internal/pool"
	"actdsm/internal/transport"
	"actdsm/internal/vm"
)

// raceShape is the shared workload shape: small enough that the full mix
// finishes quickly under -race, large enough that goroutines genuinely
// overlap inside the serve paths.
var raceShape = struct{ Nodes, Pages, Peers, Ops int }{Nodes: 4, Pages: 64, Peers: 4, Ops: 600}

// replicaOrigin is the writer whose replica store the seeded cluster
// fills on node 0, its ring standby (the last node of raceShape).
const replicaOrigin = 3

// newSeededCluster builds a raceShape cluster with fault tolerance on and
// seeds both of node 0's diff stores: one stored diff (interval 1) of its
// own for every page, and a copy of one from replicaOrigin in the replica
// store, so DiffRequests naming either writer always hit. GC is disabled
// so the stores survive the run. shards is the per-node page-state shard
// count (see newCluster).
func newSeededCluster(t *testing.T, shards int) *Cluster {
	t.Helper()
	c, err := newCluster(Config{
		Nodes:            raceShape.Nodes,
		Pages:            raceShape.Pages,
		GCThresholdBytes: -1,
		FaultTolerance:   true,
		Chaos:            &transport.ChaosOptions{},
	}, shards)
	if err != nil {
		t.Fatal(err)
	}
	t.Cleanup(func() { _ = c.Close() })
	// One representative diff: a page with a few dirty words.
	twin := make([]byte, memlayout.PageSize)
	cur := make([]byte, memlayout.PageSize)
	for w := 0; w < 16; w++ {
		cur[w*128] = byte(w + 1)
	}
	df := MakeDiff(twin, cur)
	n := c.nodes[0]
	n.replDiffs[replicaOrigin] = make(map[vm.PageID]map[int32][]byte)
	for p := 0; p < raceShape.Pages; p++ {
		sh := n.shard(vm.PageID(p))
		sh.diffs[vm.PageID(p)] = map[int32]storedDiff{1: n.arena.place(df)}
		n.replDiffs[replicaOrigin][vm.PageID(p)] = map[int32][]byte{1: append([]byte(nil), df...)}
	}
	return c
}

// discardReply runs one payload-carrying round trip against node 0 and
// drops the reply unread, recycling its frame as a real requester would
// after applying it.
func discardReply(c *Cluster, from int, m msg.Message) error {
	_, frame, _, err := c.callFrame(from, 0, m)
	if err == nil {
		msg.PutBuf(frame)
	}
	return err
}

// TestSeededClusterServes pins what the hammers below rely on: a diff
// serve returns the seeded interval and nil for an absent one, a page
// serve returns a full page image, and a 1-shard cluster really is one
// stripe while the default one has defaultServiceShards.
func TestSeededClusterServes(t *testing.T) {
	if got := len(newSeededCluster(t, 1).nodes[0].shards); got != 1 {
		t.Fatalf("1-shard cluster: %d shards", got)
	}
	c := newSeededCluster(t, defaultServiceShards)
	if got := len(c.nodes[0].shards); got != defaultServiceShards {
		t.Fatalf("default cluster: %d shards, want %d", got, defaultServiceShards)
	}
	reply, frame, _, err := c.callFrame(1, 0, &msg.DiffRequest{From: 1, Page: 7, Intervals: []int32{1, 2}})
	if err != nil {
		t.Fatal(err)
	}
	dr := reply.(*msg.DiffReply)
	if len(dr.Diffs) != 2 || dr.Diffs[0] == nil || dr.Diffs[1] != nil {
		t.Fatalf("diff serve: want seeded interval 1 only, got %v", dr.Diffs)
	}
	msg.PutBuf(frame)
	// The same body serves another writer's diffs from the replica store.
	reply, frame, _, err = c.callFrame(1, 0, &msg.DiffRequest{From: 1, Page: 7, Writer: replicaOrigin, Intervals: []int32{2, 1}})
	if err != nil {
		t.Fatal(err)
	}
	if dr = reply.(*msg.DiffReply); len(dr.Diffs) != 2 || dr.Diffs[0] != nil || dr.Diffs[1] == nil {
		t.Fatalf("replica serve: want seeded interval 1 only, got %v", dr.Diffs)
	}
	msg.PutBuf(frame)
	// Page raceShape.Nodes is managed by node 0.
	p := vm.PageID(raceShape.Nodes)
	pr, frame, _, err := c.callPage(1, 0, &msg.PageRequest{From: 1, Page: int32(p)}, p, false)
	if err != nil {
		t.Fatal(err)
	}
	if len(pr.Data) != len(c.nodes[0].pageData(p)) {
		t.Fatalf("page serve: got %d bytes", len(pr.Data))
	}
	msg.PutBuf(frame)
}

// TestRaceServiceHammer hammers node 0 from concurrent peers with the
// full read-side service mix — DiffRequest, PageRequest, and
// DiffBatchRequest, the diff kinds naming node 0 itself (its shard store)
// and replicaOrigin (the replica store behind the same serve body) —
// while a GC goroutine concurrently collects a disjoint stripe of pages
// (dropping their stored and replicated diffs), a replication goroutine
// delivers replicaOrigin's deltas for that stripe into the replica store,
// and a stats goroutine snapshots the counters. Runs under the
// sharded default and with every page on a single stripe, where a serve
// that took two shard locks would deadlock against itself.
func TestRaceServiceHammer(t *testing.T) {
	for _, shards := range []int{defaultServiceShards, 1} {
		t.Run(fmt.Sprintf("shards=%d", shards), func(t *testing.T) {
			o := raceShape
			c := newSeededCluster(t, shards)

			var (
				wg   sync.WaitGroup
				stop atomic.Bool
				fail atomic.Pointer[error]
			)
			report := func(err error) {
				if err != nil {
					fail.CompareAndSwap(nil, &err)
					stop.Store(true)
				}
			}

			// Peer hammer goroutines: rotate over the read-side mix.
			// Pages [0, 48) so the GC stripe below stays disjoint; the
			// serve paths themselves tolerate collected pages (nil diff
			// entries), but keeping the ranges apart means every diff
			// request is also checked for a non-nil hit.
			const diffPages = 48
			for w := 0; w < o.Peers; w++ {
				wg.Add(1)
				go func(w int) {
					defer wg.Done()
					from := 1 + w%(o.Nodes-1)
					for i := 0; i < o.Ops && !stop.Load(); i++ {
						p := int32((w*31 + i) % diffPages)
						// Alternate between node 0's own diffs and the
						// ones it keeps as replicaOrigin's standby.
						writer := int32(i / 3 % 2 * replicaOrigin)
						switch i % 3 {
						case 0:
							rep, frame, _, err := c.callFrame(from, 0, &msg.DiffRequest{
								From: int32(from), Page: p, Writer: writer, Intervals: []int32{1}})
							if err == nil {
								if dr := rep.(*msg.DiffReply); dr.Diffs[0] == nil {
									err = fmt.Errorf("page %d: seeded diff missing", p)
								}
								msg.PutBuf(frame)
							}
							report(err)
						case 1:
							// Manager-0 pages only: multiples of Nodes.
							pp := int32(o.Nodes * (i % (diffPages / o.Nodes)))
							report(discardReply(c, from, &msg.PageRequest{
								From: int32(from), Page: pp}))
						default:
							report(discardReply(c, from, &msg.DiffBatchRequest{
								From: int32(from), Writer: writer,
								Pages: []msg.PageIntervals{
									{Page: p, Intervals: []int32{1}},
									{Page: (p + 7) % diffPages, Intervals: []int32{1}},
								}}))
						}
					}
				}(w)
			}

			// GC goroutine: collect the high stripe [48, Pages) on node 0
			// over and over. The first collect drops the seeded diff under
			// the shard write lock; repeats exercise the already-empty
			// path concurrently with the readers above.
			wg.Add(1)
			go func() {
				defer wg.Done()
				for i := 0; i < o.Ops/2 && !stop.Load(); i++ {
					p := int32(diffPages + i%(o.Pages-diffPages))
					_, _, err := c.call(1, 0, &msg.GCCollect{Pages: []int32{p}})
					report(err)
				}
			}()

			// Replication goroutine: replicaOrigin's deltas for the high
			// stripe land in the replica store (under replMu) while the
			// peers read the low stripe out of it and the collects above
			// retire the same pages.
			wg.Add(1)
			go func() {
				defer wg.Done()
				diff := MakeDiff(make([]byte, memlayout.PageSize), bytes.Repeat([]byte{7}, memlayout.PageSize))
				for i := 0; i < o.Ops/2 && !stop.Load(); i++ {
					p := int32(diffPages + i%(o.Pages-diffPages))
					_, _, err := c.call(replicaOrigin, 0, &msg.ReplicaDelta{
						Origin: replicaOrigin, Seq: int32(i + 1), Interval: int32(i + 2),
						Notices: []msg.Notice{{Page: p, Writer: replicaOrigin, Interval: int32(i + 1)}},
						Diffs:   [][]byte{diff},
					})
					report(err)
				}
			}()

			// Stats goroutine: concurrent snapshots exercise every atomic
			// counter the serve paths bump.
			wg.Add(1)
			go func() {
				defer wg.Done()
				for i := 0; i < o.Ops && !stop.Load(); i++ {
					snap := c.Stats().Snapshot()
					for _, cs := range snap.Calls {
						if cs.Count < 0 {
							report(fmt.Errorf("impossible call count for %s", cs.Kind))
						}
					}
				}
			}()

			wg.Wait()
			if ep := fail.Load(); ep != nil {
				t.Fatal(*ep)
			}
		})
	}
}

// TestRaceLockTrafficDuringServes overlays lock-manager traffic on the
// diff-serve hammer: each peer node runs acquire/release cycles on its
// own lock (so mutual exclusion — normally the engine's job — is not
// needed) while every node's serve path is kept busy by diff requests.
// Lock releases close the releaser's interval, so this exercises
// closeInterval's strided shard scan concurrently with remote serves of
// the same node — the cross-concern interleaving the per-concern
// mutexes (mu, lockMgrMu, shard locks) must keep independent.
func TestRaceLockTrafficDuringServes(t *testing.T) {
	o := raceShape
	c := newSeededCluster(t, defaultServiceShards)

	var (
		wg   sync.WaitGroup
		stop atomic.Bool
		fail atomic.Pointer[error]
	)
	report := func(err error) {
		if err != nil {
			fail.CompareAndSwap(nil, &err)
			stop.Store(true)
		}
	}

	// One lock goroutine per node: node i cycles lock i, whose manager is
	// node i%Nodes = i itself for i < Nodes, plus lock i+Nodes managed by
	// the same node — and lock i+1 managed by a different node, forcing
	// remote acquire traffic too.
	for node := 0; node < o.Nodes; node++ {
		wg.Add(1)
		go func(node int) {
			defer wg.Done()
			locks := []int32{int32(node), int32((node+1)%o.Nodes + o.Nodes)}
			for i := 0; i < o.Ops/4 && !stop.Load(); i++ {
				lk := locks[i%len(locks)]
				if _, err := c.AcquireLock(node, 0, lk); err != nil {
					report(err)
					return
				}
				if _, err := c.ReleaseLock(node, 0, lk); err != nil {
					report(err)
					return
				}
			}
		}(node)
	}

	// Diff hammer against every node at once: requester w targets server
	// (w+1)%Nodes, so each node is simultaneously a lock client, a lock
	// manager, and a diff server. Only node 0's diff store is seeded, so
	// check hits only there.
	for w := 0; w < o.Peers; w++ {
		wg.Add(1)
		go func(w int) {
			defer wg.Done()
			to := (w + 1) % o.Nodes
			from := (to + 1) % o.Nodes
			for i := 0; i < o.Ops && !stop.Load(); i++ {
				p := int32((w*17 + i) % o.Pages)
				_, frame, _, err := c.callFrame(from, to, &msg.DiffRequest{
					From: int32(from), Page: p, Writer: int32(to), Intervals: []int32{1}})
				if err == nil {
					msg.PutBuf(frame)
				}
				report(err)
			}
		}(w)
	}

	wg.Wait()
	if ep := fail.Load(); ep != nil {
		t.Fatal(*ep)
	}
}

// writeDense has node 0 overwrite every word of its first pages pages
// with the number of the interval it is in, plus one, and closes that
// interval: each page's stored diff is one run over the whole page that
// names the interval it belongs to in every word. Returns the interval.
func writeDense(t *testing.T, c *Cluster, pages int) int32 {
	t.Helper()
	n := c.nodes[0]
	n.lockSync()
	iv := n.interval
	n.mu.Unlock()
	b := mustSpan(t, c, 0, 0, 0, pages*memlayout.PageSize, vm.Write)
	for w := 0; w < len(b); w += 4 {
		le.PutUint32(b[w:], uint32(iv)+1)
	}
	if closed, _ := n.closeInterval(); len(closed) != pages || closed[0].Interval != iv {
		t.Fatalf("closeInterval: %v, want %d notices of interval %d", closed, pages, iv)
	}
	return iv
}

// checkDense reports whether df is the diff writeDense stored for iv.
func checkDense(df []byte, iv int32) error {
	if len(df) != memlayout.PageSize+4 {
		return fmt.Errorf("interval %d: %d-byte diff, want %d", iv, len(df), memlayout.PageSize+4)
	}
	for w := 4; w < len(df); w += 4 {
		if got := le.Uint32(df[w:]); got != uint32(iv)+1 {
			return fmt.Errorf("interval %d: diff word %d reads %#x, want %#x", iv, w/4-1, got, uint32(iv)+1)
		}
	}
	return nil
}

// TestPinnedDiffOutlivesDrop: a stored diff that a serve still pins when
// the GC drops it keeps its chunk out of the free list until the serve
// lets go — however many intervals close meanwhile, each placing its
// diffs in whatever chunk the free list holds — so the pinned reply
// encodes the bytes it was served with. The release that recycles the
// chunk leaves a count that refuses any later reference by name
// (errDiffRecycled). The chunk's other diffs go either way a store
// loses diffs: later intervals of the same page, each collected before
// the next; or the other pages of the pinned diff's own interval, all in
// one GC collect.
func TestPinnedDiffOutlivesDrop(t *testing.T) {
	perChunk := diffChunkSize / (memlayout.PageSize + 4)
	for _, tc := range []struct {
		name  string
		pages int
		drop  func(t *testing.T, n *node)
	}{
		{"page collects", 1, func(t *testing.T, n *node) {
			for range 2 * perChunk {
				if err := n.collectPage(0); err != nil {
					t.Fatal(err)
				}
				writeDense(t, n.c, 1)
			}
		}},
		{"one GC collect", 2 * perChunk, func(t *testing.T, n *node) {
			all := &msg.GCCollect{}
			for p := range 2 * perChunk {
				all.Pages = append(all.Pages, int32(p))
			}
			for range 3 {
				if _, _, err := n.serve(1, all); err != nil {
					t.Fatal(err)
				}
				writeDense(t, n.c, len(all.Pages))
			}
		}},
	} {
		t.Run(tc.name, func(t *testing.T) {
			c := newTestCluster(t, 2, tc.pages)
			n := c.nodes[0] // page 0's home: a collect drops diffs, never the copy
			iv := writeDense(t, c, tc.pages)
			reply, pinned, err := n.serve(1, &msg.DiffRequest{From: 1, Page: 0, Intervals: []int32{iv}})
			if err != nil {
				t.Fatal(err)
			}
			ref := n.shard(0).diffs[0][iv].c
			tc.drop(t, n)
			if got := ref.refs.Load(); got != 1 {
				t.Fatalf("dropped diff's chunk holds %d references, want the serve's 1", got)
			}
			decoded, err := msg.Decode(msg.Encode(reply))
			if err != nil {
				t.Fatal(err)
			}
			if err := checkDense(decoded.(*msg.DiffReply).Diffs[0], iv); err != nil {
				t.Fatalf("pinned reply, after its chunk's diffs were dropped and the free list reused: %v", err)
			}
			pinned.release()
			if pool.Race && ref.refs.Load() != refsRecycled {
				t.Errorf("recycled chunk counts %d references, want the sentinel %d", ref.refs.Load(), refsRecycled)
			}
			defer func() {
				if r := recover(); r != errDiffRecycled {
					t.Errorf("retain of a recycled chunk: recovered %v, want %v", r, errDiffRecycled)
				}
			}()
			ref.retain()
		})
	}
}

// TestDiffAliasGCHammer is the -race regression for the diff-reply
// aliasing fix, and for the diff pool that makes it matter: readers serve
// DiffRequests through the transport handler's body (serve, encode,
// release, recycle) while the writer keeps closing intervals and
// garbage-collecting them, so every dropped diff goes back to the pool and
// out again as the next interval's — while a reader may still pin it.
// Every diff a reader decodes must name the interval it asked for: bytes
// re-encoded under a pinned reply would name a later one, and a race
// build's poison reads 0xdbdbdbdb.
func TestDiffAliasGCHammer(t *testing.T) {
	c := newTestCluster(t, 2, 1)
	n := c.nodes[0]
	writeDense(t, c, 1)

	stop := make(chan struct{})
	var (
		wg      sync.WaitGroup
		checked atomic.Int64
	)
	for r := 0; r < 4; r++ {
		wg.Add(1)
		go func() {
			defer wg.Done()
			var ivs [8]int32
			for {
				select {
				case <-stop:
					return
				default:
				}
				// The latest eight intervals: some stored, some dropped.
				n.lockSync()
				last := n.interval - 1
				n.mu.Unlock()
				// respond releases the request, as the transport handler's
				// body does after a decode: it takes a fresh one each time.
				req := msg.New[*msg.DiffRequest]()
				req.From = 1
				for i := range ivs {
					ivs[i] = last - int32(i)
					req.Intervals = append(req.Intervals, ivs[i])
				}
				out, err := n.respond(1, req)
				if err != nil {
					t.Error(err)
					return
				}
				reply, err := msg.Decode(out)
				if err == nil {
					for i, df := range reply.(*msg.DiffReply).Diffs {
						if df != nil && err == nil {
							err = checkDense(df, ivs[i])
							checked.Add(1)
						}
					}
					msg.Release(reply)
				}
				msg.PutBuf(out)
				if err != nil {
					t.Error(err)
					return
				}
			}
		}()
	}

	// At least 400 intervals, and on until the readers have checked a few
	// hundred diffs between them, however the goroutines were scheduled.
	for i := 0; i < 400 || checked.Load() < 400; i++ {
		writeDense(t, c, 1)
		if i%4 == 3 {
			if err := n.collectPage(0); err != nil {
				t.Fatal(err)
			}
		}
	}
	close(stop)
	wg.Wait()
}
