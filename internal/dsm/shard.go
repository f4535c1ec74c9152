package dsm

// Sharded page-state locking, the diff store's chunks and the package's
// pools — page buffers and pin lists: the node-local concurrency
// substrate. See doc.go for the full locking model.
//
// Page state is striped across defaultServiceShards independent
// RWMutex-guarded shards (page p belongs to shard p mod nshards), so
// operations on pages in different shards proceed in parallel and
// read-only serves (diff fetches) share a shard concurrently; a node can
// serve a DiffRequest from one peer while applying diffs for another.
// Sync-side state that is not per-page (interval counters, notice
// histories, lock-manager logs, charge plumbing) lives under separate
// small mutexes.

import (
	"errors"
	"math"
	"math/bits"
	"slices"
	"sync"
	"sync/atomic"

	"actdsm/internal/memlayout"
	"actdsm/internal/msg"
	"actdsm/internal/pool"
	"actdsm/internal/vm"
)

// defaultServiceShards is the per-node page-state shard count, so
// independent remote requests (diff fetches, page fetches, notice
// deliveries, prefetch fills) service in parallel. Sixteen shards keep
// the page-to-shard mapping a single AND while comfortably exceeding the
// request parallelism a node sees from its peers in the paper's 8-node
// configurations.
const defaultServiceShards = 16

// pageShard guards a stripe of a node's per-page protocol state: for
// every page p with p mod nshards == this shard's index, the shard's
// lock covers pages[p] (copy/twin/pending/diffs/appliedVT/prefetched),
// the page's protection entry in the address space and the page's window
// of the data segment. Write-sections open with lockShard and close with
// unlockShard, never with a bare mu.Unlock.
//
// Reads that do not mutate (diff serves, pending snapshots, coherence
// checks) take the read side, so concurrent diff fetches from many peers
// proceed in parallel even within one shard, at any shard count.
type pageShard struct {
	mu sync.RWMutex
	// notices and diffs are the blocks the shard's pending queues and
	// own-diff runs grow into.
	notices blockPool[msg.Notice]
	diffs   blockPool[storedDiff]
}

const (
	// blockClasses are the carved block sizes: 4, 8, 16, 32 and 64.
	blockClasses = 5
	// carvedPerList is what one list carves growing through every class.
	carvedPerList = 4 + 8 + 16 + 32 + 64
	// maxSlab caps a slab's entries.
	maxSlab = 1024
	// freeDepth is how many outgrown blocks each class keeps for reuse.
	freeDepth = 8
)

// blockPool is where a shard's growing lists of one element type live. A
// list that fills its block moves to one twice its size (grow). Blocks of
// 4 to 64 entries are carved from a slab, each capped where the next
// begins, so a list never grows into a neighbour's; larger ones are made
// alone. The block a list outgrew is cleared, so a run's block pins no
// diff chunk, and kept on its size class's free list (up to freeDepth
// blocks) for the next list that grows into that size; a block the list
// has no room for stays in its slab until the whole slab is unreachable.
// The free lists are arrays, so giving a block back never allocates.
// Requires the shard write lock.
type blockPool[T any] struct {
	// slab is the entries of one slab: carvedPerList for each page of
	// the shard, at most maxSlab, so a shard of few pages carves no
	// slab it cannot fill (slabEntries).
	slab  int
	tail  []T // what is left of the current slab
	free  [blockClasses][freeDepth][]T
	nfree [blockClasses]uint8
}

// slabEntries is a pool's slab length for a node of npages pages over
// nshards shards.
func slabEntries(npages, nshards int) int {
	return min(maxSlab, carvedPerList*((npages+nshards-1)/nshards))
}

// grow returns s's entries in a block of twice s's capacity, at least 4,
// and gives s's block back, cleared. Race builds fill it with poison, so
// a stale view reads an impossible entry.
func (p *blockPool[T]) grow(s []T, poison T) []T {
	b := append(p.block(max(2*cap(s), 4)), s...)
	if c, ok := blockClass(cap(s)); ok {
		s = s[:cap(s)]
		clear(s)
		pool.Poison(s, poison)
		if k := p.nfree[c]; k < freeDepth {
			p.free[c][k] = s[:0]
			p.nfree[c] = k + 1
		}
	}
	return b
}

// block returns an empty block of n entries: from n's free list if it
// holds one, else carved from the slab, or made alone past 64 entries.
func (p *blockPool[T]) block(n int) []T {
	c, ok := blockClass(n)
	if !ok {
		return make([]T, 0, n)
	}
	if k := p.nfree[c]; k > 0 {
		p.nfree[c] = k - 1
		return p.free[c][k-1]
	}
	if len(p.tail) < n {
		p.tail = make([]T, p.slab)
	}
	b := p.tail[:0:n]
	p.tail = p.tail[n:]
	return b
}

// blockClass maps a carved block size to its free list: 4 is class 0, 64
// class 4. Any other size is not the pool's.
func blockClass(n int) (int, bool) {
	if n < 4 || n > 64 || n&(n-1) != 0 {
		return 0, false
	}
	return bits.TrailingZeros(uint(n)) - 2, true
}

// storedDiff is one diff in a node's store: its interval, its chunk, which
// counts the reference, and its window there. It is kept to three words
// because a page's own-diff run holds one per stored diff and pays its
// size at every growth.
type storedDiff struct {
	c      *chunk
	iv     int32
	off, n uint32
}

// bytes returns the diff, or nil for the zero storedDiff (none held).
func (d storedDiff) bytes() []byte {
	if d.c == nil {
		return nil
	}
	return d.c.mem[d.off : d.off+d.n : d.off+d.n]
}

// diffChunkSize is the size of a diff store chunk: 31 dense diffs.
const diffChunkSize = 128 << 10

// chunk is the unit the diff store allocates and recycles. It counts a
// reference per diff placed in it, from closeInterval to the GC drop
// (collectPage) or the rejoin wipe; per pin a serve takes on one of them
// until the encode (readDiffs); and while it is its arena's open chunk.
// Only the last release recycles it, so no reply reads a later diff.
type chunk struct {
	refs  atomic.Int32
	arena *diffArena
	used  int // bytes placed so far (guarded by arena.mu)
	mem   *[diffChunkSize]byte
}

// diffArena is a node's diff store memory: the open chunk and the chunks
// GC rounds handed back. A round drops every diff, so after the first
// epoch the free list holds every chunk a diff needs. It is the node's,
// not a sync.Pool, which the Go collector empties every second cycle.
type diffArena struct {
	mu   sync.Mutex
	open *chunk
	free []*chunk
}

// place copies interval iv's diff into the open chunk, or when it does not
// fit into the next, from the free list if it can, and returns it holding a
// reference.
func (a *diffArena) place(iv int32, diff []byte) storedDiff {
	a.mu.Lock()
	c, full := a.open, (*chunk)(nil)
	if c == nil || diffChunkSize-c.used < len(diff) {
		full = c
		if k := len(a.free) - 1; k >= 0 {
			c, a.free[k], a.free = a.free[k], nil, a.free[:k]
		} else {
			c = &chunk{arena: a, mem: new([diffChunkSize]byte)}
		}
		c.refs.Store(1) // the arena's hold
		a.open = c
	}
	d := storedDiff{c, iv, uint32(c.used), uint32(len(diff))}
	c.used += copy(c.mem[c.used:], diff)
	c.refs.Add(1)
	a.mu.Unlock()
	if full != nil {
		full.release()
	}
	return d
}

// refsRecycled is the count a race build leaves on a chunk it takes back:
// a retain or release through a stale diff then lands far below zero and
// panics with errDiffRecycled, however many of them follow.
const refsRecycled = math.MinInt32 / 2

// errDiffRecycled reports a retain or release of a stored diff whose
// chunk was already recycled.
var errDiffRecycled = errors.New("dsm: reference to a recycled stored diff")

// poisonStored is what a race build fills a run block it gives back with:
// a diff of interval -9253 in a recycled chunk of 0xDB bytes, so a stale
// run's drop or serve panics with errDiffRecycled and its bytes read as
// a malformed diff. Other builds clear the block instead.
var poisonStored = func() storedDiff {
	if !pool.Race {
		return storedDiff{}
	}
	c := &chunk{mem: new([diffChunkSize]byte)}
	pool.Poison(c.mem[:], pool.PoisonByte)
	c.refs.Store(refsRecycled)
	return storedDiff{c: c, iv: msg.PoisonNotice.Interval, n: 4}
}()

// retain takes a reference. Callers must already hold one (transitively:
// the shard lock orders retains against the store's release).
func (c *chunk) retain() {
	if c.refs.Add(1) < 2 {
		panic(errDiffRecycled)
	}
}

// release drops a reference, returning the chunk to its arena's free list
// when it was the last. Race builds fill it with 0xDB first.
func (c *chunk) release() {
	switch n := c.refs.Add(-1); {
	case n > 0:
	case n == 0:
		if pool.Race {
			pool.Poison(c.mem[:], pool.PoisonByte)
			c.refs.Store(refsRecycled)
		}
		a := c.arena
		a.mu.Lock()
		c.used = 0
		a.free = append(a.free, c)
		a.mu.Unlock()
	default:
		panic(errDiffRecycled)
	}
}

// retained is the set of chunk references a serve pinned while its reply
// aliases their diffs. The list comes from pins (readDiffs appends to it);
// release drops the references and returns the list — the transport
// handler after the encode, a lease after the apply.
type retained []*chunk

func (r retained) release() {
	for _, c := range r {
		c.release()
	}
	clear(r)
	pins.Put(r)
}

// pins recycles the pin lists of diff serves.
var pins pool.Slices[*chunk]

// shard maps a page to its shard. The shard count is a power of two, so
// this is a single mask.
func (n *node) shard(p vm.PageID) *pageShard {
	return &n.shards[uint32(p)&n.shardMask]
}

// lockShard write-locks page p's shard, counting contention: a failed
// TryLock means another request held the shard, which is exactly the
// serialization the sharding exists to shrink. The counter feeds
// Stats.ShardContention (surfaced by the obs metrics endpoint) so a
// deployment can see whether the shard count is sized right.
func (n *node) lockShard(p vm.PageID) *pageShard {
	sh := n.shard(p)
	if !sh.mu.TryLock() {
		n.c.stats.ShardContention.Add(1)
		sh.mu.Lock()
	}
	return sh
}

// unlockShard ends a write-section opened with lockShard: it bumps the
// node's mutation generation, then releases the lock. Every write-section
// ends here, engine-side ones included, so that "mutated under a shard
// write lock" always implies "published to Cluster.Span's unlocked
// checks" (see node.gen).
func (n *node) unlockShard(sh *pageShard) {
	n.gen.Add(1)
	sh.mu.Unlock()
}

// rlockShard read-locks page p's shard, counting contention (a failed
// TryRLock means a writer held or was waiting on the shard). Release
// with sh.mu.RUnlock().
func (n *node) rlockShard(p vm.PageID) *pageShard {
	sh := n.shard(p)
	if !sh.mu.TryRLock() {
		n.c.stats.ShardContention.Add(1)
		sh.mu.RLock()
	}
	return sh
}

// lockSync locks the node's sync-state mutex (interval counters, notice
// histories, prefetch windows), counting contention into
// Stats.SyncContention.
func (n *node) lockSync() {
	if !n.mu.TryLock() {
		n.c.stats.SyncContention.Add(1)
		n.mu.Lock()
	}
}

// pageBufs recycles page-sized buffers for the two hot allocation sites
// that create one per remote page movement: twin creation on the first
// write fault of an interval, and full-page reply images on the serve
// path. Every entry has at least PageSize capacity. Race builds fill a
// recycled twin or image with 0xDB, as msg.PutBuf does a wire frame.
var pageBufs = pool.Slices[byte]{Poison: pool.PoisonByte}

// getPageBuf returns a page-sized buffer (len == PageSize). Contents are
// arbitrary; callers overwrite it fully.
func getPageBuf() []byte {
	if b := pageBufs.Get(); b != nil {
		return b[:memlayout.PageSize]
	}
	return make([]byte, memlayout.PageSize)
}

// putPageBuf recycles a page-sized buffer. Only a buffer getPageBuf
// returned comes back: a twin, or a served reply's image. Bytes decoded
// from a reply (msg.PageReply.Data on the requesting side) are a view of
// a wire frame that belongs to the msg buffer pool, and putting such a
// view here would hand one backing array to two pools. The capacity
// check only drops nil.
func putPageBuf(b []byte) {
	if cap(b) >= memlayout.PageSize {
		pageBufs.Put(b)
	}
}

// zeroed returns s resized to n zero elements, reusing its capacity.
func zeroed[T any](s []T, n int) []T {
	s = slices.Grow(s[:0], n)[:n]
	clear(s)
	return s
}

// recycle returns a message the transport handler is done with
// (node.respond): a decoded request, and the reply served for it once the
// reply has been encoded to the wire. A served PageReply's image is a
// getPageBuf buffer or nil (the single-writer forwarders copy the owner's
// image into one) and goes back to pageBufs; the message itself goes to
// msg.Release, which keeps no byte view. A served diff reply's entries
// alias stored diffs, which the serve's pins own.
func recycle(m msg.Message) {
	if pr, ok := m.(*msg.PageReply); ok {
		putPageBuf(pr.Data)
	}
	msg.Release(m)
}
