package dsm

// Sharded page-state locking and the package's pools — page buffers,
// stored diffs, pin lists and diff replies: the node-local concurrency
// substrate. See doc.go for the full locking model.
//
// Page state is striped across ServiceShards independent RWMutex-guarded
// shards (page p belongs to shard p mod nshards), so operations on pages
// in different shards proceed in parallel and read-only serves (diff
// fetches) share a shard concurrently; a node can serve a DiffRequest
// from one peer while applying diffs for another. Sync-side state that
// is not per-page (interval counters, notice histories, lock-manager
// logs, charge plumbing) lives under separate small mutexes.

import (
	"errors"
	"math"
	"slices"
	"sync"
	"sync/atomic"

	"actdsm/internal/memlayout"
	"actdsm/internal/msg"
	"actdsm/internal/pool"
	"actdsm/internal/vm"
)

// defaultServiceShards is the per-node shard count when
// Config.ServiceShards is 0. Sixteen shards keep the page-to-shard
// mapping a single AND while comfortably exceeding the request
// parallelism a node sees from its peers in the paper's 8-node
// configurations.
const defaultServiceShards = 16

// normalizeShards rounds a configured shard count to a usable one: 0
// selects the default and any other positive value rounds up to the next
// power of two (so shard selection is a mask, not a modulo). 1 puts
// every page on one stripe, which is how the -race hammers make any path
// that takes two shard locks deadlock against itself.
func normalizeShards(v int) int {
	if v == 0 {
		v = defaultServiceShards
	}
	n := 1
	for n < v {
		n <<= 1
	}
	return n
}

// pageShard guards a stripe of a node's per-page protocol state: for
// every page p with p mod nshards == this shard's index, the shard's
// lock covers pages[p] (copy/twin/pending/appliedVT/prefetched), the
// page's protection entry in the address space, the page's window of the
// data segment, and the page's stored diffs. Write-sections open with
// lockShard and close with unlockShard, never with a bare mu.Unlock.
//
// Reads that do not mutate (diff serves, pending snapshots, coherence
// checks) take the read side, so concurrent diff fetches from many peers
// proceed in parallel even within one shard, at any shard count.
type pageShard struct {
	mu sync.RWMutex
	// diffs stores the node's own diffs for this shard's pages:
	// page → interval → refcounted diff. Stored diff bytes are
	// immutable while referenced; replies alias them under a retained
	// reference (see diffRef) so a concurrent GC drop cannot recycle
	// bytes an encode is still reading. A page's interval map outlives
	// the GC drop — collectPage clears it and the next diff refills it —
	// so a page with nothing stored may still have an empty map.
	diffs map[vm.PageID]map[int32]*diffRef
}

// diffRef is one stored diff with a reference count, and the unit the
// store recycles: the object goes back to diffPool whole, with the buffer
// its diff was encoded into. The store holds one reference from creation
// (closeInterval) until the GC drop (collectPage); a serve that aliases
// the bytes into a reply takes another until the reply has been encoded
// (readDiffs). Only the last release recycles, so a reply can never read
// bytes that a later diff was encoded into — the aliasing-vs-GC race the
// refcount exists to close.
type diffRef struct {
	b    []byte
	refs atomic.Int32
}

// diffPool recycles whole stored diffs. A GC round returns a node's diffs
// in bulk and the intervals after it store as many again, so in steady
// state a diff costs an allocation only when it outgrows the buffer it
// inherits.
var diffPool = sync.Pool{New: func() any { return new(diffRef) }}

// getDiffRef returns an empty diff holding the store's reference:
// closeInterval appends the encoding to d.b, and releases d at once when
// the interval turns out to have written nothing.
func getDiffRef() *diffRef {
	d := diffPool.Get().(*diffRef)
	d.b = d.b[:0]
	d.refs.Store(1)
	return d
}

// refsRecycled is the count a race build leaves on a diffRef it pools: a
// retain or release through a stale pointer then lands far below zero and
// panics with errDiffRecycled, however many of them follow.
const refsRecycled = math.MinInt32 / 2

// errDiffRecycled reports a retain or release of a stored diff whose last
// reference was already dropped.
var errDiffRecycled = errors.New("dsm: reference to a recycled stored diff")

// retain takes a reference. Callers must already hold one (transitively:
// the shard lock orders retains against the store's release).
func (d *diffRef) retain() {
	if d.refs.Add(1) < 2 {
		panic(errDiffRecycled)
	}
}

// release drops a reference, recycling the diff when it was the last.
func (d *diffRef) release() {
	switch n := d.refs.Add(-1); {
	case n > 0:
	case n == 0:
		if pool.Race {
			pool.Poison(d.b, pool.PoisonByte)
			d.refs.Store(refsRecycled)
		}
		diffPool.Put(d)
	default:
		panic(errDiffRecycled)
	}
}

// retained is the set of diff references a serve pinned while its reply
// aliases their bytes. The list comes from pins (readDiffs appends to
// it); release drops the references and returns the list — the transport
// handler after the encode, a lease after the apply.
type retained []*diffRef

func (r retained) release() {
	for _, d := range r {
		d.release()
	}
	clear(r)
	pins.Put(r)
}

// pins recycles the pin lists of diff serves.
var pins pool.Slices[*diffRef]

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

// diffReplies and batchReplies recycle the replies diff serves build,
// with their Diffs and Pages lists (recycle).
var (
	diffReplies  = sync.Pool{New: func() any { return new(msg.DiffReply) }}
	batchReplies = sync.Pool{New: func() any { return new(msg.DiffBatchReply) }}
)

// zeroed returns s resized to n zero elements, reusing its capacity.
func zeroed[T any](s []T, n int) []T {
	s = slices.Grow(s[:0], n)[:n]
	clear(s)
	return s
}

// recycle returns the pooled storage of a message the transport handler
// is done with (node.respond): a decoded request and the reply served for
// it, once the reply has been encoded to the wire. Request and reply kinds
// are disjoint, so one switch serves both.
//   - A decoded LockRelease's notice list: its serve copied the notices
//     into the manager log and kept nothing.
//   - A served PageReply's image: a getPageBuf buffer or nil (the
//     single-writer forwarders copy the owner's image into one).
//   - A served LockGrant's notice list, built by the grant filter
//     (appendUnseen).
//   - A served DiffReply or DiffBatchReply, from diffReplies or
//     batchReplies. Its entries alias stored diffs, which the serve's pins
//     own: they are cleared here, never recycled.
//
// The encode copied every reply's contents into the reply frame, and that
// frame is all the requester ever sees. A message served in place
// (route.call to this node) never passes here: its request's notices are
// a view of the releaser's known set, and its reply becomes garbage.
func recycle(m msg.Message) {
	switch r := m.(type) {
	case *msg.LockRelease:
		msg.PutNotices(r.Notices)
		r.Notices = nil
	case *msg.PageReply:
		image := r.Data
		r.Data = nil
		putPageBuf(image)
	case *msg.LockGrant:
		msg.PutNotices(r.Notices)
		r.Notices = nil
	case *msg.DiffReply:
		clear(r.Diffs)
		diffReplies.Put(r)
	case *msg.DiffBatchReply:
		for i := range r.Pages {
			clear(r.Pages[i].Diffs)
		}
		batchReplies.Put(r)
	}
}
