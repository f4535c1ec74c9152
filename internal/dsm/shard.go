package dsm

// Sharded page-state locking and pooled page buffers: the node-local
// concurrency substrate. See doc.go for the full locking model.
//
// Page state is striped across ServiceShards independent RWMutex-guarded
// shards (page p belongs to shard p mod nshards), so operations on pages
// in different shards proceed in parallel and read-only serves (diff
// fetches) share a shard concurrently; a node can serve a DiffRequest
// from one peer while applying diffs for another. Sync-side state that
// is not per-page (interval counters, notice histories, lock-manager
// logs, charge plumbing) lives under separate small mutexes.

import (
	"sync"
	"sync/atomic"

	"actdsm/internal/memlayout"
	"actdsm/internal/msg"
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
	// bytes an encode is still reading.
	diffs map[vm.PageID]map[int32]*diffRef
}

// diffRef is one stored diff with a reference count. The store itself
// holds one reference from creation (closeInterval) until the GC drop
// (serveGCCollect); a serve that aliases the bytes into a reply takes
// another for the duration of the encode. The buffer returns to the
// diff pool only when the last reference drops, so the zero-copy serve
// path can never read recycled bytes — the aliasing-vs-GC race the
// refcount exists to close.
type diffRef struct {
	b    []byte
	refs atomic.Int32
}

// newDiffRef wraps freshly encoded diff bytes with the store's own
// reference.
func newDiffRef(b []byte) *diffRef {
	d := &diffRef{b: b}
	d.refs.Store(1)
	return d
}

// retain takes a reference. Callers must already hold one (transitively:
// the shard lock orders retains against the store's release).
func (d *diffRef) retain() { d.refs.Add(1) }

// release drops a reference, recycling the buffer when it was the last.
func (d *diffRef) release() {
	if d.refs.Add(-1) == 0 {
		putDiffBuf(d.b)
		d.b = nil
	}
}

// retained is the set of diff references a serve pinned while its reply
// aliases their bytes; the transport handler releases it after encoding.
type retained []*diffRef

func (r retained) release() {
	for _, d := range r {
		d.release()
	}
}

// diffBufPool recycles diff buffers of whatever capacity they grew to
// (diffs are variable-length, unlike page images). Entries are *[]byte
// for the same SA6002 reason as pageBufPool.
var diffBufPool sync.Pool

// getDiffBuf returns an empty diff buffer to append into, or nil on a
// pool miss: AppendDiff sizes its one allocation to the diff, so there is
// no useful seed capacity, and stored diffs leave the pool for as long
// as they are stored, so misses are the common case.
func getDiffBuf() []byte {
	if h, ok := diffBufPool.Get().(*[]byte); ok {
		return (*h)[:0]
	}
	return nil
}

// putDiffBuf recycles a diff buffer.
func putDiffBuf(b []byte) {
	if cap(b) == 0 {
		return
	}
	b = b[:0]
	diffBufPool.Put(&b)
}

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

// pageBufPool recycles page-sized buffers for the two hot allocation
// sites that create one per remote page movement: twin creation on the
// first write fault of an interval, and full-page reply images on the
// serve path. Entries are *[]byte so Put does not allocate an interface
// box (staticcheck SA6002); every entry has exactly PageSize usable
// capacity.
var pageBufPool = sync.Pool{New: func() any {
	b := make([]byte, memlayout.PageSize)
	return &b
}}

// getPageBuf returns a page-sized buffer (len == PageSize). Contents are
// arbitrary; callers overwrite it fully.
func getPageBuf() []byte {
	return (*pageBufPool.Get().(*[]byte))[:memlayout.PageSize]
}

// putPageBuf recycles a page-sized buffer. Only a buffer getPageBuf
// returned comes back: a twin, or a served reply's image. Bytes decoded
// from a reply (msg.PageReply.Data on the requesting side) are a view of
// a wire frame that belongs to the msg buffer pool, and putting such a
// view here would hand one backing array to two pools. The capacity
// check only drops nil.
func putPageBuf(b []byte) {
	if cap(b) < memlayout.PageSize {
		return
	}
	b = b[:memlayout.PageSize]
	pageBufPool.Put(&b)
}

// recycleReply returns a served reply's pooled storage. Called by the
// transport handler after the reply has been encoded to the wire: the
// encode copied the image or notices into the reply frame, and that frame
// is all the requester ever sees, so they can back the next serve. Every
// PageReply a serve builds holds a getPageBuf buffer or nil (the
// single-writer forwarders copy the owner's image into one), and every
// LockGrant a notice list the grant filter built (appendUnseen) — diff
// replies alias the immutable stored diffs and must never be recycled.
func recycleReply(m msg.Message) {
	switch r := m.(type) {
	case *msg.PageReply:
		image := r.Data
		r.Data = nil
		putPageBuf(image)
	case *msg.LockGrant:
		msg.PutNotices(r.Notices)
		r.Notices = nil
	}
}

// recycleRequest returns a decoded request's notice list to the pool once
// the handler has served it. Only a LockRelease's list qualifies: its
// serve copies the notices into the manager log and keeps nothing. A
// request served in place (route.call to this node) never passes here —
// its notices are a view of the releaser's known set.
func recycleRequest(m msg.Message) {
	if rel, ok := m.(*msg.LockRelease); ok {
		msg.PutNotices(rel.Notices)
		rel.Notices = nil
	}
}
