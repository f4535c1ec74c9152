package dsm

import (
	"cmp"
	"fmt"
	"slices"
	"sync"
	"sync/atomic"

	"actdsm/internal/memlayout"
	"actdsm/internal/msg"
	"actdsm/internal/sim"
	"actdsm/internal/vm"
)

// pageState is one node's view of one shared page. Guarded by the page's
// shard lock (see shard.go).
type pageState struct {
	// hasCopy is true when the node holds page data (possibly stale —
	// staleness is recorded in pending).
	hasCopy bool
	// dirty is true when the node has written the page in the current
	// interval; twin holds the pre-write image.
	dirty bool
	twin  []byte
	// pending lists write notices received but not yet applied, in
	// causalOrder — the order their diffs apply in. queue is the only
	// insert; every other write keeps a subsequence or empties it, so the
	// order holds and a snapshot of pending needs no sort. The page is
	// invalid while it is non-empty. Its blocks come from the page's shard
	// (pageShard.notices); every reset truncates it in place.
	pending []msg.Notice
	// diffs holds the node's own stored diffs of the page, in interval order:
	// closeInterval appends (addDiff; a node closes its intervals in
	// ascending order), ownDiff binary-searches, and a GC drop or rejoin
	// wipe releases and truncates it (dropDiffs), keeping the array. Its
	// blocks come from the page's shard (pageShard.diffs) up to 64 diffs.
	diffs []storedDiff
	// prefetched is true when the page was brought current by a prefetch
	// round and has not been touched (hit) or re-invalidated (wasted)
	// since. Pure accounting: it never affects protocol decisions.
	prefetched bool
	// appliedVT[w] is the highest interval of writer w whose diff has
	// been applied to (or is reflected in) the local copy: the page's
	// window of one node-wide pages × nodes table (newNode).
	appliedVT []int32
}

// staleOrDup reports whether a notice is already reflected locally or
// already queued and, when it is not stale, where it goes in pending. Two
// copies of one notice compare equal under causalOrder: the Lamport stamp
// is set once, when the writer closes the interval.
func (st *pageState) staleOrDup(nt msg.Notice) (at int, skip bool) {
	if nt.Interval <= st.appliedVT[nt.Writer] {
		return 0, true
	}
	return slices.BinarySearchFunc(st.pending, nt, causalOrder)
}

// queue inserts a write notice into pending at its causal position and
// reports whether it did; a stale or duplicate notice is skipped. A full
// pending set first moves to a block twice its size from the page's shard.
func (st *pageState) queue(nt msg.Notice, sh *pageShard) bool {
	at, skip := st.staleOrDup(nt)
	if skip {
		return false
	}
	if len(st.pending) == cap(st.pending) {
		st.pending = sh.notices.grow(st.pending, msg.PoisonNotice)
	}
	st.pending = slices.Insert(st.pending, at, nt)
	return true
}

// addDiff appends a stored diff of the page's newest interval to its run.
// A full run first moves to a block twice its size from the page's shard.
func (st *pageState) addDiff(d storedDiff, sh *pageShard) {
	if len(st.diffs) == cap(st.diffs) {
		st.diffs = sh.diffs.grow(st.diffs, poisonStored)
	}
	st.diffs = append(st.diffs, d)
}

// ownDiff returns the page's stored diff of interval iv, or the zero
// storedDiff when none is held.
func (st *pageState) ownDiff(iv int32) storedDiff {
	if i, ok := slices.BinarySearchFunc(st.diffs, iv, func(d storedDiff, iv int32) int { return cmp.Compare(d.iv, iv) }); ok {
		return st.diffs[i]
	}
	return storedDiff{}
}

// dropDiffs releases every diff of the page's run and truncates it,
// returning the bytes it held. Requires the shard write lock.
func (st *pageState) dropDiffs() (dropped int64) {
	for _, d := range st.diffs {
		dropped += int64(d.n)
		d.c.release()
	}
	st.diffs = st.diffs[:0]
	return dropped
}

func (st *pageState) noteApplied(writer, interval int32) {
	if interval > st.appliedVT[writer] {
		st.appliedVT[writer] = interval
	}
}

// mgrLog is a lock manager's record of the locks it manages since the
// last barrier: who released each lock last and at which Lamport clock.
// The manager ships no notices. A grant names the lock's last releaser
// (its holder), and the acquirer pulls the lock's causal history from
// that node (serveLockPull).
type mgrLog struct {
	// lockLam[lock] is the Lamport clock of the lock's last release.
	lockLam map[int32]int32
	// holder[lock] is the node that last released the lock.
	holder map[int32]int32
}

func newMgrLog() *mgrLog {
	return &mgrLog{
		lockLam: make(map[int32]int32),
		holder:  make(map[int32]int32),
	}
}

// noticeSet holds the (writer, interval) pairs a notice list — a node's
// known history, a barrier fold — has taken since the last barrier. The
// zero value is empty; clear keeps its storage for reuse.
type noticeSet struct{ m map[uint64]struct{} }

// add appends to dst the notices of ns whose interval s has not taken. An
// interval's notices travel together, in the ascending page order
// closeInterval emits, so add decides once per run: a run starts where the
// writer or the interval changes or the page does not ascend (a second
// copy of the interval), and is taken or skipped whole.
func (s *noticeSet) add(dst, ns []msg.Notice) []msg.Notice {
	for i, j := 0, 1; i < len(ns); i, j = j, j+1 {
		for j < len(ns) && ns[j].Writer == ns[i].Writer && ns[j].Interval == ns[i].Interval && ns[j].Page > ns[j-1].Page {
			j++
		}
		k := uint64(uint32(ns[i].Writer))<<32 | uint64(uint32(ns[i].Interval))
		if _, ok := s.m[k]; !ok {
			if s.m == nil {
				s.m = make(map[uint64]struct{})
			}
			s.m[k] = struct{}{}
			dst = append(dst, ns[i:j]...)
		}
	}
	return dst
}

func (s *noticeSet) clear() { clear(s.m) }

// reset empties the record at a barrier, keeping the maps' storage.
func (ml *mgrLog) reset() {
	clear(ml.lockLam)
	clear(ml.holder)
}

// node is one DSM node: a private copy of the shared segment plus the
// protocol state that keeps it consistent.
//
// Locking discipline (per-concern, see doc.go for the full model):
//
//   - Per-page protocol state — the pages entries, the page's protection,
//     its segment window, and its stored diffs — is guarded by the page's
//     shard lock (shards/shardMask, shard.go). Independent requests on
//     pages in different shards service in parallel; read-only serves
//     share a shard's read lock.
//   - mu guards the synchronization-side state: interval counter, seen
//     vector, the known notice history with its release marks and pull
//     positions, and the prefetch windows (faultWin, late, pushedEpoch,
//     pushCost). Helper methods with a Locked suffix require it held.
//   - lockMgrMu guards the lock-manager records and standby mirrors (locks).
//   - swMu guards the single-writer ownership table (sw).
//   - lamport, diffBytes, gen and prefetchedLive are atomics: folded and
//     read lock-free.
//   - spanCharge and the fault scratch (faultPending, faultDiffs) have
//     no lock: only the goroutine inside Cluster.Span touches them (see
//     doc.go, "The engine-side access path" and "Lean misses").
//
// Cluster.Span takes none of these on a warm access: it reads what a
// shard write-section mutates after one Load of gen, which every such
// section (and the page serve's copy) bumps in unlockShard (doc.go, "The
// engine-side access path").
//
// Lock order: mu and the leaf mutexes are never held across a shard
// lock acquisition or a transport call, and no operation holds two shard
// locks at once, so the scheme is deadlock-free by construction.
type node struct {
	id int
	c  *Cluster

	// Immutable after newNode.
	seg   []byte
	as    *vm.AddressSpace
	pages []pageState
	// shards stripe the per-page state; page p belongs to
	// shards[p & shardMask].
	shards    []pageShard
	shardMask uint32
	// prefetchOn is true when Config.PrefetchBudget enabled the fault
	// window; it gates the fault path's prefetch accounting so the
	// common no-prefetch configuration never touches mu on a fault.
	prefetchOn bool

	// homes[p] is the page's current home node. Initialized to the
	// static round-robin placement; rewritten only by explicit home
	// moves riding barrier releases. Atomic because demand serves
	// read it while a barrier-release server goroutine updates it.
	homes []atomic.Int32

	// diffBytes tracks the node's stored diff volume (the GC trigger).
	diffBytes atomic.Int64
	arena     diffArena // the chunks the stored diffs are placed in
	// lamport is the node's Lamport clock: incremented when an interval
	// closes, max-folded when a stamped message arrives.
	lamport atomic.Int32
	// gen is the node's mutation generation: every shard write-section
	// bumps it before unlocking (unlockShard), and Cluster.Span loads it
	// once before its unlocked protection checks. The pair is the
	// happens-before edge between a completed write-section and the
	// span, at O(1) per span whatever the number of pages.
	gen atomic.Uint64
	// prefetchedLive counts the pages whose prefetched flag is set
	// (markPrefetched keeps it in step). Span settles prefetch hits —
	// the only per-page locking left on its path — only while it is
	// non-zero, which without prefetch is never.
	prefetchedLive atomic.Int32
	// spanCharge accumulates the virtual-time charges of the engine-side
	// access in progress: Cluster.Span zeroes it, the fault path adds to
	// it, Span returns it. Owned by the goroutine inside Span.
	spanCharge sim.ThreadInterval
	// closeDirty and closeNotices are closeInterval's lists, kept between
	// closes, which run one at a time (doc.go, "Lean misses").
	closeDirty   []vm.PageID
	closeNotices []msg.Notice
	// faultPending and faultDiffs are the fault path's pending snapshot
	// and diff table, kept between misses. Owned like spanCharge by the
	// goroutine inside Span; fetchAndApplyDiffs clears the table on every
	// return, so it keeps no view into a released reply frame.
	faultPending []msg.Notice
	faultDiffs   [][]byte

	// mu guards the synchronization-side state below (never held across
	// a shard lock or a transport call).
	mu       sync.Mutex
	interval int32 // index the next closed interval will get (starts at 1)
	// seen[w] is the contiguous prefix of w's intervals whose notices
	// this node is guaranteed to have received (advanced at barriers).
	// A published vector is never modified: a release that advances it
	// copies it into seenAlt, the vector before last, and installs that,
	// so a snapshot taken under mu (every lock pull sends one) stays
	// valid without it, as no acquire runs across a release (doc.go).
	seen, seenAlt []int32
	// known accumulates every notice this node has created (in close
	// order, which the barrier enter ships) or received since the last
	// barrier, deduplicated by knownHave. A pull is served a prefix of
	// the whole list, not only the lock's own notices, so that it carries
	// *transitive* causal history: if this node's writes happened after
	// it observed another node's interval, any pull that delivers our
	// notices also delivers that interval's. Without this, a third node
	// can receive causally-ordered diffs out of order and apply an older
	// value over a newer one (lost update). It only grows between
	// barriers, which truncate it in place (a rejoin drops it), so no
	// view of it outlives its call: a closed interval is replicated and
	// probed before its close returns, a pull filters under mu
	// (serveLockPull), a standby copies a delta's Known (serveReplicaDelta).
	known     []msg.Notice
	knownHave noticeSet
	// lockMark[lock] is the length of known when this node last released
	// the lock: a later LockPull for the lock is served at most that
	// prefix, so notices created after the release never leak into an
	// older hand-off. Reset at barriers.
	lockMark map[int32]int
	// pullPos[h] is the prefix of holder h's known that this node has
	// received and applied through pulls h served itself. It advances
	// only after a pull's notices are applied and is echoed in the next
	// pull from h, keeping hand-offs incremental yet retry-safe. It is
	// valid for the membership view pullView it was confirmed under: a
	// holder that crashed and rejoined restarted its known, so a view
	// change clears every position. Reset, like known, at barriers and
	// at a rejoin.
	pullPos  []int32
	pullView int64
	// faultWin records the pages that missed remotely — or hit a
	// prefetched copy — since the last prefetch round. It is the
	// fallback predictor when no tracker-driven predictor is installed:
	// the pages a node's threads needed last epoch approximate the pages
	// they will need next epoch. Nil unless prefetch is enabled.
	faultWin *vm.Bitmap
	// late marks pages the predictor selected last round but the budget
	// excluded; a demand miss on one counts as PrefetchLate.
	late map[vm.PageID]bool
	// pushedEpoch counts pages brought current by barrier-piggybacked
	// push in the current epoch; the pull prefetch round charges them
	// against the budget and resets the count.
	pushedEpoch int
	// pushCost accumulates the virtual-time cost of applying pushed
	// diffs; Cluster.Barrier drains it into the node's episode cost.
	pushCost sim.Time

	// lockMgrMu guards locks, the lock-manager records by primary manager:
	// locks[id] is the record of the locks this node manages, and under
	// fault tolerance locks[p] for another p is the mirror this node keeps
	// as p's standby (created by the first release copied to it).
	lockMgrMu sync.Mutex
	locks     []*mgrLog

	// replMu guards the receiver side of the fault-tolerance replica
	// store (Config.FaultTolerance): state replicated here by ring
	// predecessors via ReplicaDelta and shadow releases, served back
	// out when the origin is dead. The sender-side marks (replSent,
	// replSeq) live under mu with the known history they track.
	replMu sync.Mutex
	// replKnown[origin] is the origin's replicated causal history for
	// the current epoch (its known set, shipped incrementally).
	replKnown map[int][]msg.Notice
	// replLockMark[origin][lock] is the length of replKnown[origin] at
	// the origin's last release of the lock — the mirror of the
	// origin's own lockMark, recorded when its shadow release arrives.
	replLockMark map[int]map[int32]int
	// replDiffs[origin][page][interval] holds copies of the origin's
	// stored diffs (outside diffBytes: replicas never trigger GC).
	replDiffs map[int]map[vm.PageID]map[int32][]byte
	// replState[origin] is the origin's replicated interval counter,
	// Lamport clock, and delta-sequence high-water mark.
	replState map[int]replMeta
	// replSent is the prefix of known already shipped in replica deltas
	// (guarded by mu); replSeq numbers the deltas for receiver dedup.
	replSent int
	replSeq  int32

	// swMu guards sw, the manager-side single-writer ownership state
	// (nil under the multi-writer protocol).
	swMu sync.Mutex
	sw   []swState
}

func newNode(id int, c *Cluster, npages int) *node {
	n := &node{
		id:        id,
		c:         c,
		seg:       make([]byte, npages*memlayout.PageSize),
		pages:     make([]pageState, npages),
		shards:    make([]pageShard, c.shardCount),
		shardMask: uint32(c.shardCount - 1),
		seen:      make([]int32, c.cfg.Nodes),
		locks:     make([]*mgrLog, c.cfg.Nodes),
		lockMark:  make(map[int32]int),
		pullPos:   make([]int32, c.cfg.Nodes),
		homes:     make([]atomic.Int32, npages),
	}
	n.locks[id] = newMgrLog()
	n.as = vm.NewAddressSpace(npages, n.resolveFault)
	n.interval = 1
	if c.cfg.PrefetchBudget != 0 {
		n.prefetchOn = true
		n.faultWin = vm.NewBitmap(npages)
		n.late = make(map[vm.PageID]bool)
	}
	if c.cfg.Protocol == SingleWriter {
		n.initSingleWriter()
	}
	if c.cfg.FaultTolerance {
		n.replKnown = make(map[int][]msg.Notice)
		n.replLockMark = make(map[int]map[int32]int)
		n.replDiffs = make(map[int]map[vm.PageID]map[int32][]byte)
		n.replState = make(map[int]replMeta)
	}
	slab := slabEntries(npages, c.shardCount)
	for s := range n.shards {
		n.shards[s].notices.slab, n.shards[s].diffs.slab = slab, slab
	}
	nodes := c.cfg.Nodes
	vt := make([]int32, npages*nodes)
	for p := range n.pages {
		n.pages[p].appliedVT = vt[p*nodes : (p+1)*nodes : (p+1)*nodes]
		n.homes[p].Store(int32(c.staticHome(vm.PageID(p))))
		home := c.staticHome(vm.PageID(p))
		if home == id {
			n.pages[p].hasCopy = true
			n.as.SetProt(vm.PageID(p), vm.ProtRead)
		}
		if c.cfg.FaultTolerance && (home+1)%c.cfg.Nodes == id {
			// Standby pre-seed: every page starts with two identical
			// (all-zero) copies — home and ring successor — so a home
			// crash always finds a base image at the failover target.
			n.pages[p].hasCopy = true
			n.as.SetProt(vm.PageID(p), vm.ProtRead)
		}
	}
	return n
}

// home returns the page's current home node: the static round-robin
// placement until an explicit home move (Cluster.QueueHomeMoves) changes
// it.
func (n *node) home(p vm.PageID) int { return int(n.homes[p].Load()) }

// pageData returns the byte window of page p in the node's segment.
// Guarded by the page's shard lock whenever another goroutine could be
// active on the node.
func (n *node) pageData(p vm.PageID) []byte {
	off := int(p) * memlayout.PageSize
	return n.seg[off : off+memlayout.PageSize]
}

// markPrefetched sets or clears a page's prefetched flag, keeping the
// node's live count in step. Requires the page's shard write lock.
func (n *node) markPrefetched(st *pageState, v bool) {
	if st.prefetched == v {
		return
	}
	st.prefetched = v
	if v {
		n.prefetchedLive.Add(1)
	} else {
		n.prefetchedLive.Add(-1)
	}
}

// bumpLamport folds a received Lamport clock into the node's (max).
func (n *node) bumpLamport(lam int32) {
	for {
		cur := n.lamport.Load()
		if lam <= cur || n.lamport.CompareAndSwap(cur, lam) {
			return
		}
	}
}

// addPending queues a write notice delivered by a lock grant or a barrier
// release, invalidating the page. Self-locking (takes the page's shard
// lock).
func (n *node) addPending(nt msg.Notice) {
	if int(nt.Writer) == n.id {
		return // own writes are already in the local copy
	}
	sh := n.lockShard(vm.PageID(nt.Page))
	if st := &n.pages[nt.Page]; n.queueNotice(nt) && st.prefetched {
		// Invalidated before any local touch: the prefetch was wasted.
		n.markPrefetched(st, false)
		n.c.stats.PrefetchWasted.Add(1)
	}
	n.unlockShard(sh)
}

// queueNotice is the one ingest of a write notice: unless it is the node's
// own or the page's dedup drops it, the notice joins the page's pending
// set and a held copy is invalidated. It reports whether the notice was
// queued. Requires the page's shard write lock.
func (n *node) queueNotice(nt msg.Notice) bool {
	if int(nt.Writer) == n.id {
		return false // own writes are already in the local copy
	}
	st := &n.pages[nt.Page]
	if !st.queue(nt, n.shard(vm.PageID(nt.Page))) {
		return false
	}
	if st.hasCopy {
		n.as.SetProt(vm.PageID(nt.Page), vm.ProtNone)
	}
	return true
}

// closeInterval ends the node's current interval: every dirty page is
// diffed against its twin, the diff is stored locally, and a write
// notice is produced. Returns the notices and the CPU cost of diffing.
// Self-locking: scans shard by shard, then diffs each dirty page under
// its shard lock, so concurrent serves of unrelated pages proceed.
func (n *node) closeInterval() ([]msg.Notice, sim.Time) {
	// Collect the dirty set with a strided per-shard scan, then sort:
	// notices must be produced in ascending page order (the order the
	// old full-scan produced), which downstream determinism relies on.
	dirtyPages := n.closeDirty[:0]
	nshards := len(n.shards)
	for s := 0; s < nshards; s++ {
		sh := &n.shards[s]
		if !sh.mu.TryRLock() {
			n.c.stats.ShardContention.Add(1)
			sh.mu.RLock()
		}
		for p := s; p < len(n.pages); p += nshards {
			if n.pages[p].dirty {
				dirtyPages = append(dirtyPages, vm.PageID(p))
			}
		}
		sh.mu.RUnlock()
	}
	n.closeDirty = dirtyPages
	if len(dirtyPages) == 0 {
		return nil, 0
	}
	slices.Sort(dirtyPages)

	lam := n.lamport.Add(1)
	n.lockSync()
	iv := n.interval
	n.interval++
	n.mu.Unlock()

	notices := n.closeNotices[:0]
	var scratch [maxDiffLen]byte
	var cost sim.Time
	for _, p := range dirtyPages {
		sh := n.lockShard(p)
		st := &n.pages[p]
		size := encodeDiff(&scratch, st.twin, n.pageData(p))
		cost += sim.Time(memlayout.PageSize) * n.c.costs.DiffPerByte
		putPageBuf(st.twin)
		st.twin = nil
		st.dirty = false
		n.as.SetProt(p, vm.ProtRead) // next write re-twins in the new interval
		if size == 0 {
			n.unlockShard(sh)
			continue // silent store: wrote the same values
		}
		st.addDiff(n.arena.place(iv, scratch[:size]), sh)
		n.diffBytes.Add(int64(size))
		n.c.stats.DiffsCreated.Add(1)
		st.noteApplied(int32(n.id), iv)
		n.unlockShard(sh)
		notices = append(notices, msg.Notice{
			Page: int32(p), Writer: int32(n.id), Interval: iv, Lam: lam,
		})
	}
	n.closeNotices = notices
	// The new interval is taken whole and returned as it sits in known,
	// which only grows until the barrier truncates it, so the sub-slice
	// stays valid without mu for the caller's episode or release; the
	// probe gets it for the call only.
	n.lockSync()
	start := len(n.known)
	n.known = n.knownHave.add(n.known, notices)
	closed := n.known[start:len(n.known):len(n.known)]
	n.mu.Unlock()
	n.c.probeIntervalClosed(n.id, closed)
	return closed, cost
}

// ownNoticesLocked appends the node's own notices in known, in close
// order, to dst: the barrier enter's list, never a view of known.
// Requires mu.
func (n *node) ownNoticesLocked(dst []msg.Notice) []msg.Notice {
	for _, nt := range n.known {
		if int(nt.Writer) == n.id {
			dst = append(dst, nt)
		}
	}
	return dst
}

// charge adds c to the sink ti; a nil sink discards it (server-side
// fetches, which no thread waits for).
func charge(ti *sim.ThreadInterval, c sim.ThreadInterval) {
	if ti != nil {
		ti.Add(c)
	}
}

// resolveFault is the vm fault handler for engine-side accesses: it
// implements the coherence protocol's fault path, charging the access in
// progress (spanCharge). Called without any lock held; it takes the page's
// shard lock around state manipulation and never holds a lock across a
// transport call.
func (n *node) resolveFault(tid int, p vm.PageID, a vm.Access) error {
	c := n.c
	if c.cfg.Protocol == SingleWriter {
		return n.resolveFaultSW(tid, p, a)
	}
	ti := &n.spanCharge
	c.stats.CoherenceFaults.Add(1)
	ti.Overhead += c.costs.SoftFault

	sh := n.rlockShard(p)
	st := &n.pages[p]
	needFull := !st.hasCopy
	pending := n.faultPending[:0]
	if !needFull {
		pending = append(pending, st.pending...)
	}
	n.faultPending = pending
	sh.mu.RUnlock()

	remote := false
	switch {
	case needFull:
		if err := n.fetchFullPage(ti, tid, p, ApplyDemand); err != nil {
			return err
		}
		remote = true
	case len(pending) > 0:
		n.faultDiffs = zeroed(n.faultDiffs, len(pending))
		ok, err := n.fetchAndApplyDiffs(ti, tid, p, pending, n.faultDiffs, ApplyDemand)
		if err != nil {
			return err
		}
		if !ok {
			// A writer garbage-collected a needed diff; fall back
			// to a full fetch from the manager.
			if err := n.fetchFullPage(ti, tid, p, ApplyDemand); err != nil {
				return err
			}
		}
		remote = true
	}

	sh = n.lockShard(p)
	st = &n.pages[p]
	n.as.SetProt(p, vm.ProtRead)
	if a == vm.Write {
		if st.twin == nil {
			st.twin = getPageBuf()
			copy(st.twin, n.pageData(p))
			c.stats.TwinsCreated.Add(1)
			ti.Overhead += c.costs.TwinCopy
		}
		st.dirty = true
		n.as.SetProt(p, vm.ProtReadWrite)
	}
	n.unlockShard(sh)

	if remote {
		if n.prefetchOn {
			n.lockSync()
			n.faultWin.Set(p)
			if n.late[p] {
				delete(n.late, p)
				c.stats.PrefetchLate.Add(1)
			}
			n.mu.Unlock()
		}
		c.stats.RemoteMisses.Add(1)
		c.notifyRemoteFault(n.id, tid, p)
	}
	return nil
}

// fetchFullPage brings a page current via its current home (the static
// manager until a home move changes it, or — under fault tolerance — the
// home's ring standby while the home is dead), charging the round trip to
// ti. tid is the faulting thread (< 0 for server-side fetches) and src
// classifies the path for the probe: ApplyDemand for fault-path fetches,
// ApplyServer for recovery machinery (standby reseeding, rejoin
// re-fetches).
func (n *node) fetchFullPage(ti *sim.ThreadInterval, tid int, p vm.PageID, src ApplySource) error {
	c := n.c
	var (
		pr    *msg.PageReply
		frame []byte
		wire  sim.Time
	)
	req := msg.New[*msg.PageRequest]()
	defer msg.Release(req)
	req.From, req.Page = int32(n.id), int32(p)
	for attempt := 0; ; attempt++ {
		mgr := n.effHome(p)
		sh := n.rlockShard(p)
		req.Pending = append(req.Pending[:0], n.pages[p].pending...)
		sh.mu.RUnlock()

		var err error
		pr, frame, wire, err = c.callPage(n.id, mgr, req, p, false)
		if err != nil {
			if attempt < c.cfg.Nodes && c.shouldFailOver(err, mgr) {
				c.stats.Failovers.Add(1)
				continue // home died mid-fetch: re-resolve to its standby
			}
			return fmt.Errorf("dsm: node %d fetch page %d: %w", n.id, p, err)
		}
		break
	}
	// pr.Data is a view of frame until the copy below has run.
	defer lease{reply: pr, frame: frame}.release()
	c.stats.PageFetches.Add(1)
	if src != ApplyDemand {
		c.stats.RecoveryFetches.Add(1)
	}
	charge(ti, sim.ThreadInterval{Stall: wire})
	c.probeRemoteFetch(n.id, tid, FetchPage, p, wire)

	sh := n.lockShard(p)
	st := &n.pages[p]
	copy(n.pageData(p), pr.Data)
	st.hasCopy = true
	st.pending = st.pending[:0]
	for w, v := range pr.AppliedVT {
		if w < len(st.appliedVT) && v > st.appliedVT[w] {
			st.appliedVT[w] = v
		}
	}
	var vt []int32
	if c.probe != nil && c.probe.PageFetched != nil {
		vt = append(vt, st.appliedVT...)
	}
	n.unlockShard(sh)
	c.probePageFetched(n.id, p, src, vt)
	return nil
}

// serve dispatches an incoming protocol message. It is the transport
// handler body and may run on a server goroutine in TCP mode — or, since
// the sharded locking scheme, concurrently with other serves and with
// the node's own application threads. The returned pins must be released
// once the reply has been encoded: diff serves alias refcounted stored
// bytes and pin them only until then.
func (n *node) serve(from int, m msg.Message) (msg.Message, retained, error) {
	switch req := m.(type) {
	case *msg.PageRequest:
		return noRelease(n.servePageRequest(req))
	case *msg.DiffRequest:
		return n.serveDiffRequest(req)
	case *msg.DiffBatchRequest:
		return n.serveDiffBatchRequest(req)
	case *msg.BarrierEnter:
		return noRelease(n.serveBarrierEnter(req))
	case *msg.BarrierRelease:
		// Retain site: serveBarrierRelease stores req for the fan-out
		// below this node, which reads the relay table's diffs after this
		// request's frame has gone back to the transport — so they are
		// copied out of it here. Push is consumed inside the serve, and
		// the root's own release (served directly) never was in a frame.
		for _, np := range req.Relay {
			for i := range np.Push {
				np.Push[i].Diff = slices.Clone(np.Push[i].Diff)
			}
		}
		return noRelease(n.serveBarrierRelease(req))
	case *msg.LockAcquire:
		return noRelease(n.serveLockAcquire(req))
	case *msg.LockRelease:
		return noRelease(n.serveLockRelease(req))
	case *msg.LockPull:
		return noRelease(n.serveLockPull(req))
	case *msg.GCCollect:
		return noRelease(n.serveGCCollect(req))
	case *msg.ReplicaDelta:
		return noRelease(n.serveReplicaDelta(req))
	case *msg.RejoinRequest:
		return noRelease(n.serveRejoinRequest(req))
	case *msg.SWRead:
		return noRelease(n.serveSWRead(req))
	case *msg.SWWrite:
		return noRelease(n.serveSWWrite(req))
	case *msg.SWDowngrade:
		return noRelease(n.serveSWDowngrade(req))
	case *msg.SWFlush:
		return noRelease(n.serveSWFlush(req))
	case *msg.SWInvalidate:
		return noRelease(n.serveSWInvalidate(req))
	default:
		return nil, nil, fmt.Errorf("dsm: node %d: unexpected message %T", n.id, m)
	}
}

// respond is the transport handler's body after the decode. m borrows
// from the request frame, which the transport takes back when the handler
// returns: the serves consume a request's byte fields or copy what they
// keep. The reply is encoded into a pooled buffer (the requester recycles
// it, Cluster.callFrame); then the pins of the stored diffs it aliased go
// back, and through recycle the reply and its image. The request goes to
// msg.Release on every path, a failed serve's included (Release keeps no
// byte view, so even a reply kind a peer sent by mistake is safe there),
// except a BarrierRelease, which serveBarrierRelease keeps for the relay.
func (n *node) respond(from int, m msg.Message) ([]byte, error) {
	if _, kept := m.(*msg.BarrierRelease); !kept {
		defer msg.Release(m)
	}
	reply, pinned, err := n.serve(from, m)
	if err != nil {
		return nil, err
	}
	out := msg.EncodeTo(msg.GetBuf(), reply)
	pinned.release()
	recycle(reply)
	return out, nil
}

// noRelease adapts a serve without retained references to the
// dispatcher's three-value shape.
func noRelease(m msg.Message, err error) (msg.Message, retained, error) {
	return m, nil, err
}

// servePageRequest brings the home's own copy of the page current
// (merging the requester's pending notices with its own) and replies with
// the full page image. The reply and its page buffer are pooled; the
// transport handler recycles both after encoding. The serving node may be
// a moved home rather than the static manager; it pulls the writers' diffs
// on demand, exactly as the static manager would.
func (n *node) servePageRequest(req *msg.PageRequest) (msg.Message, error) {
	p := vm.PageID(req.Page)
	if n.effHome(p) != n.id {
		return nil, fmt.Errorf("dsm: node %d is not the home of page %d", n.id, p)
	}
	for _, nt := range req.Pending {
		if nt.Page != req.Page {
			return nil, fmt.Errorf("dsm: node %d page %d request: %w (page %d)", n.id, p, errNoticePage, nt.Page)
		}
	}
	n.c.probeNoticesDelivered(n.id, ViaPageRequest, req.Pending)
	sh := n.lockShard(p)
	st := &n.pages[p]
	for _, nt := range req.Pending {
		n.queueNotice(nt)
	}
	var pendBuf [16]msg.Notice
	pending := append(pendBuf[:0], st.pending...)
	n.unlockShard(sh)

	if len(pending) > 0 {
		var diffBuf [16][]byte
		diffs := append(diffBuf[:0], make([][]byte, len(pending))...)
		ok, err := n.fetchAndApplyDiffs(nil, -1, p, pending, diffs, ApplyServer)
		if err != nil {
			return nil, err
		}
		if !ok {
			// A diff the manager needs was collected — cannot
			// happen, because GC brings the manager current before
			// dropping diffs; report loudly if it ever does.
			return nil, fmt.Errorf("dsm: manager %d lost diffs for page %d", n.id, p)
		}
	}

	sh = n.rlockShard(p)
	st = &n.pages[p]
	out := msg.New[*msg.PageReply]()
	out.Page, out.Data = req.Page, getPageBuf()
	copy(out.Data, n.pageData(p))
	out.AppliedVT = zeroed(out.AppliedVT, n.c.cfg.Nodes)
	copy(out.AppliedVT, st.appliedVT)
	// This read-section copied page data, which spans write through their
	// windows unlocked: bump the generation like a write-section would, so
	// that the copy is ordered before the writes of any later span.
	n.gen.Add(1)
	sh.mu.RUnlock()
	return out, nil
}

// serveBarrierEnter folds a barrier arrival into this node's episode
// state. Only the root and tree positions with children receive enters:
// a leaf child's own enter, or another folding position's subtree
// aggregate (Entered/HotSets non-empty). The fold is idempotent — entered
// ids dedup through the entered set, notices through the have set, hot
// sets by node — so re-delivered enters (transport retries, episodes
// re-run over a shrunk view) or aggregates that grew between attempts
// fold exactly-once per item per episode. The fold copies what it keeps:
// respond releases the enter.
func (n *node) serveBarrierEnter(req *msg.BarrierEnter) (msg.Message, error) {
	n.c.barrierMu.Lock()
	defer n.c.barrierMu.Unlock()
	b := &n.c.barriers[n.id]
	if req.Episode != b.episode {
		return &msg.Ack{}, nil // late duplicate of a completed episode
	}
	if b.entered == nil {
		b.entered = make(map[int32]bool, n.c.cfg.Nodes)
		b.hot = make(map[int32][]int32, n.c.cfg.Nodes)
	}
	ids := req.Entered
	if len(ids) == 0 {
		ids = []int32{req.Node}
	}
	for _, id := range ids {
		b.entered[id] = true
	}
	b.lam = maxI32(b.lam, req.Lam)
	if len(req.Hot) > 0 && len(b.hot[req.Node]) == 0 {
		b.hot[req.Node] = append(b.hot[req.Node], req.Hot...)
	}
	for _, hs := range req.HotSets {
		if len(hs.Pages) > 0 && len(b.hot[hs.Node]) == 0 {
			b.hot[hs.Node] = append(b.hot[hs.Node], hs.Pages...)
		}
	}
	b.notices = b.have.add(b.notices, req.Notices)
	return &msg.Ack{}, nil
}

// serveBarrierRelease applies a barrier release at a member. It keeps the
// attempt's first release for this node as the barrier state's rel, which
// the next attempt's reset releases; respond leaves every release to it,
// so a duplicate it does not keep is left to the collector.
func (n *node) serveBarrierRelease(req *msg.BarrierRelease) (msg.Message, error) {
	n.c.probeBarrierReleased(n.id, req.Episode)
	n.c.probeNoticesDelivered(n.id, ViaBarrier, req.Notices)
	n.bumpLamport(req.Lam)
	for _, nt := range req.Notices {
		n.addPending(nt)
	}
	n.lockSync()
	seen, fresh := n.seen, false
	for _, nt := range req.Notices {
		if nt.Interval > seen[nt.Writer] {
			if !fresh {
				seen, fresh = append(n.seenAlt[:0], seen...), true
				n.seenAlt = n.seen
			}
			seen[nt.Writer] = nt.Interval
		}
	}
	n.seen = seen
	n.mu.Unlock()
	// Home moves apply while application threads are parked and no page
	// requests are in flight; idempotent (a re-delivered release stores
	// the same homes).
	for _, ph := range req.Homes {
		if int(ph.Page) >= 0 && int(ph.Page) < len(n.homes) {
			n.homes[ph.Page].Store(ph.Home)
		}
	}
	if len(req.Push) > 0 {
		cost, pushed, err := n.applyPush(req.Push)
		if err != nil {
			return nil, err
		}
		n.lockSync()
		n.pushCost += cost
		n.pushedEpoch += pushed
		n.mu.Unlock()
	}
	// Store the release for the fan-out below this node: it relays the
	// episode's payload (and the Relay entries for its subtree) to its
	// children from this copy (a release that arrived in a frame has had
	// its relay table copied out of it, see serve).
	n.c.barrierMu.Lock()
	if b := &n.c.barriers[n.id]; b.episode == req.Episode && b.rel == nil {
		b.rel = req
	}
	n.c.barrierMu.Unlock()
	// The barrier flushed all pre-barrier notices cluster-wide.
	n.resetLockState()
	return &msg.Ack{}, nil
}

// resetLockState restarts the node's lock-side state together, at a
// barrier release and at a rejoin: the manager records and standby
// mirrors, the release marks, and the confirmed pull positions. A node
// that manages no lock traffic — every node of a barrier-only application
// — resets empty records.
func (n *node) resetLockState() {
	n.lockMgrMu.Lock()
	for _, ml := range n.locks {
		if ml != nil {
			ml.reset()
		}
	}
	n.lockMgrMu.Unlock()
	n.lockSync()
	clear(n.lockMark)
	clear(n.pullPos)
	n.mu.Unlock()
}

// lockLog returns the record a lock message folds into at this node,
// chosen from the lock's primary manager the way readDiffs chooses a
// store from the writer: this node's own record when it is the primary,
// otherwise the mirror it keeps as that primary's standby — created by
// the first message, which under fault tolerance may be a copied release
// or a failover acquire (served from an empty mirror). Without fault
// tolerance only the primary holds lock state. Requires lockMgrMu.
func (n *node) lockLog(primary int) (*mgrLog, error) {
	ml := n.locks[primary]
	if ml == nil {
		if !n.c.cfg.FaultTolerance {
			return nil, fmt.Errorf("dsm: node %d: %w (manager %d)", n.id, errLockRole, primary)
		}
		ml = newMgrLog()
		n.locks[primary] = ml
	}
	return ml, nil
}

// serveLockAcquire grants a lock from the record lockLog chooses: the
// grant names the lock's last releaser (-1 for none since the barrier),
// from which the acquirer pulls the history (serveLockPull), and carries
// the Lamport clock of that release. A pure read.
func (n *node) serveLockAcquire(req *msg.LockAcquire) (msg.Message, error) {
	n.lockMgrMu.Lock()
	defer n.lockMgrMu.Unlock()
	ml, err := n.lockLog(n.c.lockManager(req.Lock))
	if err != nil {
		return nil, err
	}
	grant := msg.New[*msg.LockGrant]()
	grant.Lock, grant.Lam, grant.Holder = req.Lock, ml.lockLam[req.Lock], -1
	if h, ok := ml.holder[req.Lock]; ok {
		grant.Holder = h
	}
	return grant, nil
}

// serveLockRelease folds a release into the record lockLog chooses: the
// primary's own, or — for a release copied to a standby, or re-routed to
// it while the primary is dead — the standby's mirror. It registers the
// releaser as the lock's holder; under the single-writer protocol, which
// keeps no write notices, there is nothing to pull and it registers none.
// Under fault tolerance a release from another node also records the
// releaser's mark: how much of the releaser's replicated history existed
// at the release (the delta covering the release's interval always
// arrives first), so that a pull for the lock served here for a dead
// holder gets exactly the prefix the holder's own lockMark would have.
// Idempotent: clocks merge by max, a retried release re-registers the
// same holder and mark.
func (n *node) serveLockRelease(req *msg.LockRelease) (msg.Message, error) {
	n.lockMgrMu.Lock()
	ml, err := n.lockLog(n.c.lockManager(req.Lock))
	if err != nil {
		n.lockMgrMu.Unlock()
		return nil, err
	}
	ml.lockLam[req.Lock] = maxI32(ml.lockLam[req.Lock], req.Lam)
	if n.c.cfg.Protocol != SingleWriter {
		ml.holder[req.Lock] = req.Node
	}
	n.lockMgrMu.Unlock()
	if origin := int(req.Node); n.c.cfg.FaultTolerance && origin != n.id {
		n.replMu.Lock()
		lm := n.replLockMark[origin]
		if lm == nil {
			lm = make(map[int32]int)
			n.replLockMark[origin] = lm
		}
		lm[req.Lock] = len(n.replKnown[origin])
		n.replMu.Unlock()
	}
	return &msg.Ack{}, nil
}

// serveLockPull answers a history pull: the manager named req.Holder as
// the lock's last releaser, and the acquirer asks for the causal history
// that release covered. For this node's own id that is the prefix of
// known marked at its release (lockMark), served from the position the
// requester last confirmed (req.Pos), so a retried pull is re-served the
// identical suffix; the grant's Pos is the mark, the position the
// requester confirms once it has applied the notices. A position past
// the mark means the requester has the whole prefix already. For
// another holder — under fault tolerance, whose standby this node is —
// it is the prefix of the holder's replicated history marked when the
// release reached here (serveLockRelease), served from its start: a
// position indexes the holder's own known, not the replica. The own
// prefix is filtered under mu, because a barrier truncates known in
// place; a replicated history is append-only until a barrier drops its
// map, so that prefix is filtered without replMu. A pure read either
// way, and a pull arriving after a barrier cleared the mark returns an
// empty grant: the barrier already delivered everything.
func (n *node) serveLockPull(req *msg.LockPull) (msg.Message, error) {
	holder := int(req.Holder)
	if holder != n.id && !n.c.cfg.FaultTolerance {
		return nil, fmt.Errorf("dsm: node %d: %w (holder %d)", n.id, errLockRole, holder)
	}
	grant := msg.New[*msg.LockGrant]()
	grant.Lock, grant.Holder = req.Lock, req.Holder
	if holder == n.id {
		n.lockSync()
		mark := min(n.lockMark[req.Lock], len(n.known))
		start := min(max(int(req.Pos), 0), mark)
		grant.Notices = appendUnseen(grant.Notices, n.known[start:mark], req.Node, req.Seen)
		grant.Pos = int32(mark)
		n.mu.Unlock()
		grant.Lam = n.lamport.Load()
	} else {
		n.replMu.Lock()
		kn := n.replKnown[holder]
		history := kn[:min(n.replLockMark[holder][req.Lock], len(kn))]
		grant.Lam = n.replState[holder].lam
		n.replMu.Unlock()
		grant.Notices = appendUnseen(grant.Notices, history, req.Node, req.Seen)
	}
	return grant, nil
}

// appendUnseen is the pull filter: it appends to dst the notices of
// history that requester has not seen — neither its own nor covered by its
// seen vector. The serve passes a pooled grant's own list as dst; the
// handler releases the grant once it is encoded, and a grant served in
// place is released by its acquirer. Either way the grant owns a copy,
// never a view of the history.
func appendUnseen(dst, history []msg.Notice, requester int32, seen []int32) []msg.Notice {
	for _, nt := range history {
		if nt.Writer == requester || (int(nt.Writer) < len(seen) && nt.Interval <= seen[nt.Writer]) {
			continue
		}
		dst = append(dst, nt)
	}
	return dst
}

// serveGCCollect drops the stored diffs of every page the collect names
// and, on non-home nodes, invalidates the copies outright (replicas of
// collected pages are invalidated rather than updated — paper §2). The
// whole list is checked before any state moves, so a refused collect drops
// nothing; re-delivery of the list, or of any part of it, is a no-op.
func (n *node) serveGCCollect(req *msg.GCCollect) (msg.Message, error) {
	for _, pg := range req.Pages {
		if pg < 0 || int(pg) >= n.c.cfg.Pages {
			return nil, fmt.Errorf("dsm: node %d: %w: %d", n.id, errCollectPage, pg)
		}
	}
	if n.c.cfg.FaultTolerance {
		// The replicated diff store mirrors the primaries' diffs; a
		// collect retires the whole page's history there too.
		n.replMu.Lock()
		for _, byPage := range n.replDiffs {
			for _, pg := range req.Pages {
				delete(byPage, vm.PageID(pg))
			}
		}
		n.replMu.Unlock()
	}
	for _, pg := range req.Pages {
		if err := n.collectPage(vm.PageID(pg)); err != nil {
			return nil, err
		}
	}
	return &msg.Ack{}, nil
}

// collectPage is serveGCCollect's per-page body. Dropping releases each
// diff's reference on its chunk; a chunk an in-flight serve still pins is
// recycled when that serve's encode finishes.
func (n *node) collectPage(p vm.PageID) error {
	sh := n.lockShard(p)
	defer n.unlockShard(sh)
	st := &n.pages[p]
	n.diffBytes.Add(-st.dropDiffs())
	if n.effHome(p) != n.id &&
		!(n.c.cfg.FaultTolerance && n.id == n.c.aliveSucc(n.effHome(p))) {
		// Under fault tolerance the home's ring standby keeps its
		// (just-refreshed) copy: a home crash must always find a
		// current base image at the failover target.
		if st.dirty {
			return fmt.Errorf("dsm: GC of page %d with open twin on node %d", p, n.id)
		}
		if st.prefetched {
			n.markPrefetched(st, false)
			n.c.stats.PrefetchWasted.Add(1)
		}
		st.pending = st.pending[:0] // keep the capacity: notices refill it next epoch
		st.hasCopy = false
		clear(st.appliedVT) // zeros, kept for the next fetch
		n.as.SetProt(p, vm.ProtNone)
		n.c.probePageInvalidated(n.id, p)
	}
	return nil
}

func maxI32(a, b int32) int32 {
	if a > b {
		return a
	}
	return b
}
