// Package dsm implements a CVM-like page-based software distributed
// shared memory with lazy release consistency and a multi-writer
// protocol: intervals, Lamport-stamped write notices, twins and
// word-granularity diffs, centralized barrier and lock managers that
// piggyback consistency information, and periodic diff garbage
// collection.
//
// The paper's mechanisms (active and passive correlation tracking, thread
// placement) are layered on top in internal/core and internal/placement;
// this package provides the substrate they instrument.
//
// Known simplifications relative to CVM, documented in DESIGN.md:
// diffs are created eagerly at interval end rather than lazily on request,
// and lock grants carry per-lock notice histories (plus the releaser's
// full program-order history since the last barrier) rather than full
// transitive causal histories. Both preserve the behaviour of the
// barrier- and lock-structured applications the paper studies.
//
// # Locking model
//
// The paper's argument is that online tracking is cheap; that only holds
// if the protocol substrate underneath is itself low-overhead. The node
// therefore uses per-concern locking instead of one node-wide mutex
// (ARCHITECTURE.md has the full map):
//
//   - Per-page protocol state (page table entries, protections, segment
//     data, stored diffs) is striped across 16 RWMutex-guarded shards
//     (defaultServiceShards); page p belongs to shard p mod nshards.
//     Independent remote requests — diff fetches, page fetches, notice
//     deliveries, prefetch fills — service in parallel when they touch
//     different shards, and read-only diff serves share a shard's read
//     lock, at every shard count.
//   - Synchronization-side state (interval counter, seen vector, notice
//     histories, prefetch windows) lives under a small per-node mutex.
//   - The lock-manager log, single-writer table and diff chunks each have
//     a leaf mutex; the Lamport clock, diff-volume gauge, mutation
//     generation and live-prefetched count are atomics.
//
// No code path holds two of these locks across each other or holds any
// of them across a transport call, so the scheme is deadlock-free by
// construction. Contended acquisitions are counted in
// Stats.ShardContention and Stats.SyncContention (visible through the
// obs metrics endpoint) so shard sizing is observable in production.
//
// # The engine-side access path
//
// In the paper a valid-page access is free — the MMU checks it — and
// tracking overhead is judged against that. Here every page touch goes
// through Cluster.Span, so its warm case takes no lock and allocates
// nothing.
//
// No lock: Span reads the pages' protections (and, under prefetch, their
// prefetched flags) unlocked and hands out the segment window. The rule
// that makes this sound is that whatever Span reads unlocked is mutated
// only inside a shard write-section, and every write-section — serve
// path or fault path — ends in unlockShard, which bumps the node's atomic
// mutation generation before it releases the lock. Span loads the
// generation once before its checks. A write-section that completed
// before the span began has bumped the counter before that load, so the
// load observes the bump and the section's writes happen-before the
// span's reads — one load, where taking and dropping each page's shard
// lock would buy the same edge for a mutex pair per page. (The page
// serve's read-section bumps the generation too: it copies the page data
// that spans write through their windows, and the bump orders the copy
// before a later span's writes.) The other half, that no server-side
// mutation overlaps a span on the same node, is the access-path contract
// below. Prefetch-hit accounting, the one part of a span that does lock
// a page's shard, runs only while the node's live-prefetched count is
// non-zero.
//
// No charge mutex, and no owner assertion in its place: the virtual-time
// charges of an access accumulate in a value field of the node
// (spanCharge) that Span zeroes on entry and returns by value, so nothing
// escapes to the heap, and nothing is shared that a lock or a check would
// have to guard. The fault path, which the vm layer calls back without a
// way to pass an argument, writes spanCharge from the goroutine inside
// Span and from nowhere else (the engine runs one application thread at a
// time), while the fetch helpers that server goroutines also run
// (fetchFullPage, fetchAndApplyDiffs) take their sink as a parameter —
// the barrier goroutine's local interval for GC, rejoin and standby
// fetches, nil for serves, whose cost no thread waits for. A transport
// worker therefore never reads or writes any node's charge state.
//
// Lean misses: the fault path's pending snapshot and diff table live on
// the node (faultPending, faultDiffs), owned like spanCharge by the
// goroutine inside Span, so they grow to the longest backlog once and a
// miss costs the same whatever its backlog; fetchAndApplyDiffs clears
// the table on every return, so no view of a reply frame outlives the
// fetch. Server-side fetches — a page serve, a GC round's consolidate —
// run concurrently on transport workers, so they keep theirs on the
// frame, 16 entries with a heap fallback. Lock traffic sends sub-slices
// of the known history and the copy-on-write seen vector rather than
// copies; known only grows within an epoch, and no view of it outlives
// its call (a pull filters its history under mu), so the barrier
// truncates it in place and it keeps its array from epoch to epoch.
// Pending queues and own-diff runs grow into blocks their shard's pools
// carve and take back (blockPool). closeInterval's dirty-page and notice
// lists live on the node too: a node's closes run one at a time —
// serially in barrier phase 1, or on the one running engine thread at a
// lock release (the access-path contract below) — so each list has one
// owner and keeps its capacity from one close to the next. alloc_test.go holds the resulting
// counts (make alloc-gate).
//
// The serve path is also allocation-lean: protocol encode/decode uses
// pooled buffers (msg.GetBuf/msg.EncodeTo), page-sized twin and reply
// images come from a page-buffer pool (shard.go), stored diffs are pooled
// whole, and diff replies — pooled themselves — alias the immutable
// stored diffs. Steady-state barrier epochs run at ~zero
// allocations per message on the service path; msg's size_test.go pins
// the encode, and the benchmark/ ladder tracks dsm.remote_miss_allocs,
// dsm.barrier_allocs and dsm.lock_handoff_allocs.
//
// # The access-path contract
//
// One access at a time: the engine runs one application thread at a
// time (runSlice in internal/threads), so one Cluster.Span and the
// writes into its window are in progress cluster-wide, and no
// server-side mutation of that node overlaps them — barrier releases, GC
// collects and rejoin wipes run with the node's threads parked. A caller
// that bypasses the engine keeps the same rule; the -race hammers hold
// one mutex from each Span call through the write into its window.
//
// What may overlap: serves with each other, lock and barrier calls, the
// legs of a fan-out, which run on parked workers (runLegs), and Kill. No
// two legs of one fan-out call on one directed edge, their serves' calls
// included, so each edge's calls keep one leg's program order: chaos keys
// rely on it (internal/transport/replay.go).
//
// The ordering edges it relies on:
//
//   - n.gen, from a serve to a later span (unlockShard's bump, above);
//   - the fan-out join: every leg's Done (after its error) before Wait;
//   - TCP.hb, the DSM's edge across kernel sockets: the in-process
//     transport runs the handler on the caller's goroutine, ordering
//     caller before handler before return; a socket gives no such edge
//     even within one process, so the TCP transport bumps one shared
//     atomic at the four hand-offs of a call (DESIGN.md §13.1).
//
// # The diff path
//
// "Give me writer w's diffs for these intervals of these pages, and apply
// them in causal order" is the protocol's one data-movement primitive, and
// diffpath.go holds its one body per step: readDiffs serves it, from the
// page's own-diff run when it is w and from the replica store it keeps
// as w's ring standby otherwise; the route (route.call, shared with the
// lock path) takes a DiffRequest or a DiffBatchRequest to w, to w's
// standby while w is dead, or serves it in place when that is the
// requester; applyDiffs applies the result under the page's shard lock.
// The demand fault, a home bringing its copy current, the pull prefetch
// round and the barrier root's push collection all go through them, which
// is why Config.FaultTolerance composes with BatchDiffs and PrefetchBudget
// (DESIGN.md §7.1).
//
// Buffer ownership: msg.Decode borrows — a decoded []byte field is a view
// of the buffer it was decoded from — so whoever decodes owns the buffer
// until the payload has been consumed. Cluster.call recycles the reply
// frame at once and is for payload-free replies only; callFrame/callPage
// hand the frame back with the reply, and the route wraps it in a lease
// (the frame of a remote serve, the pins of a read of the node's own
// store, nothing for the replica store) that the fetch releases after
// copy/ApplyDiff on every exit path. The sites that keep decoded bytes
// longer copy them, and say so.
//
// Stored diffs are packed into per-node chunks (diffArena). A chunk
// counts its diffs, from closeInterval to the GC drop (collectPage, or a
// rejoin wipe); a serve's pins until its reply is encoded, an in-place
// read's until its lease is released; and the arena's hold while it is
// open. The last release returns it whole to the node's free list, so
// after the first GC epoch a diff allocates nothing.
//
// Messages follow one lifetime rule with one release, msg.Release: a
// decoded request lives until the transport handler (respond) returns, a
// decoded reply until the caller's apply returns (it rides the lease, with
// the frame it borrows from), a sent request until its call returns, and
// a served reply until its encode. After the encode respond releases the
// serve's pins and the reply (recycle hands a served page image back to
// pageBufs first), and it releases the request on every path. Release
// keeps no byte view — never the stored bytes, which belong to the pins.
// A requester that pointed a field at its own state (a lock release's
// known suffix, an acquire's seen vector) detaches it before the release.
// A message served in place never passes respond; its requester releases
// the reply with the lease.
//
// ARCHITECTURE.md §4 states the rule in full. Race builds (pool.Race)
// poison every recycled frame, released message, twin, page image and
// diff chunk, and set a recycled chunk's count to a sentinel that panics on
// any later retain or release, so the whole test suite and
// 'make sweep-poison' check them.
//
// # The lock path
//
// A lock grant carries the write notices the acquirer has not seen, and
// each of the three lock requests has one serve whichever node answers
// it. An acquire or release folds into the log chosen from the lock's
// primary manager (lockLog): the node's own when it is the primary, or
// the mirror it keeps as that primary's standby — one table by primary
// (node.locks), reset in one place (resetLockState). A history pull is
// chosen from its holder: the node's own known prefix, or the holder's
// replicated history on its standby, up to the mark a release recorded
// there. One filter (appendUnseen) builds both kinds of grant, into the
// notice list of a pooled grant (msg.New) that the handler releases after
// the encode and the acquirer after the apply. The lock
// messages travel the diff path's route: to the primary or the holder, to
// its standby while it is dead, or served in place. Under fault tolerance
// every release that lands on another node also records the releaser's
// mark, and shadowRelease copies it to the standbys that must mirror the
// log or hold the mark (DESIGN.md §10.4).
package dsm
