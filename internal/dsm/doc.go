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
// Lean misses and episodes. The fault path's pending snapshot and diff
// table live on the node (faultPending, faultDiffs), owned like spanCharge
// by the goroutine inside Span, so a miss costs the same whatever its
// backlog; fetchAndApplyDiffs clears the table on every return, so no
// view of a reply frame outlives the fetch. Server-side fetches — a page
// serve, a GC round's consolidate — run concurrently on transport
// workers, so they keep theirs on the frame, 16 entries with a heap
// fallback. closeInterval's dirty-page and notice lists live on the node
// too: a node's closes run one at a time (serially in barrier phase 1, or
// on the one running engine thread at a lock release). A barrier episode's
// scratch — the view and tree levels, each member's enter, aggregate and
// relayed release, the GC round's page set and lists — lives on the
// Cluster (episode, barrierState), since Barrier runs one episode at a
// time, and its fan-out legs are method values bound once. Lock traffic
// sends sub-slices of known and the published seen vector rather than
// copies; known only grows within an epoch, so the barrier truncates it in
// place. Pending queues and own-diff runs grow into blocks their shard's
// pools carve and take back (blockPool); frames, page images and the
// messages themselves are pooled. alloc_test.go holds the counts (make
// alloc-gate), and the benchmark/ ladder tracks dsm.remote_miss_allocs,
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
//   - no acquire across a release: every thread is parked for a barrier,
//     so no LockAcquire or LockPull holding a snapshot of a node's seen
//     vector is in flight while a release advances it — which is what
//     lets the release write into the vector before last (seenAlt);
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
// Buffer and message lifetimes (ARCHITECTURE.md §4 states them in full):
// msg.Decode borrows — a decoded []byte field is a view of its frame — so
// whoever decodes owns the frame until the payload is consumed.
// Cluster.call recycles a payload-free reply's frame at once; callFrame
// and callPage hand the frame back with the reply, and the route wraps it
// in a lease that the fetch releases after its apply. Stored diffs are
// packed into per-node chunks (diffArena), counted by their diffs, by
// serves' pins until the encode and by the open arena, and returned whole
// to the node's free list. Messages have one release, msg.Release: a
// decoded request when respond returns, a decoded reply with its lease, a
// sent request after its call (a field pointed at the sender's own state
// detached first), a served reply after its encode. The exception is a
// BarrierRelease: serveBarrierRelease keeps the attempt's first as the
// barrier state's rel for the relay to the node's children, and the next
// attempt's reset releases it; an enter's fold copies what it keeps.
// Release keeps no byte view, and race builds (pool.Race) poison every
// recycled frame, released message, twin, page image and diff chunk, so
// the test suite and 'make sweep-poison' check them.
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
