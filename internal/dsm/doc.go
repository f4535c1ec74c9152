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
//     data, stored diffs) is striped across Config.ServiceShards
//     RWMutex-guarded shards; page p belongs to shard p mod nshards.
//     Independent remote requests — diff fetches, page fetches, notice
//     deliveries, prefetch fills — service in parallel when they touch
//     different shards, and read-only diff serves share a shard's read
//     lock, at every shard count.
//   - Synchronization-side state (interval counter, seen vector, notice
//     histories, prefetch windows) lives under a small per-node mutex.
//   - The lock-manager log and single-writer ownership table each have
//     their own leaf mutex, and the Lamport clock, diff-volume gauge,
//     mutation generation and live-prefetched count are atomics.
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
// before a later span's writes.) The engine guarantees the other half,
// that no server-side mutation overlaps a span on the same node: barrier
// releases, GC collects and rejoin wipes run with the node's threads
// parked. Prefetch-hit accounting, the one part of a span that does lock
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
// Lean misses: the fault path's scratch lives on the calling frame
// (server-side fetchAndApplyDiffs runs concurrently on transport workers,
// so there is no per-node scratch to share), and lock traffic sends
// sub-slices of the append-only known and fresh histories and the
// copy-on-write seen vector rather than copies. alloc_test.go holds the
// resulting counts (make alloc-gate).
//
// The serve path is also allocation-lean: protocol encode/decode uses
// pooled buffers (msg.GetBuf/msg.EncodeTo), page-sized twin and reply
// images come from a page-buffer pool (shard.go), and diff replies alias
// the immutable stored diffs. Steady-state barrier epochs run at ~zero
// allocations per message on the service path; msg's size_test.go pins
// the encode, and the benchmark/ ladder tracks dsm.remote_miss_allocs,
// dsm.barrier_allocs and dsm.lock_handoff_allocs.
//
// Buffer ownership: a diff or page image is moved once on each side of
// the wire. The writer encodes a diff on the stack and allocates it once,
// at its size (AppendDiff); a serve encodes it into the reply frame; and
// the requester applies it from that frame, because msg.Decode borrows —
// a decoded []byte field is a view of the buffer it was decoded from.
// Whoever decodes therefore owns the buffer until the payload has been
// consumed. Cluster.call recycles the reply frame at once and is for
// payload-free replies only (it refuses the others by name);
// callFrame/callPage hand the frame back with the reply, and
// fetchFullPage, fetchWriterDiffs, fetchDiffBatches and the single-writer
// fetches msg.PutBuf it after copy/ApplyDiff, on every exit path, from a
// frame list on the fetching call's stack. A request's payloads live in
// the request frame, which the transport takes back when the handler
// returns. The sites that keep decoded bytes longer copy them, and say
// so: serveReplicaDelta (replica store), collectPushDiffs (diffs ride a
// later release), serve's BarrierRelease case (the relay table read by the
// fan-out below the node) and swOwnerImage (an owner's image forwarded in
// the manager's own reply). The page pool takes back only what getPageBuf
// handed out, never decoded bytes. ARCHITECTURE.md tabulates the rules;
// race builds poison every recycled frame (msg.PutBuf), so the whole test
// suite and 'make sweep-poison' check them.
package dsm
