// Package msg defines the DSM's wire protocol: the messages exchanged
// between nodes for page fetches, diff fetches, barriers, locks, and diff
// garbage collection, together with a compact binary encoding.
//
// Both transports (in-process and TCP) carry the encoded form, so the byte
// counts the experiments report ("Total Mbytes", "Diff Mbytes" in the
// paper's Table 6) are the real sizes of real messages.
//
// # Encoding and the hot path
//
// Encode allocates exactly once: Size computes every message's wire size
// directly (no trial encode), so the output buffer is sized before the
// first byte is written. For the protocol service path, EncodeTo appends
// to a caller-provided buffer and GetBuf/PutBuf expose a pool of reusable
// buffers, so steady-state encodes perform zero allocations.
//
// # Wire layout
//
// A message is its Kind byte followed by its fields in declaration
// order. An int32 is four little-endian bytes; a list is an int32 count
// followed by its elements; a []byte is a counted list of bytes (count
// -1 where nil differs from empty). Decode bounds every count by the
// bytes left — by the element size for notices and for GCCollect's page
// list — before it allocates. GCCollect, the garbage-collection round's
// bulk message, is
//
//	kind(1) | count(4) | count x page(4)
//
// one per (home, member) for all of the home's collected pages.
//
// # Buffer ownership
//
// Decode borrows: the []byte fields of a decoded message (a page image,
// a diff) are sub-slices of the buffer it was given, with their capacity
// clipped so an append cannot reach the buffer. Everything else (integer
// vectors, notices) is copied out. A message whose Kind.Borrows is true
// is therefore valid only while its buffer is: the decoder's caller
// holds the buffer until the payloads have been applied or copied, then
// recycles it with PutBuf. Forgetting the PutBuf costs garbage, never
// correctness; using a payload after it is the bug, and race builds make
// it loud — there PutBuf fills the buffer with 0xDB before pooling it.
//
// Messages follow the same rule, with one release. The miss path's, the
// lock path's, the barrier's and the GC round's kinds (Pooled) live in one
// pool per kind: Decode draws from it and decodes each list, nested ones
// included, into the capacity the message kept, New hands one to a
// sender, and Release returns one. Release truncates the lists the message
// owns and drops its byte views without pooling them — frames, page
// images and stored diffs keep their owners — so a handler may release
// every request it decoded; the kinds that stay unpooled (the replica and
// rejoin kinds, Ack and the SW* kinds) release as a no-op. A sender that
// pointed a field at its own state must detach it first, and a receiver
// that keeps a message past its serve owns it until it releases it. A message nobody releases is garbage, never a bug; one
// read after its release is, and race builds set its integers to -0x2425
// and fill its lists' capacity with notices naming page -0x2425 or with a
// 0xDB run in place of each diff.
//
// The buffer pool is an instance of pool.Slices, and pool.Race is the
// switch that turns the poison fill on.
package msg
