package msg

import (
	"errors"
	"fmt"
	"sync"

	"actdsm/internal/pool"
)

// Kind discriminates message types on the wire.
type Kind uint8

// Message kinds.
const (
	KindPageRequest Kind = iota + 1
	KindPageReply
	KindDiffRequest
	KindDiffReply
	KindBarrierEnter
	KindBarrierRelease
	KindLockAcquire
	KindLockGrant
	KindLockRelease
	KindGCCollect
	KindAck
	// Single-writer protocol messages (the dsm package's alternative
	// protocol used by the multi-writer-vs-single-writer ablation).
	KindSWRead
	KindSWWrite
	KindSWDowngrade
	KindSWFlush
	KindSWInvalidate
	// Batched diff transfer (demand batching + prefetch): one request
	// fetches the diffs of many (page, interval) pairs from a single
	// writer node in a single round trip.
	KindDiffBatchRequest
	KindDiffBatchReply
	// Distributed lock managers: a requester redirected by a shard
	// manager (LockGrant.Holder) pulls the holder's release-time notice
	// history directly.
	KindLockPull
	// Fault tolerance: a replica delta ships a node's just-closed
	// interval (diffs included) and received-notice history to its ring
	// successor, so the successor can stand in for the node's manager
	// roles after a crash; the rejoin pair restores a restarted node's
	// synchronization state from that successor.
	KindReplicaDelta
	KindRejoinRequest
	KindRejoinReply
)

// KindCount is one past the highest Kind value, sized for arrays indexed
// by Kind (e.g. the DSM's per-message-type call statistics).
const KindCount = int(KindRejoinReply) + 1

// kindNames is indexed by Kind.
var kindNames = [KindCount]string{
	KindPageRequest:    "PageRequest",
	KindPageReply:      "PageReply",
	KindDiffRequest:    "DiffRequest",
	KindDiffReply:      "DiffReply",
	KindBarrierEnter:   "BarrierEnter",
	KindBarrierRelease: "BarrierRelease",
	KindLockAcquire:    "LockAcquire",
	KindLockGrant:      "LockGrant",
	KindLockRelease:    "LockRelease",
	KindGCCollect:      "GCCollect",
	KindAck:            "Ack",
	KindSWRead:         "SWRead",
	KindSWWrite:        "SWWrite",
	KindSWDowngrade:    "SWDowngrade",
	KindSWFlush:        "SWFlush",
	KindSWInvalidate:   "SWInvalidate",

	KindDiffBatchRequest: "DiffBatchRequest",
	KindDiffBatchReply:   "DiffBatchReply",
	KindLockPull:         "LockPull",

	KindReplicaDelta:  "ReplicaDelta",
	KindRejoinRequest: "RejoinRequest",
	KindRejoinReply:   "RejoinReply",
}

// String implements fmt.Stringer.
func (k Kind) String() string {
	if int(k) < len(kindNames) && kindNames[k] != "" {
		return kindNames[k]
	}
	return fmt.Sprintf("Kind(%d)", int(k))
}

// Valid reports whether k names a defined message kind.
func (k Kind) Valid() bool {
	return int(k) < len(kindNames) && kindNames[k] != ""
}

// ErrTruncated reports a decode attempt on a short buffer.
var ErrTruncated = errors.New("msg: truncated message")

// Notice is a write notice: writer modified page during its interval.
// Notices are the consistency information of lazy release consistency;
// receiving one invalidates the local copy of the page.
//
// Interval is the writer-local interval index (the key under which the
// writer stores the corresponding diff). Lam is the interval's Lamport
// timestamp: happens-before-ordered intervals have strictly increasing Lam
// values, so applying diffs in (Lam, Writer) order respects causality;
// intervals with equal Lam are concurrent and modify disjoint words.
type Notice struct {
	Page     int32
	Writer   int32
	Interval int32
	Lam      int32
}

// noticeWire is the encoded size of one Notice.
const noticeWire = 16

// Message is any DSM protocol message.
type Message interface {
	Kind() Kind
	encodeBody(e *encoder)
	decodeBody(d *decoder) error
	// sizeBody returns the encoded body size in bytes, computed
	// directly from the message fields (no trial encode). Size and
	// Encode rely on it; TestSizeMatchesEncode pins the equivalence.
	sizeBody() int
}

// Compile-time interface checks.
var (
	_ Message = (*PageRequest)(nil)
	_ Message = (*PageReply)(nil)
	_ Message = (*DiffRequest)(nil)
	_ Message = (*DiffReply)(nil)
	_ Message = (*BarrierEnter)(nil)
	_ Message = (*BarrierRelease)(nil)
	_ Message = (*LockAcquire)(nil)
	_ Message = (*LockGrant)(nil)
	_ Message = (*LockRelease)(nil)
	_ Message = (*GCCollect)(nil)
	_ Message = (*Ack)(nil)
	_ Message = (*SWRead)(nil)
	_ Message = (*SWWrite)(nil)
	_ Message = (*SWDowngrade)(nil)
	_ Message = (*SWFlush)(nil)
	_ Message = (*SWInvalidate)(nil)
	_ Message = (*DiffBatchRequest)(nil)
	_ Message = (*DiffBatchReply)(nil)
	_ Message = (*LockPull)(nil)
	_ Message = (*ReplicaDelta)(nil)
	_ Message = (*RejoinRequest)(nil)
	_ Message = (*RejoinReply)(nil)
)

// PageRequest asks the page manager for a full copy of Page. Pending lists
// the write notices the requester knows are outstanding against the page,
// so the manager can bring its own copy current before replying.
type PageRequest struct {
	From    int32
	Page    int32
	Pending []Notice
}

// Kind implements Message.
func (*PageRequest) Kind() Kind { return KindPageRequest }

// PageReply carries a full, current page image. AppliedVT is the
// manager's per-writer applied-interval vector for the page after bringing
// it current, so the requester knows which future notices are stale.
type PageReply struct {
	Page      int32
	Data      []byte
	AppliedVT []int32
}

// Kind implements Message.
func (*PageReply) Kind() Kind { return KindPageReply }

// DiffRequest asks a writer node for the diffs it created for Page in each
// of Intervals. Writer names the node that authored the diffs; it equals
// the destination in normal operation, but under fault tolerance a
// request for a crashed writer's diffs is routed to that writer's ring
// successor, which serves them from its replica store.
type DiffRequest struct {
	From      int32
	Page      int32
	Writer    int32
	Intervals []int32
}

// Kind implements Message.
func (*DiffRequest) Kind() Kind { return KindDiffRequest }

// DiffReply carries the requested diffs, aligned with the request's
// Intervals. A nil entry means the writer no longer stores that diff
// (garbage-collected); the requester must fall back to a full page fetch.
type DiffReply struct {
	Page  int32
	Diffs [][]byte
}

// Kind implements Message.
func (*DiffReply) Kind() Kind { return KindDiffReply }

// BarrierEnter announces a node's arrival at barrier Episode, carrying the
// write notices the node created since the last barrier and the node's
// Lamport clock. Hot (present only when prefetch is enabled) lists the
// pages the node predicts its threads will touch in the coming epoch; the
// manager uses it to piggyback matching diffs on the node's release.
type BarrierEnter struct {
	Node    int32
	Episode int32
	Lam     int32
	Notices []Notice
	Hot     []int32
	// Tree-barrier aggregation (present only when BarrierArity >= 2).
	// An interior node forwards one enter to its parent on behalf of its
	// whole subtree: Entered lists every node folded into the aggregate
	// (including the sender) and HotSets carries each member's hot-page
	// prediction. Flat barriers leave both nil and use Hot.
	Entered []int32
	HotSets []NodeHot
}

// NodeHot is one node's hot-page prediction inside an aggregated
// tree-barrier enter.
type NodeHot struct {
	Node  int32
	Pages []int32
}

// Kind implements Message.
func (*BarrierEnter) Kind() Kind { return KindBarrierEnter }

// PushedDiff is one diff piggybacked on a barrier release: the diff of
// (Page, Writer, Interval). Its Lamport stamp travels in the release's
// notice for the same triple.
type PushedDiff struct {
	Page     int32
	Writer   int32
	Interval int32
	Diff     []byte
}

// BarrierRelease is the manager's broadcast releasing barrier Episode; it
// carries the union of all nodes' notices for the episode and the maximum
// Lamport clock across entrants. Push (present only when prefetch is
// enabled) carries the diffs matching the destination node's predicted
// hot pages, so the node applies them at release time instead of paying a
// demand round trip per page — the data rides a message that was being
// sent anyway.
type BarrierRelease struct {
	Episode int32
	Lam     int32
	Notices []Notice
	Push    []PushedDiff
	// Homes (present only when page-home moves were queued for the
	// closing epoch) lists the reassignments; every node applies them at
	// release time, so all home tables move in lockstep while
	// application threads are parked.
	Homes []PageHome
	// Relay (present only when BarrierArity >= 2) carries the pushed
	// diffs for the destination's descendants; the destination forwards
	// each entry down its subtree during the tree fan-out.
	Relay []NodePush
}

// PageHome is one page-home reassignment broadcast in a barrier release.
type PageHome struct {
	Page int32
	Home int32
}

// NodePush is the pushed-diff list destined for one descendant node,
// relayed through the tree-barrier fan-out.
type NodePush struct {
	Node int32
	Push []PushedDiff
}

// Kind implements Message.
func (*BarrierRelease) Kind() Kind { return KindBarrierRelease }

// LockAcquire asks a lock's manager for the lock. Seen is the requester's
// vector time (highest interval seen per node), letting the manager filter
// the notices the grant must carry. Pos is the prefix of the manager's
// shared notice log the requester has already received and applied — the
// requester echoes the Pos of the last grant it processed, so the mark
// only advances once delivery is confirmed and a retried acquire (lost
// grant reply) is re-served the identical suffix.
type LockAcquire struct {
	Node int32
	Lock int32
	Pos  int32
	Seen []int32
}

// Kind implements Message.
func (*LockAcquire) Kind() Kind { return KindLockAcquire }

// LockGrant hands over the lock with the consistency information
// (write notices) the acquirer has not yet seen, and the Lamport clock of
// the last release. Pos is the manager-log length the grant brings the
// requester up to; the requester stores it after applying Notices and
// echoes it in its next LockAcquire.
type LockGrant struct {
	Lock int32
	Lam  int32
	Pos  int32
	// Holder is the node that last released the lock this episode, or -1
	// when none (or when grant forwarding is off). Under grant forwarding
	// the shard manager keeps no notice log; a requester redirected to a
	// different holder pulls that node's history with a LockPull.
	Holder  int32
	Notices []Notice
}

// Kind implements Message.
func (*LockGrant) Kind() Kind { return KindLockGrant }

// LockRelease returns the lock to its manager with the notices generated
// by the releaser's just-closed interval and the releaser's Lamport clock.
type LockRelease struct {
	Node    int32
	Lock    int32
	Lam     int32
	Notices []Notice
}

// Kind implements Message.
func (*LockRelease) Kind() Kind { return KindLockRelease }

// GCCollect tells a node that Pages — every page of the round that the
// sending home serves — have been consolidated there: drop the stored
// diffs for each and, unless this node is the page's home, invalidate the
// local copy (paper §2: garbage collections invalidate replicas rather
// than updating them). A round sends one per (home, member), not one per
// page; collecting a single page is a list of one.
type GCCollect struct {
	Pages []int32
}

// Kind implements Message.
func (*GCCollect) Kind() Kind { return KindGCCollect }

// Ack is the empty success reply.
type Ack struct{}

// Kind implements Message.
func (*Ack) Kind() Kind { return KindAck }

// SWRead asks the page's manager for a read copy (single-writer
// protocol). The reply is a PageReply.
type SWRead struct {
	From int32
	Page int32
}

// Kind implements Message.
func (*SWRead) Kind() Kind { return KindSWRead }

// SWWrite asks the page's manager for ownership (single-writer protocol):
// the manager flushes the current owner, invalidates all replicas, and
// replies with a PageReply.
type SWWrite struct {
	From int32
	Page int32
}

// Kind implements Message.
func (*SWWrite) Kind() Kind { return KindSWWrite }

// SWDowngrade tells the page's owner to drop to read-only and return the
// current data (a reader is joining). The reply is a PageReply.
type SWDowngrade struct {
	Page int32
}

// Kind implements Message.
func (*SWDowngrade) Kind() Kind { return KindSWDowngrade }

// SWFlush tells the page's owner to surrender the page: return the data
// and invalidate the local copy. The reply is a PageReply.
type SWFlush struct {
	Page int32
}

// Kind implements Message.
func (*SWFlush) Kind() Kind { return KindSWFlush }

// SWInvalidate drops a replica (a writer is taking ownership).
type SWInvalidate struct {
	Page int32
}

// Kind implements Message.
func (*SWInvalidate) Kind() Kind { return KindSWInvalidate }

// PageIntervals names one page and the writer-local intervals whose diffs
// are wanted for it.
type PageIntervals struct {
	Page      int32
	Intervals []int32
}

// DiffBatchRequest asks a single writer node for the diffs of many
// (page, interval) pairs in one round trip. It is semantically exactly a
// sequence of DiffRequests coalesced per destination: a pure read of the
// writer's diff store, so it is idempotent and safe to retry.
type DiffBatchRequest struct {
	From int32
	// Writer names the node that authored the requested diffs (see
	// DiffRequest.Writer).
	Writer int32
	Pages  []PageIntervals
}

// Kind implements Message.
func (*DiffBatchRequest) Kind() Kind { return KindDiffBatchRequest }

// PageDiffs carries the diffs for one page, aligned with the request's
// Intervals for that page. A nil entry means the writer no longer stores
// that diff (garbage-collected); the requester must fall back to a full
// page fetch for that page.
type PageDiffs struct {
	Page  int32
	Diffs [][]byte
}

// DiffBatchReply answers a DiffBatchRequest, aligned with the request's
// Pages.
type DiffBatchReply struct {
	Pages []PageDiffs
}

// Kind implements Message.
func (*DiffBatchReply) Kind() Kind { return KindDiffBatchReply }

// LockPull asks the current holder of Lock for the notice history it
// published at its last release of the lock (grant forwarding). Seen is
// the requester's vector time, filtering notices it already has. The
// reply is a LockGrant. Serving a pull is a pure read of the holder's
// release-time snapshot, so it is idempotent and safe to retry.
type LockPull struct {
	Node int32
	Lock int32
	// Holder names the node whose release-time history is wanted; it
	// equals the destination in normal operation, but under fault
	// tolerance a pull for a crashed holder is routed to that holder's
	// ring successor, which serves the replicated history.
	Holder int32
	Seen   []int32
}

// Kind implements Message.
func (*LockPull) Kind() Kind { return KindLockPull }

// ReplicaDelta replicates one node's interval state to its ring
// successor (fault tolerance). The origin ships a delta after every
// interval close: Notices/Diffs carry the just-closed interval's write
// notices and matching diffs (aligned; nil when the close was empty),
// and Known carries the suffix of the origin's received-notice history
// accumulated since the previous delta, so the successor can answer
// lock pulls for the origin with full transitive causal history. Seq is
// a per-origin sequence number the successor dedups retried deltas on;
// Interval and Lam snapshot the origin's interval counter and Lamport
// clock for use in a later RejoinReply.
type ReplicaDelta struct {
	Origin   int32
	Seq      int32
	Interval int32
	Lam      int32
	Notices  []Notice
	Diffs    [][]byte
	Known    []Notice
}

// Kind implements Message.
func (*ReplicaDelta) Kind() Kind { return KindReplicaDelta }

// RejoinRequest asks a restarted node's ring successor for the
// synchronization state it must resume with (fault tolerance). The
// reply is a RejoinReply.
type RejoinRequest struct {
	Node int32
}

// Kind implements Message.
func (*RejoinRequest) Kind() Kind { return KindRejoinRequest }

// RejoinReply restores a rejoining node's synchronization state:
// Interval and Lam resume its interval counter and Lamport clock past
// everything it published before crashing, Seen is the successor's
// notice high-water vector (so stale notices keep deduplicating), and
// Homes is the current page-home table (so a node that missed home
// migrations while down rejoins with the cluster-wide view).
type RejoinReply struct {
	Interval int32
	Lam      int32
	Seen     []int32
	Homes    []int32
}

// Kind implements Message.
func (*RejoinReply) Kind() Kind { return KindRejoinReply }

// encoderPool recycles encoder headers so EncodeTo performs no
// allocations of its own: calling m.encodeBody through the Message
// interface makes a stack-local encoder escape, so a fresh &encoder{}
// per call would cost one allocation even when the destination buffer
// has capacity. Pooling the header removes it.
var encoderPool = sync.Pool{New: func() any { return new(encoder) }}

// Encode serializes m (kind byte + body) into a freshly allocated,
// exactly-sized buffer (a single allocation — Size presizes it).
func Encode(m Message) []byte {
	return EncodeTo(make([]byte, 0, Size(m)), m)
}

// EncodeTo serializes m (kind byte + body), appending to buf, and
// returns the extended slice — the append-style API the service hot
// path uses with pooled buffers (GetBuf/PutBuf) so steady-state
// encodes allocate nothing. buf may be nil.
func EncodeTo(buf []byte, m Message) []byte {
	e := encoderPool.Get().(*encoder)
	e.buf = buf
	e.u8(uint8(m.Kind()))
	m.encodeBody(e)
	out := e.buf
	e.buf = nil
	encoderPool.Put(e)
	return out
}

// bufs backs GetBuf/PutBuf. Capacity starts at 512 and grows to whatever
// the workload re-Puts, so steady state converges on right-sized buffers.
// Race builds fill a recycled buffer with 0xDB, so a read through a stale
// alias returns a deterministic wrong byte (which the coherence oracle and
// the digest tests trip on).
var bufs = pool.Slices[byte]{Poison: pool.PoisonByte}

// GetBuf returns a pooled, zero-length byte buffer for use with
// EncodeTo. Return it with PutBuf when the encoded bytes are no longer
// referenced. For a request buffer that is when the Call returns (the
// transports never retain a payload past it). For a buffer a message was
// decoded from it is when the last byte field of that message has been
// consumed: Decode borrows (see Kind.Borrows), so the message's payloads
// live in the buffer.
func GetBuf() []byte {
	if b := bufs.Get(); b != nil {
		return b
	}
	return make([]byte, 0, 512)
}

// PutBuf recycles a buffer obtained from GetBuf (or any buffer the
// caller owns outright — e.g. a reply buffer a transport allocated and
// will not touch again). The caller must not reference b afterwards,
// directly or through a message decoded from it. Steady state allocates
// nothing.
func PutBuf(b []byte) { bufs.Put(b) }

// Borrows reports whether a decoded message of kind k holds byte fields
// that alias the buffer it was decoded from (PageReply.Data, the Diffs of
// DiffReply / DiffBatchReply / ReplicaDelta, BarrierRelease's pushed
// diffs). Whoever decodes such a message must keep the buffer until those
// fields have been consumed, and copy what it retains past that point.
func (k Kind) Borrows() bool {
	switch k {
	case KindPageReply, KindDiffReply, KindDiffBatchReply, KindBarrierRelease, KindReplicaDelta:
		return true
	}
	return false
}

// Decode parses a message produced by Encode. It borrows: every []byte
// field of the result is a sub-slice of b (capacity clipped to its
// length, so an append can never write into b), valid for as long as the
// caller leaves b alone. Integer and notice fields are copied out. A
// Pooled kind comes from its pool, its lists decoded into the capacity
// the message kept, and its owner returns it with Release. Kind.Borrows
// names the kinds that have byte fields.
func Decode(b []byte) (Message, error) {
	// Each case calls its type's decodeBody directly rather than through
	// the Message interface: a static call lets the decoder stay on this
	// frame, where an interface call would move it to the heap on every
	// message.
	d := &decoder{buf: b}
	k, err := d.u8()
	if err != nil {
		return nil, err
	}
	var m Message
	switch Kind(k) {
	case KindPageRequest:
		v := New[*PageRequest]()
		m, err = v, v.decodeBody(d)
	case KindPageReply:
		v := New[*PageReply]()
		m, err = v, v.decodeBody(d)
	case KindDiffRequest:
		v := New[*DiffRequest]()
		m, err = v, v.decodeBody(d)
	case KindDiffReply:
		v := New[*DiffReply]()
		m, err = v, v.decodeBody(d)
	case KindBarrierEnter:
		v := New[*BarrierEnter]()
		m, err = v, v.decodeBody(d)
	case KindBarrierRelease:
		v := New[*BarrierRelease]()
		m, err = v, v.decodeBody(d)
	case KindLockAcquire:
		v := New[*LockAcquire]()
		m, err = v, v.decodeBody(d)
	case KindLockGrant:
		v := New[*LockGrant]()
		m, err = v, v.decodeBody(d)
	case KindLockRelease:
		v := New[*LockRelease]()
		m, err = v, v.decodeBody(d)
	case KindGCCollect:
		v := New[*GCCollect]()
		m, err = v, v.decodeBody(d)
	case KindAck:
		v := &Ack{}
		m, err = v, v.decodeBody(d)
	case KindSWRead:
		v := &SWRead{}
		m, err = v, v.decodeBody(d)
	case KindSWWrite:
		v := &SWWrite{}
		m, err = v, v.decodeBody(d)
	case KindSWDowngrade:
		v := &SWDowngrade{}
		m, err = v, v.decodeBody(d)
	case KindSWFlush:
		v := &SWFlush{}
		m, err = v, v.decodeBody(d)
	case KindSWInvalidate:
		v := &SWInvalidate{}
		m, err = v, v.decodeBody(d)
	case KindDiffBatchRequest:
		v := New[*DiffBatchRequest]()
		m, err = v, v.decodeBody(d)
	case KindDiffBatchReply:
		v := New[*DiffBatchReply]()
		m, err = v, v.decodeBody(d)
	case KindLockPull:
		v := New[*LockPull]()
		m, err = v, v.decodeBody(d)
	case KindReplicaDelta:
		v := &ReplicaDelta{}
		m, err = v, v.decodeBody(d)
	case KindRejoinRequest:
		v := &RejoinRequest{}
		m, err = v, v.decodeBody(d)
	case KindRejoinReply:
		v := &RejoinReply{}
		m, err = v, v.decodeBody(d)
	default:
		return nil, fmt.Errorf("msg: unknown kind %d", k)
	}
	if err != nil {
		return nil, fmt.Errorf("msg: decode kind %d: %w", k, err)
	}
	if d.off != len(d.buf) {
		return nil, fmt.Errorf("msg: %d trailing bytes after kind %d", len(d.buf)-d.off, k)
	}
	return m, nil
}

// Size returns the encoded size of m in bytes. It is computed directly
// from the message fields — previously this round-tripped a full Encode
// just to take len, allocating an entire throwaway buffer per call on
// the transport accounting path. TestSizeMatchesEncode pins the
// equivalence with len(Encode(m)) for every message kind.
func Size(m Message) int { return 1 + m.sizeBody() }

// Size helpers mirroring the encoder's field layouts.

// i32sSize is the wire size of a counted []int32.
func i32sSize(n int) int { return 4 + 4*n }

// bytesSize is the wire size of a counted byte field (nil encodes the
// same as empty here; fields using the -1 nil marker cost 4 either way).
func bytesSize(b []byte) int { return 4 + len(b) }

// noticesSize is the wire size of a counted []Notice.
func noticesSize(ns []Notice) int { return 4 + noticeWire*len(ns) }

// pushesSize is the wire size of a counted []PushedDiff.
func pushesSize(ps []PushedDiff) int {
	n := 4
	for _, pd := range ps {
		n += 12 + bytesSize(pd.Diff)
	}
	return n
}

func (m *PageRequest) sizeBody() int { return 8 + noticesSize(m.Pending) }

func (m *PageReply) sizeBody() int {
	return 4 + bytesSize(m.Data) + i32sSize(len(m.AppliedVT))
}

func (m *DiffRequest) sizeBody() int { return 12 + i32sSize(len(m.Intervals)) }

func (m *DiffReply) sizeBody() int {
	n := 4 + 4
	for _, df := range m.Diffs {
		n += bytesSize(df) // nil → 4 (the -1 marker), same as empty
	}
	return n
}

func (m *BarrierEnter) sizeBody() int {
	n := 12 + noticesSize(m.Notices) + i32sSize(len(m.Hot)) + i32sSize(len(m.Entered)) + 4
	for _, h := range m.HotSets {
		n += 4 + i32sSize(len(h.Pages))
	}
	return n
}

func (m *BarrierRelease) sizeBody() int {
	n := 8 + noticesSize(m.Notices) + pushesSize(m.Push) + 4 + 8*len(m.Homes) + 4
	for _, np := range m.Relay {
		n += 4 + pushesSize(np.Push)
	}
	return n
}

func (m *LockAcquire) sizeBody() int { return 12 + i32sSize(len(m.Seen)) }

func (m *LockGrant) sizeBody() int { return 16 + noticesSize(m.Notices) }

func (m *LockRelease) sizeBody() int { return 12 + noticesSize(m.Notices) }

func (m *GCCollect) sizeBody() int { return i32sSize(len(m.Pages)) }

func (*Ack) sizeBody() int { return 0 }

func (m *SWRead) sizeBody() int { return 8 }

func (m *SWWrite) sizeBody() int { return 8 }

func (m *SWDowngrade) sizeBody() int { return 4 }

func (m *SWFlush) sizeBody() int { return 4 }

func (m *SWInvalidate) sizeBody() int { return 4 }

func (m *DiffBatchRequest) sizeBody() int {
	n := 8 + 4
	for _, pi := range m.Pages {
		n += 4 + i32sSize(len(pi.Intervals))
	}
	return n
}

func (m *DiffBatchReply) sizeBody() int {
	n := 4
	for _, pd := range m.Pages {
		n += 4 + 4
		for _, df := range pd.Diffs {
			n += bytesSize(df) // nil → 4 (the -1 marker)
		}
	}
	return n
}

func (m *LockPull) sizeBody() int { return 12 + i32sSize(len(m.Seen)) }

func (m *ReplicaDelta) sizeBody() int {
	n := 16 + noticesSize(m.Notices) + 4 + noticesSize(m.Known)
	for _, df := range m.Diffs {
		n += bytesSize(df) // nil → 4 (the -1 marker)
	}
	return n
}

func (m *RejoinRequest) sizeBody() int { return 4 }

func (m *RejoinReply) sizeBody() int {
	return 8 + i32sSize(len(m.Seen)) + i32sSize(len(m.Homes))
}

func (m *PageRequest) encodeBody(e *encoder) {
	e.i32(m.From)
	e.i32(m.Page)
	e.notices(m.Pending)
}

func (m *PageRequest) decodeBody(d *decoder) (err error) {
	if m.From, err = d.i32(); err != nil {
		return err
	}
	if m.Page, err = d.i32(); err != nil {
		return err
	}
	m.Pending, err = d.notices(m.Pending)
	return err
}

func (m *PageReply) encodeBody(e *encoder) {
	e.i32(m.Page)
	e.bytes(m.Data)
	e.i32s(m.AppliedVT)
}

func (m *PageReply) decodeBody(d *decoder) (err error) {
	if m.Page, err = d.i32(); err != nil {
		return err
	}
	if m.Data, err = d.bytes(); err != nil {
		return err
	}
	m.AppliedVT, err = d.i32s(m.AppliedVT)
	return err
}

func (m *DiffRequest) encodeBody(e *encoder) {
	e.i32(m.From)
	e.i32(m.Page)
	e.i32(m.Writer)
	e.i32s(m.Intervals)
}

func (m *DiffRequest) decodeBody(d *decoder) (err error) {
	if m.From, err = d.i32(); err != nil {
		return err
	}
	if m.Page, err = d.i32(); err != nil {
		return err
	}
	if m.Writer, err = d.i32(); err != nil {
		return err
	}
	m.Intervals, err = d.i32s(m.Intervals)
	return err
}

func (m *DiffReply) encodeBody(e *encoder) {
	e.i32(m.Page)
	e.i32(int32(len(m.Diffs)))
	for _, df := range m.Diffs {
		if df == nil {
			e.i32(-1)
			continue
		}
		e.bytes(df)
	}
}

func (m *DiffReply) decodeBody(d *decoder) (err error) {
	if m.Page, err = d.i32(); err != nil {
		return err
	}
	n, err := d.length()
	if err != nil {
		return err
	}
	m.Diffs = resize(m.Diffs, n)
	for i := range m.Diffs {
		if m.Diffs[i], err = d.bytesOrNil(); err != nil {
			return err
		}
	}
	return nil
}

func (m *BarrierEnter) encodeBody(e *encoder) {
	e.i32(m.Node)
	e.i32(m.Episode)
	e.i32(m.Lam)
	e.notices(m.Notices)
	e.i32s(m.Hot)
	e.i32s(m.Entered)
	e.i32(int32(len(m.HotSets)))
	for _, h := range m.HotSets {
		e.i32(h.Node)
		e.i32s(h.Pages)
	}
}

func (m *BarrierEnter) decodeBody(d *decoder) (err error) {
	if m.Node, err = d.i32(); err != nil {
		return err
	}
	if m.Episode, err = d.i32(); err != nil {
		return err
	}
	if m.Lam, err = d.i32(); err != nil {
		return err
	}
	if m.Notices, err = d.notices(m.Notices); err != nil {
		return err
	}
	if m.Hot, err = d.i32s(m.Hot); err != nil {
		return err
	}
	if m.Entered, err = d.i32s(m.Entered); err != nil {
		return err
	}
	n, err := d.length()
	if err != nil {
		return err
	}
	m.HotSets = resize(m.HotSets, n)
	for i := range m.HotSets {
		h := &m.HotSets[i]
		if h.Node, err = d.i32(); err != nil {
			return err
		}
		if h.Pages, err = d.i32s(h.Pages); err != nil {
			return err
		}
	}
	return nil
}

func (m *BarrierRelease) encodeBody(e *encoder) {
	e.i32(m.Episode)
	e.i32(m.Lam)
	e.notices(m.Notices)
	e.pushes(m.Push)
	e.i32(int32(len(m.Homes)))
	for _, ph := range m.Homes {
		e.i32(ph.Page)
		e.i32(ph.Home)
	}
	e.i32(int32(len(m.Relay)))
	for _, np := range m.Relay {
		e.i32(np.Node)
		e.pushes(np.Push)
	}
}

func (m *BarrierRelease) decodeBody(d *decoder) (err error) {
	if m.Episode, err = d.i32(); err != nil {
		return err
	}
	if m.Lam, err = d.i32(); err != nil {
		return err
	}
	if m.Notices, err = d.notices(m.Notices); err != nil {
		return err
	}
	if m.Push, err = d.pushes(m.Push); err != nil {
		return err
	}
	n, err := d.length()
	if err != nil {
		return err
	}
	// Each entry needs eight bytes: bound the count by them before the
	// list grows to it.
	if n > (len(d.buf)-d.off)/8 {
		return fmt.Errorf("msg: bad home count %d", n)
	}
	m.Homes = resize(m.Homes, n)
	for i := range m.Homes {
		m.Homes[i].Page, _ = d.i32() // cannot fail: 8*n bytes are left
		m.Homes[i].Home, _ = d.i32()
	}
	if n, err = d.length(); err != nil {
		return err
	}
	m.Relay = resize(m.Relay, n)
	for i := range m.Relay {
		np := &m.Relay[i]
		if np.Node, err = d.i32(); err != nil {
			return err
		}
		if np.Push, err = d.pushes(np.Push); err != nil {
			return err
		}
	}
	return nil
}

func (m *LockAcquire) encodeBody(e *encoder) {
	e.i32(m.Node)
	e.i32(m.Lock)
	e.i32(m.Pos)
	e.i32s(m.Seen)
}

func (m *LockAcquire) decodeBody(d *decoder) (err error) {
	if m.Node, err = d.i32(); err != nil {
		return err
	}
	if m.Lock, err = d.i32(); err != nil {
		return err
	}
	if m.Pos, err = d.i32(); err != nil {
		return err
	}
	m.Seen, err = d.i32s(m.Seen)
	return err
}

func (m *LockGrant) encodeBody(e *encoder) {
	e.i32(m.Lock)
	e.i32(m.Lam)
	e.i32(m.Pos)
	e.i32(m.Holder)
	e.notices(m.Notices)
}

func (m *LockGrant) decodeBody(d *decoder) (err error) {
	if m.Lock, err = d.i32(); err != nil {
		return err
	}
	if m.Lam, err = d.i32(); err != nil {
		return err
	}
	if m.Pos, err = d.i32(); err != nil {
		return err
	}
	if m.Holder, err = d.i32(); err != nil {
		return err
	}
	m.Notices, err = d.notices(m.Notices)
	return err
}

func (m *LockRelease) encodeBody(e *encoder) {
	e.i32(m.Node)
	e.i32(m.Lock)
	e.i32(m.Lam)
	e.notices(m.Notices)
}

func (m *LockRelease) decodeBody(d *decoder) (err error) {
	if m.Node, err = d.i32(); err != nil {
		return err
	}
	if m.Lock, err = d.i32(); err != nil {
		return err
	}
	if m.Lam, err = d.i32(); err != nil {
		return err
	}
	m.Notices, err = d.notices(m.Notices)
	return err
}

func (m *GCCollect) encodeBody(e *encoder) { e.i32s(m.Pages) }

func (m *GCCollect) decodeBody(d *decoder) (err error) {
	m.Pages, err = d.i32s(m.Pages)
	return err
}

func (*Ack) encodeBody(*encoder) {}

func (*Ack) decodeBody(*decoder) error { return nil }

func (m *SWRead) encodeBody(e *encoder) {
	e.i32(m.From)
	e.i32(m.Page)
}

func (m *SWRead) decodeBody(d *decoder) (err error) {
	if m.From, err = d.i32(); err != nil {
		return err
	}
	m.Page, err = d.i32()
	return err
}

func (m *SWWrite) encodeBody(e *encoder) {
	e.i32(m.From)
	e.i32(m.Page)
}

func (m *SWWrite) decodeBody(d *decoder) (err error) {
	if m.From, err = d.i32(); err != nil {
		return err
	}
	m.Page, err = d.i32()
	return err
}

func (m *SWDowngrade) encodeBody(e *encoder) { e.i32(m.Page) }

func (m *SWDowngrade) decodeBody(d *decoder) (err error) {
	m.Page, err = d.i32()
	return err
}

func (m *SWFlush) encodeBody(e *encoder) { e.i32(m.Page) }

func (m *SWFlush) decodeBody(d *decoder) (err error) {
	m.Page, err = d.i32()
	return err
}

func (m *SWInvalidate) encodeBody(e *encoder) { e.i32(m.Page) }

func (m *SWInvalidate) decodeBody(d *decoder) (err error) {
	m.Page, err = d.i32()
	return err
}

func (m *DiffBatchRequest) encodeBody(e *encoder) {
	e.i32(m.From)
	e.i32(m.Writer)
	e.i32(int32(len(m.Pages)))
	for _, pi := range m.Pages {
		e.i32(pi.Page)
		e.i32s(pi.Intervals)
	}
}

func (m *DiffBatchRequest) decodeBody(d *decoder) (err error) {
	if m.From, err = d.i32(); err != nil {
		return err
	}
	if m.Writer, err = d.i32(); err != nil {
		return err
	}
	n, err := d.length()
	if err != nil {
		return err
	}
	m.Pages = resize(m.Pages, n)
	for i := range m.Pages {
		if m.Pages[i].Page, err = d.i32(); err != nil {
			return err
		}
		if m.Pages[i].Intervals, err = d.i32s(m.Pages[i].Intervals); err != nil {
			return err
		}
	}
	return nil
}

func (m *DiffBatchReply) encodeBody(e *encoder) {
	e.i32(int32(len(m.Pages)))
	for _, pd := range m.Pages {
		e.i32(pd.Page)
		e.i32(int32(len(pd.Diffs)))
		for _, df := range pd.Diffs {
			if df == nil {
				e.i32(-1)
				continue
			}
			e.bytes(df)
		}
	}
}

func (m *DiffBatchReply) decodeBody(d *decoder) (err error) {
	n, err := d.length()
	if err != nil {
		return err
	}
	m.Pages = resize(m.Pages, n)
	for i := range m.Pages {
		if m.Pages[i].Page, err = d.i32(); err != nil {
			return err
		}
		k, err := d.length()
		if err != nil {
			return err
		}
		m.Pages[i].Diffs = resize(m.Pages[i].Diffs, k)
		for j := range m.Pages[i].Diffs {
			if m.Pages[i].Diffs[j], err = d.bytesOrNil(); err != nil {
				return err
			}
		}
	}
	return nil
}

func (m *LockPull) encodeBody(e *encoder) {
	e.i32(m.Node)
	e.i32(m.Lock)
	e.i32(m.Holder)
	e.i32s(m.Seen)
}

func (m *LockPull) decodeBody(d *decoder) (err error) {
	if m.Node, err = d.i32(); err != nil {
		return err
	}
	if m.Lock, err = d.i32(); err != nil {
		return err
	}
	if m.Holder, err = d.i32(); err != nil {
		return err
	}
	m.Seen, err = d.i32s(m.Seen)
	return err
}

func (m *ReplicaDelta) encodeBody(e *encoder) {
	e.i32(m.Origin)
	e.i32(m.Seq)
	e.i32(m.Interval)
	e.i32(m.Lam)
	e.notices(m.Notices)
	e.i32(int32(len(m.Diffs)))
	for _, df := range m.Diffs {
		if df == nil {
			e.i32(-1)
			continue
		}
		e.bytes(df)
	}
	e.notices(m.Known)
}

func (m *ReplicaDelta) decodeBody(d *decoder) (err error) {
	if m.Origin, err = d.i32(); err != nil {
		return err
	}
	if m.Seq, err = d.i32(); err != nil {
		return err
	}
	if m.Interval, err = d.i32(); err != nil {
		return err
	}
	if m.Lam, err = d.i32(); err != nil {
		return err
	}
	if m.Notices, err = d.notices(nil); err != nil {
		return err
	}
	n, err := d.length()
	if err != nil {
		return err
	}
	m.Diffs = make([][]byte, n)
	for i := range m.Diffs {
		if m.Diffs[i], err = d.bytesOrNil(); err != nil {
			return err
		}
	}
	m.Known, err = d.notices(nil)
	return err
}

func (m *RejoinRequest) encodeBody(e *encoder) { e.i32(m.Node) }

func (m *RejoinRequest) decodeBody(d *decoder) (err error) {
	m.Node, err = d.i32()
	return err
}

func (m *RejoinReply) encodeBody(e *encoder) {
	e.i32(m.Interval)
	e.i32(m.Lam)
	e.i32s(m.Seen)
	e.i32s(m.Homes)
}

func (m *RejoinReply) decodeBody(d *decoder) (err error) {
	if m.Interval, err = d.i32(); err != nil {
		return err
	}
	if m.Lam, err = d.i32(); err != nil {
		return err
	}
	if m.Seen, err = d.i32s(nil); err != nil {
		return err
	}
	m.Homes, err = d.i32s(nil)
	return err
}

type encoder struct{ buf []byte }

func (e *encoder) u8(v uint8) { e.buf = append(e.buf, v) }

func (e *encoder) i32(v int32) {
	e.buf = append(e.buf, byte(v), byte(v>>8), byte(v>>16), byte(v>>24))
}

func (e *encoder) i32s(vs []int32) {
	e.i32(int32(len(vs)))
	for _, v := range vs {
		e.i32(v)
	}
}

func (e *encoder) bytes(b []byte) {
	e.i32(int32(len(b)))
	e.buf = append(e.buf, b...)
}

func (e *encoder) notices(ns []Notice) {
	e.i32(int32(len(ns)))
	for _, n := range ns {
		e.i32(n.Page)
		e.i32(n.Writer)
		e.i32(n.Interval)
		e.i32(n.Lam)
	}
}

func (e *encoder) pushes(ps []PushedDiff) {
	e.i32(int32(len(ps)))
	for _, pd := range ps {
		e.i32(pd.Page)
		e.i32(pd.Writer)
		e.i32(pd.Interval)
		e.bytes(pd.Diff)
	}
}

type decoder struct {
	buf []byte
	off int
}

func (d *decoder) u8() (uint8, error) {
	if d.off >= len(d.buf) {
		return 0, ErrTruncated
	}
	v := d.buf[d.off]
	d.off++
	return v, nil
}

func (d *decoder) i32() (int32, error) {
	if d.off+4 > len(d.buf) {
		return 0, ErrTruncated
	}
	b := d.buf[d.off:]
	d.off += 4
	return int32(uint32(b[0]) | uint32(b[1])<<8 | uint32(b[2])<<16 | uint32(b[3])<<24), nil
}

// length reads a non-negative element count, bounding it by the remaining
// buffer so corrupt input cannot trigger huge allocations.
func (d *decoder) length() (int, error) {
	v, err := d.i32()
	if err != nil {
		return 0, err
	}
	if v < 0 || int(v) > len(d.buf)-d.off {
		return 0, fmt.Errorf("msg: bad length %d with %d bytes left", v, len(d.buf)-d.off)
	}
	return int(v), nil
}

// bytes decodes a counted byte field as a view of the input: no copy,
// capacity clipped to the field.
func (d *decoder) bytes() ([]byte, error) {
	n, err := d.length()
	if err != nil {
		return nil, err
	}
	out := d.buf[d.off : d.off+n : d.off+n]
	d.off += n
	return out, nil
}

// bytesOrNil decodes a byte field where length -1 encodes nil.
func (d *decoder) bytesOrNil() ([]byte, error) {
	save := d.off
	v, err := d.i32()
	if err != nil {
		return nil, err
	}
	if v == -1 {
		return nil, nil
	}
	d.off = save
	return d.bytes()
}

// i32s decodes a counted []int32 into dst's capacity. The count is
// bounded by the four bytes each element needs: length alone admits a list
// four times larger than the input could hold.
func (d *decoder) i32s(dst []int32) ([]int32, error) {
	n, err := d.length()
	if err != nil {
		return nil, err
	}
	if n > (len(d.buf)-d.off)/4 {
		return nil, fmt.Errorf("msg: bad int32 count %d with %d bytes left", n, len(d.buf)-d.off)
	}
	out := resize(dst, n)
	for i := range out {
		out[i], _ = d.i32() // cannot fail: 4*n bytes are left
	}
	return out, nil
}

// pushes decodes a counted []PushedDiff into dst's capacity, each diff a
// view of the input.
func (d *decoder) pushes(dst []PushedDiff) ([]PushedDiff, error) {
	n, err := d.length()
	if err != nil {
		return nil, err
	}
	out := resize(dst, n)
	for i := range out {
		pd := &out[i]
		if pd.Page, err = d.i32(); err != nil {
			return nil, err
		}
		if pd.Writer, err = d.i32(); err != nil {
			return nil, err
		}
		if pd.Interval, err = d.i32(); err != nil {
			return nil, err
		}
		if pd.Diff, err = d.bytes(); err != nil {
			return nil, err
		}
	}
	return out, nil
}

// notices decodes a counted []Notice into dst's capacity. A zero count is
// an empty non-nil list.
func (d *decoder) notices(dst []Notice) ([]Notice, error) {
	n, err := d.length()
	if err != nil {
		return nil, err
	}
	// Re-bound the count with the tighter per-notice element size.
	if n > (len(d.buf)-d.off)/noticeWire {
		return nil, fmt.Errorf("msg: bad notice count %d", n)
	}
	out := resize(dst, n)
	for i := range out {
		if out[i].Page, err = d.i32(); err != nil {
			return nil, err
		}
		if out[i].Writer, err = d.i32(); err != nil {
			return nil, err
		}
		if out[i].Interval, err = d.i32(); err != nil {
			return nil, err
		}
		if out[i].Lam, err = d.i32(); err != nil {
			return nil, err
		}
	}
	return out, nil
}
