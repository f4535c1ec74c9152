package msg

import (
	"bytes"
	"testing"
	"testing/quick"
)

// sizeCorpus returns at least one instance of every message kind,
// including edge shapes (nil vs empty slices, nil diff entries) whose
// encodings differ from the common case.
func sizeCorpus() []Message {
	ns := []Notice{{Page: 1, Writer: 2, Interval: 3, Lam: 7}, {Page: 9, Interval: -1}}
	return []Message{
		&PageRequest{From: 3, Page: 77, Pending: ns},
		&PageRequest{},
		&PageReply{Page: 77, Data: []byte{1, 2, 3, 4, 5}, AppliedVT: []int32{1, 0, 4}},
		&PageReply{Page: 1, Data: []byte{}},
		&DiffRequest{From: 1, Page: 2, Intervals: []int32{4, 5, 6}},
		&DiffRequest{},
		&DiffReply{Page: 2, Diffs: [][]byte{{1, 2}, nil, {}}},
		&DiffReply{Page: 2},
		&BarrierEnter{Node: 1, Episode: 12, Lam: 3, Notices: ns},
		&BarrierEnter{Node: 2, Episode: 13, Lam: 4, Hot: []int32{0, 5, 17}},
		&BarrierEnter{Node: 3, Episode: 14, Lam: 5, Notices: ns,
			Entered: []int32{3, 7, 8},
			HotSets: []NodeHot{{Node: 3, Pages: []int32{1, 2}}, {Node: 7}}},
		&BarrierRelease{Episode: 12, Lam: 9, Notices: ns},
		&BarrierRelease{Episode: 13, Lam: 10, Notices: ns, Push: []PushedDiff{
			{Page: 5, Writer: 1, Interval: 2, Diff: []byte{9, 8, 7}},
			{Page: 17, Interval: 4, Diff: []byte{1}},
		}},
		&BarrierRelease{Episode: 14, Lam: 11, Notices: ns,
			Homes: []PageHome{{Page: 3, Home: 1}, {Page: 9, Home: 0}},
			Relay: []NodePush{
				{Node: 4, Push: []PushedDiff{{Page: 2, Writer: 1, Interval: 3, Diff: []byte{5, 5}}}},
				{Node: 9},
			}},
		&LockAcquire{Node: 2, Lock: 5},
		&LockGrant{Lock: 5, Lam: 2, Pos: 7, Notices: ns},
		&LockGrant{Lock: 6, Lam: 3, Holder: -1},
		&LockRelease{Node: 2, Lock: 5, Lam: 4},
		&LockPull{Node: 1, Lock: 5, Pos: 3, Seen: []int32{2, 0, 7}},
		&LockPull{},
		&GCCollect{Pages: []int32{4}},
		&GCCollect{Pages: []int32{1, 2, 900}},
		&GCCollect{},
		&Ack{},
		&SWRead{From: 1, Page: 2},
		&SWWrite{From: 3, Page: 4},
		&SWDowngrade{Page: 5},
		&SWFlush{Page: 6},
		&SWInvalidate{Page: 7},
		&DiffBatchRequest{From: 2, Pages: []PageIntervals{
			{Page: 4, Intervals: []int32{1, 2, 9}},
			{Page: 8},
		}},
		&DiffBatchRequest{},
		&DiffBatchReply{Pages: []PageDiffs{
			{Page: 4, Diffs: [][]byte{{1, 2}, nil, {}}},
			{Page: 8},
		}},
		&DiffBatchReply{},
		&ReplicaDelta{Origin: 1, Seq: 4, Interval: 3, Lam: 9, Notices: ns,
			Diffs: [][]byte{{1, 2}, nil}, Known: ns},
		&ReplicaDelta{Origin: 2, Seq: 5, Interval: 3, Lam: 10},
		&RejoinRequest{Node: 3},
		&RejoinReply{Interval: 7, Lam: 12, Seen: []int32{1, 0, 4}, Homes: []int32{0, 1, 2, 0}},
		&RejoinReply{},
	}
}

// TestSizeAllKinds is the equivalence test for the direct Size
// computation: Size(m) must equal len(Encode(m)) for every kind, and
// the corpus must cover every kind so a new message type cannot ship
// without a size rule.
func TestSizeAllKinds(t *testing.T) {
	covered := make(map[Kind]bool)
	for _, m := range sizeCorpus() {
		covered[m.Kind()] = true
		b := Encode(m)
		if got, want := Size(m), len(b); got != want {
			t.Errorf("%T: Size = %d, len(Encode) = %d", m, got, want)
		}
		// Encode presizes with Size, so the allocation must be exact.
		if cap(b) != len(b) {
			t.Errorf("%T: Encode buffer cap %d != len %d (Size over-estimated)", m, cap(b), len(b))
		}
	}
	for k := Kind(1); int(k) < KindCount; k++ {
		if !covered[k] {
			t.Errorf("size corpus missing kind %v", k)
		}
	}
}

// TestSizeQuick hammers the variable-length messages with random
// shapes: the hand-written size rules must track the encoder exactly.
func TestSizeQuick(t *testing.T) {
	check := func(data []byte, vt []int32, nNotices uint8) bool {
		ns := make([]Notice, int(nNotices)%37)
		m1 := &PageReply{Page: 1, Data: data, AppliedVT: vt}
		m2 := &BarrierRelease{Lam: 1, Notices: ns, Push: []PushedDiff{{Diff: data}}}
		m3 := &DiffBatchReply{Pages: []PageDiffs{{Page: 2, Diffs: [][]byte{data, nil}}}}
		return Size(m1) == len(Encode(m1)) &&
			Size(m2) == len(Encode(m2)) &&
			Size(m3) == len(Encode(m3))
	}
	if err := quick.Check(check, nil); err != nil {
		t.Fatal(err)
	}
}

// TestEncodeTo pins the append contract: EncodeTo appends after any
// existing bytes, produces exactly the Encode image, and reusing a
// pooled buffer round-trips through Decode.
func TestEncodeTo(t *testing.T) {
	for _, m := range sizeCorpus() {
		want := Encode(m)
		// Appends after a prefix.
		withPrefix := EncodeTo([]byte{0xaa, 0xbb}, m)
		if !bytes.Equal(withPrefix[:2], []byte{0xaa, 0xbb}) || !bytes.Equal(withPrefix[2:], want) {
			t.Fatalf("%T: EncodeTo prefix mismatch", m)
		}
		// Nil buffer works.
		if !bytes.Equal(EncodeTo(nil, m), want) {
			t.Fatalf("%T: EncodeTo(nil) != Encode", m)
		}
		// Pooled-buffer path round-trips.
		pb := EncodeTo(GetBuf(), m)
		got, err := Decode(pb)
		if err != nil {
			t.Fatalf("%T: decode pooled encode: %v", m, err)
		}
		if got.Kind() != m.Kind() {
			t.Fatalf("%T: kind mismatch after pooled encode", m)
		}
		PutBuf(pb)
	}
}

// TestEncodeToZeroAlloc pins the hot-path claim: once a pooled buffer
// has grown to steady-state capacity, EncodeTo performs zero
// allocations per message.
func TestEncodeToZeroAlloc(t *testing.T) {
	m := &DiffRequest{From: 1, Page: 2, Intervals: []int32{4, 5, 6, 7}}
	buf := make([]byte, 0, 256)
	allocs := testing.AllocsPerRun(1000, func() {
		buf = EncodeTo(buf[:0], m)
	})
	if allocs != 0 {
		t.Fatalf("EncodeTo allocs/op = %v, want 0", allocs)
	}
	// And Size itself must not allocate (it used to Encode internally).
	allocs = testing.AllocsPerRun(1000, func() {
		_ = Size(m)
	})
	if allocs != 0 {
		t.Fatalf("Size allocs/op = %v, want 0", allocs)
	}
}
