package msg

import (
	"bytes"
	"reflect"
	"testing"
)

// FuzzDecode checks the wire decoder never panics and that every
// successfully decoded message re-encodes to the identical bytes
// (canonical round trip). The seed corpus covers every message kind,
// including the optional fields (BarrierEnter.Hot, BarrierRelease.Push,
// lock-grant positions) and the batched diff transfer pair.
func FuzzDecode(f *testing.F) {
	seeds := []Message{
		&PageRequest{From: 1, Page: 2, Pending: []Notice{{Page: 2, Writer: 0, Interval: 1, Lam: 1}}},
		&PageReply{Page: 2, Data: []byte{1, 2, 3}, AppliedVT: []int32{0, 1}},
		&DiffRequest{From: 0, Page: 1, Intervals: []int32{1, 2}},
		&DiffReply{Page: 1, Diffs: [][]byte{{0, 0, 4, 0, 9, 9, 9, 9}, nil}},
		&BarrierEnter{Node: 1, Episode: 3, Lam: 4},
		&BarrierEnter{Node: 2, Episode: 3, Lam: 5,
			Notices: []Notice{{Page: 0, Writer: 2, Interval: 4, Lam: 5}},
			Hot:     []int32{0, 3, 7}},
		&BarrierEnter{Node: 5, Episode: 3, Lam: 6,
			Entered: []int32{5, 11, 12},
			HotSets: []NodeHot{{Node: 5, Pages: []int32{2}}, {Node: 11, Pages: []int32{}}}},
		&BarrierRelease{Episode: 3, Lam: 4, Notices: []Notice{{Page: 1, Writer: 1, Interval: 1, Lam: 1}}},
		&BarrierRelease{Episode: 4, Lam: 9,
			Notices: []Notice{{Page: 1, Writer: 1, Interval: 2, Lam: 8}},
			Push:    []PushedDiff{{Page: 1, Writer: 1, Interval: 2, Diff: []byte{0, 0, 4, 0, 1, 2, 3, 4}}}},
		&BarrierRelease{Episode: 5, Lam: 10,
			Homes: []PageHome{{Page: 2, Home: 1}},
			Relay: []NodePush{{Node: 3, Push: []PushedDiff{{Page: 2, Writer: 0, Interval: 1, Diff: []byte{0, 0, 4, 0, 9, 9, 9, 9}}}}}},
		&LockPull{Node: 2, Lock: 7, Seen: []int32{1, 0, 4}},
		&LockAcquire{Node: 0, Lock: 7, Seen: []int32{1, 2}},
		&LockAcquire{Node: 3, Lock: 1, Pos: 5, Seen: []int32{0, 0, 2, 1}},
		&LockGrant{Lock: 7, Lam: 2},
		&LockGrant{Lock: 1, Lam: 6, Pos: 8,
			Notices: []Notice{{Page: 2, Writer: 0, Interval: 3, Lam: 6}}},
		&LockRelease{Node: 0, Lock: 7, Lam: 2},
		&LockRelease{Node: 1, Lock: 0, Lam: 9,
			Notices: []Notice{{Page: 5, Writer: 1, Interval: 2, Lam: 9}}},
		&GCCollect{Pages: []int32{3}},
		&GCCollect{Pages: []int32{0, 7, 8, 4095}},
		&GCCollect{},
		&Ack{},
		&SWRead{From: 1, Page: 0},
		&SWWrite{From: 1, Page: 0},
		&SWDowngrade{Page: 0},
		&SWFlush{Page: 0},
		&SWInvalidate{Page: 0},
		&DiffBatchRequest{From: 2, Pages: []PageIntervals{
			{Page: 0, Intervals: []int32{1, 2}},
			{Page: 4, Intervals: []int32{3}},
		}},
		&DiffBatchReply{Pages: []PageDiffs{
			{Page: 0, Diffs: [][]byte{{0, 0, 4, 0, 1, 2, 3, 4}, nil}},
			{Page: 4, Diffs: [][]byte{nil}},
		}},
		&ReplicaDelta{Origin: 1, Seq: 2, Interval: 3, Lam: 4,
			Notices: []Notice{{Page: 1, Writer: 1, Interval: 3, Lam: 4}},
			Diffs:   [][]byte{{0, 0, 4, 0, 9, 9, 9, 9}},
			Known:   []Notice{{Page: 0, Writer: 2, Interval: 1, Lam: 2}}},
		&RejoinRequest{Node: 2},
		&RejoinReply{Interval: 5, Lam: 9, Seen: []int32{2, 0, 1}, Homes: []int32{0, 1, 2}},
	}
	for _, m := range seeds {
		f.Add(Encode(m))
	}
	f.Add([]byte{})
	f.Add([]byte{0xff, 0x01, 0x02})

	f.Fuzz(func(t *testing.T, data []byte) {
		m, err := Decode(data)
		if err != nil {
			return
		}
		re := Encode(m)
		if !bytes.Equal(re, data) {
			t.Fatalf("non-canonical round trip:\nin:  % x\nout: % x", data, re)
		}
	})
}

// FuzzEncodeDecodeRoundTrip approaches the codec from the other side:
// it builds a structurally valid message of an arbitrary kind from fuzzed
// field values, encodes it, and requires Decode to reproduce it exactly
// (deep equality and byte-identical re-encoding). FuzzDecode can only
// explore inputs the decoder accepts; this target proves the encoder
// never produces bytes the decoder mangles.
func FuzzEncodeDecodeRoundTrip(f *testing.F) {
	f.Add(uint8(1), int32(1), int32(2), []byte{1, 2, 3, 4, 5, 6, 7, 8})
	f.Add(uint8(4), int32(-1), int32(0), []byte{})
	f.Add(uint8(6), int32(3), int32(9), []byte{9, 8, 7, 6, 5})
	f.Add(uint8(17), int32(2), int32(1), []byte{0, 0, 4, 0})
	f.Add(uint8(18), int32(0), int32(7), []byte{1})
	f.Add(uint8(KindGCCollect), int32(0), int32(0), []byte{5, 0, 0, 0, 9, 0, 0}) // 3 pages
	f.Add(uint8(KindGCCollect), int32(0), int32(0), []byte{})                    // empty list

	f.Fuzz(func(t *testing.T, kind uint8, a, b int32, blob []byte) {
		m := buildFuzzMessage(Kind(int(kind)%KindCount), a, b, blob)
		if m == nil {
			return // Kind 0 is invalid by construction.
		}
		enc := Encode(m)
		got, err := Decode(enc)
		if err != nil {
			t.Fatalf("decode of encoder output failed: %v\nmsg: %#v\nbytes: % x", err, m, enc)
		}
		if got.Kind() != m.Kind() {
			t.Fatalf("kind changed: %v -> %v", m.Kind(), got.Kind())
		}
		if !reflect.DeepEqual(m, got) {
			t.Fatalf("round trip not exact:\nin:  %#v\nout: %#v", m, got)
		}
		if re := Encode(got); !bytes.Equal(re, enc) {
			t.Fatalf("re-encode diverged:\nin:  % x\nout: % x", enc, re)
		}
		// Decode again after releasing the first decode: the second may
		// draw that very message, lists and all, from its pool, and must
		// still hold exactly the encoded fields.
		Release(got)
		again, err := Decode(enc)
		if err != nil {
			t.Fatalf("second decode failed: %v", err)
		}
		if re := Encode(again); !bytes.Equal(re, enc) {
			t.Fatalf("decode into a released message diverged:\nin:  % x\nout: % x", enc, re)
		}
	})
}

// buildFuzzMessage constructs a message of the given kind from fuzzed
// scalars and a byte blob. Variable-length fields derive their sizes and
// contents from the blob so the fuzzer controls shape as well as values.
// Empty lists are built empty but not nil, as Decode returns every list,
// keeping reflect.DeepEqual meaningful.
func buildFuzzMessage(k Kind, a, b int32, blob []byte) Message {
	n := len(blob) % 4 // small element counts: 0..3
	switch k {
	case KindPageRequest:
		return &PageRequest{From: a, Page: b, Pending: fuzzNotices(blob, n)}
	case KindPageReply:
		return &PageReply{Page: a, Data: fuzzBytes(blob, 0), AppliedVT: fuzzI32s(blob, n)}
	case KindDiffRequest:
		return &DiffRequest{From: a, Page: b, Intervals: fuzzI32s(blob, n)}
	case KindDiffReply:
		return &DiffReply{Page: a, Diffs: fuzzDiffs(blob, n)}
	case KindBarrierEnter:
		hot, entered, hotSets := []int32{}, []int32{}, []NodeHot{}
		if n > 0 {
			hot = fuzzI32s(blob, n)
			entered = fuzzI32s(blob, (n+1)%4+1)
			for i := 0; i < n; i++ {
				hotSets = append(hotSets, NodeHot{
					Node: fuzzI32(blob, i), Pages: fuzzI32s(blob, (n+i)%4),
				})
			}
		}
		return &BarrierEnter{Node: a, Episode: b, Lam: a ^ b,
			Notices: fuzzNotices(blob, n), Hot: hot, Entered: entered, HotSets: hotSets}
	case KindBarrierRelease:
		push := fuzzPushes(blob, n)
		homes, relay := []PageHome{}, []NodePush{}
		for i := 0; i < n; i++ {
			homes = append(homes, PageHome{Page: fuzzI32(blob, i), Home: fuzzI32(blob, i+1)})
			relay = append(relay, NodePush{Node: fuzzI32(blob, i), Push: fuzzPushes(blob, (n+i)%4)})
		}
		return &BarrierRelease{Episode: a, Lam: b, Notices: fuzzNotices(blob, n),
			Push: push, Homes: homes, Relay: relay}
	case KindLockAcquire:
		return &LockAcquire{Node: a, Lock: b, Pos: a + b, Seen: fuzzI32s(blob, n)}
	case KindLockGrant:
		return &LockGrant{Lock: a, Lam: b, Pos: a - b, Holder: b - a, Notices: fuzzNotices(blob, n)}
	case KindLockRelease:
		return &LockRelease{Node: a, Lock: b, Lam: a, Notices: fuzzNotices(blob, n)}
	case KindGCCollect:
		return &GCCollect{Pages: fuzzI32s(blob, n)}
	case KindAck:
		return &Ack{}
	case KindSWRead:
		return &SWRead{From: a, Page: b}
	case KindSWWrite:
		return &SWWrite{From: a, Page: b}
	case KindSWDowngrade:
		return &SWDowngrade{Page: a}
	case KindSWFlush:
		return &SWFlush{Page: a}
	case KindSWInvalidate:
		return &SWInvalidate{Page: a}
	case KindDiffBatchRequest:
		pages := make([]PageIntervals, n)
		for i := range pages {
			pages[i] = PageIntervals{
				Page: fuzzI32(blob, i), Intervals: fuzzI32s(blob, (n+i)%4),
			}
		}
		return &DiffBatchRequest{From: a, Pages: pages}
	case KindDiffBatchReply:
		pages := make([]PageDiffs, n)
		for i := range pages {
			pages[i] = PageDiffs{Page: fuzzI32(blob, i), Diffs: fuzzDiffs(blob, (n+i)%4)}
		}
		return &DiffBatchReply{Pages: pages}
	case KindLockPull:
		return &LockPull{Node: a, Lock: b, Holder: a ^ b, Seen: fuzzI32s(blob, n)}
	case KindReplicaDelta:
		return &ReplicaDelta{Origin: a, Seq: b, Interval: a + b, Lam: a - b,
			Notices: fuzzNotices(blob, n), Diffs: fuzzDiffs(blob, n),
			Known: fuzzNotices(blob, (n+1)%4)}
	case KindRejoinRequest:
		return &RejoinRequest{Node: a}
	case KindRejoinReply:
		return &RejoinReply{Interval: a, Lam: b,
			Seen: fuzzI32s(blob, n), Homes: fuzzI32s(blob, (n+2)%4)}
	default:
		return nil
	}
}

// fuzzPushes builds a pushed-diff list.
func fuzzPushes(blob []byte, n int) []PushedDiff {
	out := []PushedDiff{}
	for i := 0; i < n; i++ {
		out = append(out, PushedDiff{
			Page: fuzzI32(blob, i), Writer: fuzzI32(blob, i+1),
			Interval: fuzzI32(blob, i+2), Diff: fuzzBytes(blob, i),
		})
	}
	return out
}

// fuzzI32 derives the i-th int32 from the blob (0 when the blob is empty).
func fuzzI32(blob []byte, i int) int32 {
	if len(blob) == 0 {
		return 0
	}
	var v int32
	for j := 0; j < 4; j++ {
		v = v<<8 | int32(blob[(4*i+j)%len(blob)])
	}
	return v
}

func fuzzI32s(blob []byte, n int) []int32 {
	out := make([]int32, n)
	for i := range out {
		out[i] = fuzzI32(blob, i)
	}
	return out
}

func fuzzNotices(blob []byte, n int) []Notice {
	out := make([]Notice, n)
	for i := range out {
		out[i] = Notice{
			Page:     fuzzI32(blob, 4*i),
			Writer:   fuzzI32(blob, 4*i+1),
			Interval: fuzzI32(blob, 4*i+2),
			Lam:      fuzzI32(blob, 4*i+3),
		}
	}
	return out
}

// fuzzBytes returns a rotation of the blob. Empty blobs yield an empty
// non-nil slice — the decoder's canonical form for zero-length byte
// fields (nil is reserved for the bytesOrNil absent marker).
func fuzzBytes(blob []byte, rot int) []byte {
	if len(blob) == 0 {
		return []byte{}
	}
	rot %= len(blob)
	out := make([]byte, 0, len(blob))
	out = append(out, blob[rot:]...)
	return append(out, blob[:rot]...)
}

// fuzzDiffs builds a diff slice where entries alternate between present
// and nil (the wire format's "diff garbage-collected" marker).
func fuzzDiffs(blob []byte, n int) [][]byte {
	out := make([][]byte, n)
	for i := range out {
		if i%2 == 0 {
			out[i] = fuzzBytes(blob, i)
		}
	}
	return out
}
