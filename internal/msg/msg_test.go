package msg

import (
	"errors"
	"reflect"
	"testing"
	"testing/quick"
)

func roundTrip(t *testing.T, m Message) Message {
	t.Helper()
	b := Encode(m)
	got, err := Decode(b)
	if err != nil {
		t.Fatalf("decode %T: %v", m, err)
	}
	if got.Kind() != m.Kind() {
		t.Fatalf("kind mismatch: %d != %d", got.Kind(), m.Kind())
	}
	return got
}

func TestRoundTripAllKinds(t *testing.T) {
	ns := []Notice{{Page: 1, Writer: 2, Interval: 3, Lam: 7}, {Page: 9, Writer: 0, Interval: -1, Lam: 0}}
	cases := []Message{
		&PageRequest{From: 3, Page: 77, Pending: ns},
		&PageRequest{From: 0, Page: 0, Pending: nil},
		&PageReply{Page: 77, Data: []byte{1, 2, 3, 4, 5}, AppliedVT: []int32{1, 0, 4}},
		&PageReply{Page: 1, Data: []byte{}},
		&DiffRequest{From: 1, Page: 2, Intervals: []int32{4, 5, 6}},
		&DiffReply{Page: 2, Diffs: [][]byte{{1, 2}, nil, {}}},
		&BarrierEnter{Node: 1, Episode: 12, Lam: 3, Notices: ns},
		&BarrierEnter{Node: 2, Episode: 13, Lam: 4, Notices: nil, Hot: []int32{0, 5, 17}},
		&BarrierRelease{Episode: 12, Lam: 9, Notices: ns},
		&BarrierRelease{Episode: 13, Lam: 10, Notices: ns, Push: []PushedDiff{
			{Page: 5, Writer: 1, Interval: 2, Diff: []byte{9, 8, 7}},
			{Page: 17, Writer: 0, Interval: 4, Diff: []byte{1}},
		}},
		&LockAcquire{Node: 2, Lock: 5, Seen: []int32{0, 3, 9}},
		&LockGrant{Lock: 5, Lam: 2, Notices: ns},
		&LockRelease{Node: 2, Lock: 5, Lam: 4, Notices: nil},
		&GCCollect{Pages: []int32{4}},
		&GCCollect{Pages: []int32{1, 2, 900}},
		&GCCollect{},
		&Ack{},
		&DiffBatchRequest{From: 2, Pages: []PageIntervals{
			{Page: 4, Intervals: []int32{1, 2, 9}},
			{Page: 8, Intervals: nil},
		}},
		&DiffBatchReply{Pages: []PageDiffs{
			{Page: 4, Diffs: [][]byte{{1, 2}, nil, {}}},
			{Page: 8, Diffs: nil},
		}},
	}
	for _, m := range cases {
		got := roundTrip(t, m)
		// Normalize nil vs empty for comparison where encoding cannot
		// distinguish them (slices of notices/intervals).
		if !equivalent(m, got) {
			t.Errorf("%T round trip: %#v != %#v", m, got, m)
		}
	}
}

// equivalent compares messages treating nil and empty slices as equal,
// except DiffReply.Diffs entries where nil is meaningful.
func equivalent(a, b Message) bool {
	if da, ok := a.(*DiffReply); ok {
		db := b.(*DiffReply)
		return da.Page == db.Page && diffsEquivalent(da.Diffs, db.Diffs)
	}
	if ba, ok := a.(*DiffBatchReply); ok {
		bb := b.(*DiffBatchReply)
		if len(ba.Pages) != len(bb.Pages) {
			return false
		}
		for i := range ba.Pages {
			if ba.Pages[i].Page != bb.Pages[i].Page {
				return false
			}
			if !diffsEquivalent(ba.Pages[i].Diffs, bb.Pages[i].Diffs) {
				return false
			}
		}
		return true
	}
	return reflect.DeepEqual(normalize(a), normalize(b))
}

// diffsEquivalent compares diff slices where a nil entry is meaningful
// (garbage-collected) but a nil vs empty slice-of-slices is not.
func diffsEquivalent(a, b [][]byte) bool {
	if len(a) != len(b) {
		return false
	}
	for i := range a {
		if (a[i] == nil) != (b[i] == nil) {
			return false
		}
		if len(a[i]) != len(b[i]) {
			return false
		}
		for j := range a[i] {
			if a[i][j] != b[i][j] {
				return false
			}
		}
	}
	return true
}

func normalize(m Message) Message {
	switch v := m.(type) {
	case *PageRequest:
		c := *v
		if c.Pending == nil {
			c.Pending = []Notice{}
		}
		return &c
	case *PageReply:
		c := *v
		if c.Data == nil {
			c.Data = []byte{}
		}
		if c.AppliedVT == nil {
			c.AppliedVT = []int32{}
		}
		return &c
	case *DiffRequest:
		c := *v
		if c.Intervals == nil {
			c.Intervals = []int32{}
		}
		return &c
	case *BarrierEnter:
		c := *v
		if c.Notices == nil {
			c.Notices = []Notice{}
		}
		if c.Hot == nil {
			c.Hot = []int32{}
		}
		if c.Entered == nil {
			c.Entered = []int32{}
		}
		if c.HotSets == nil {
			c.HotSets = []NodeHot{}
		}
		return &c
	case *BarrierRelease:
		c := *v
		if c.Notices == nil {
			c.Notices = []Notice{}
		}
		if c.Push == nil {
			c.Push = []PushedDiff{}
		}
		if c.Homes == nil {
			c.Homes = []PageHome{}
		}
		if c.Relay == nil {
			c.Relay = []NodePush{}
		}
		return &c
	case *LockAcquire:
		c := *v
		if c.Seen == nil {
			c.Seen = []int32{}
		}
		return &c
	case *LockGrant:
		c := *v
		if c.Notices == nil {
			c.Notices = []Notice{}
		}
		return &c
	case *LockRelease:
		c := *v
		if c.Notices == nil {
			c.Notices = []Notice{}
		}
		return &c
	case *GCCollect:
		c := *v
		if c.Pages == nil {
			c.Pages = []int32{}
		}
		return &c
	case *DiffBatchRequest:
		c := *v
		c.Pages = append([]PageIntervals{}, c.Pages...)
		for i := range c.Pages {
			if c.Pages[i].Intervals == nil {
				c.Pages[i].Intervals = []int32{}
			}
		}
		return &c
	}
	return m
}

func TestDecodeErrors(t *testing.T) {
	if _, err := Decode(nil); err == nil {
		t.Fatal("expected error on empty buffer")
	}
	if _, err := Decode([]byte{255}); err == nil {
		t.Fatal("expected error on unknown kind")
	}
	// Truncated PageReply.
	full := Encode(&PageReply{Page: 1, Data: []byte{1, 2, 3}})
	for i := 1; i < len(full); i++ {
		if _, err := Decode(full[:i]); err == nil {
			t.Fatalf("expected error on %d-byte prefix", i)
		}
	}
	// Trailing garbage.
	if _, err := Decode(append(Encode(&Ack{}), 0)); err == nil {
		t.Fatal("expected error on trailing bytes")
	}
	// A GCCollect whose count fits the bytes left but whose elements do
	// not: 8 pages claimed, 8 bytes (two pages) present.
	bad := Encode(&GCCollect{Pages: []int32{1, 2}})
	bad[1] = 8
	if _, err := Decode(bad); err == nil || errors.Is(err, ErrTruncated) {
		t.Fatalf("over-counted collect: err = %v, want the count refused before allocation", err)
	}
}

func TestDecodeBadLengths(t *testing.T) {
	// A PageReply claiming a huge data length must fail cleanly rather
	// than allocating.
	b := []byte{byte(KindPageReply), 1, 0, 0, 0, 0xff, 0xff, 0xff, 0x7f}
	if _, err := Decode(b); err == nil {
		t.Fatal("expected error on oversized length")
	}
	// Negative length.
	b = []byte{byte(KindPageReply), 1, 0, 0, 0, 0xff, 0xff, 0xff, 0xff}
	if _, err := Decode(b); err == nil {
		t.Fatal("expected error on negative length")
	}
}

func TestSizeMatchesEncode(t *testing.T) {
	m := &BarrierEnter{Node: 1, Episode: 2, Notices: make([]Notice, 10)}
	if Size(m) != len(Encode(m)) {
		t.Fatal("Size != len(Encode)")
	}
	// 1 kind + 4 node + 4 episode + 4 lam + 4 notice count + 10*16
	// notices + 4 hot-page count + 4 entered count + 4 hot-set count.
	if got := Size(m); got != 1+4+4+4+4+160+4+4+4 {
		t.Fatalf("Size = %d", got)
	}
}

func TestPageRequestQuick(t *testing.T) {
	check := func(from, page int32, pages []int32) bool {
		pending := make([]Notice, len(pages))
		for i, p := range pages {
			pending[i] = Notice{Page: p, Writer: from, Interval: int32(i)}
		}
		m := &PageRequest{From: from, Page: page, Pending: pending}
		got, err := Decode(Encode(m))
		if err != nil {
			return false
		}
		g := got.(*PageRequest)
		if g.From != from || g.Page != page || len(g.Pending) != len(pending) {
			return false
		}
		for i := range pending {
			if g.Pending[i] != pending[i] {
				return false
			}
		}
		return true
	}
	if err := quick.Check(check, nil); err != nil {
		t.Fatal(err)
	}
}

func TestDiffReplyNilVsEmpty(t *testing.T) {
	m := &DiffReply{Page: 1, Diffs: [][]byte{nil, {}}}
	got := roundTrip(t, m).(*DiffReply)
	if got.Diffs[0] != nil {
		t.Fatal("nil diff decoded as non-nil")
	}
	if got.Diffs[1] == nil {
		t.Fatal("empty diff decoded as nil")
	}
}
