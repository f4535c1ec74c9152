package msg

import (
	"bytes"
	"testing"

	"actdsm/internal/pool"
)

// TestReleasePoisons reads a released DiffBatchReply and a released
// LockGrant through the references a stale holder would keep. Every build
// finds the lists truncated and the diff views dropped; a race build finds
// the sentinel in every scalar and poison over every list's capacity — an
// impossible page, a malformed diff — instead of the decoded values.
func TestReleasePoisons(t *testing.T) {
	diff := []byte{0, 0, 4, 0, 1, 2, 3, 4}
	m, err := Decode(Encode(&DiffBatchReply{Pages: []PageDiffs{
		{Page: 3, Diffs: [][]byte{diff, nil}},
		{Page: 5, Diffs: [][]byte{diff}},
	}}))
	if err != nil {
		t.Fatal(err)
	}
	br := m.(*DiffBatchReply)
	pages := br.Pages
	Release(br)
	if len(br.Pages) != 0 {
		t.Errorf("released batch reply keeps %d pages", len(br.Pages))
	}
	for i, pd := range pages {
		diffs := pd.Diffs[:cap(pd.Diffs)]
		if pool.Race && pd.Page != poisoned {
			t.Errorf("released batch reply page %d names page %d, want the sentinel %d", i, pd.Page, poisoned)
		}
		if len(pd.Diffs) != 0 {
			t.Errorf("released batch reply page %d keeps %d diffs", i, len(pd.Diffs))
		}
		for j, df := range diffs {
			switch {
			case pool.Race && !bytes.Equal(df, poisonDiff):
				t.Errorf("released batch reply page %d diff %d = % x, want the poison run", i, j, df)
			case !pool.Race && df != nil:
				t.Errorf("released batch reply page %d diff %d still views % x", i, j, df)
			}
		}
	}

	m, err = Decode(Encode(&LockGrant{Lock: 7, Lam: 2, Pos: 9, Holder: 1,
		Notices: []Notice{{Page: 2, Writer: 0, Interval: 3, Lam: 6}}}))
	if err != nil {
		t.Fatal(err)
	}
	g := m.(*LockGrant)
	notices := g.Notices[:cap(g.Notices)]
	Release(g)
	if len(g.Notices) != 0 {
		t.Errorf("released grant keeps %d notices", len(g.Notices))
	}
	if !pool.Race {
		return
	}
	for _, v := range []int32{g.Lock, g.Lam, g.Pos, g.Holder} {
		if v != poisoned {
			t.Errorf("released grant %+v: want every scalar %d", *g, poisoned)
			break
		}
	}
	for i, nt := range notices {
		if nt != poisonNotice {
			t.Errorf("released grant notice %d = %+v, want %+v", i, nt, poisonNotice)
		}
	}
}

// TestNewResetsScalars: a message New hands out after a release has zero
// scalars and empty lists, whatever its last use left — in race builds,
// the sentinel.
func TestNewResetsScalars(t *testing.T) {
	g := New[*LockGrant]()
	g.Lock, g.Pos, g.Holder = 3, 4, 5
	g.Notices = append(g.Notices, Notice{Page: 1})
	Release(g)
	for range 4 { // race builds' pools drop some puts: look a few times
		if h := New[*LockGrant](); h.Lock != 0 || h.Lam != 0 || h.Pos != 0 || h.Holder != 0 || len(h.Notices) != 0 {
			t.Fatalf("New after Release: %+v, want zero scalars and no notices", *h)
		}
	}
}

// TestDecodeReleaseZeroAlloc: on a warm pool, decoding a pooled kind and
// releasing it allocates nothing — the message and its lists come back
// whole — and neither does a sender's New and Release.
func TestDecodeReleaseZeroAlloc(t *testing.T) {
	if pool.Race {
		t.Skip("allocation counts are meaningless under the race detector")
	}
	diff := []byte{0, 0, 4, 0, 1, 2, 3, 4}
	ns := []Notice{{Page: 1, Writer: 2, Interval: 3, Lam: 4}, {Page: 1, Writer: 0, Interval: 2, Lam: 3}}
	for _, m := range []Message{
		&PageRequest{From: 1, Page: 2, Pending: ns},
		&PageReply{Page: 2, Data: make([]byte, 64), AppliedVT: []int32{1, 0, 4}},
		&DiffRequest{From: 1, Page: 2, Writer: 0, Intervals: []int32{3, 4}},
		&DiffReply{Page: 2, Diffs: [][]byte{diff, nil}},
		&DiffBatchRequest{From: 1, Pages: []PageIntervals{{Page: 2, Intervals: []int32{3}}, {Page: 5, Intervals: []int32{1, 2}}}},
		&DiffBatchReply{Pages: []PageDiffs{{Page: 2, Diffs: [][]byte{diff}}, {Page: 5, Diffs: [][]byte{nil, diff}}}},
		&LockAcquire{Node: 1, Lock: 3, Pos: 2, Seen: []int32{0, 4, 1}},
		&LockGrant{Lock: 3, Lam: 5, Pos: 2, Holder: -1, Notices: ns},
		&LockRelease{Node: 1, Lock: 3, Lam: 5, Notices: ns},
		&LockPull{Node: 1, Lock: 3, Holder: 2, Seen: []int32{0, 4, 1}},
	} {
		frame := Encode(m)
		cycle := func() {
			got, err := Decode(frame)
			if err != nil {
				t.Fatal(err)
			}
			Release(got)
		}
		cycle() // warm the kind's pool
		if allocs := testing.AllocsPerRun(1000, cycle); allocs != 0 {
			t.Errorf("%v decode/Release: %v allocs/op, want 0", m.Kind(), allocs)
		}
	}
	if allocs := testing.AllocsPerRun(1000, func() {
		req := New[*DiffBatchRequest]()
		for pg := range int32(3) {
			pi := req.AddPage(pg)
			pi.Intervals = append(pi.Intervals, 7, pg)
		}
		Release(req)
	}); allocs != 0 {
		t.Errorf("DiffBatchRequest New/AddPage/Release: %v allocs/op, want 0", allocs)
	}
}
