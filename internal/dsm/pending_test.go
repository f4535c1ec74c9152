package dsm

import (
	"cmp"
	"errors"
	"fmt"
	"slices"
	"testing"

	"actdsm/internal/msg"
	"actdsm/internal/sim"
	"actdsm/internal/vm"
)

// pendingModel is the reference the causally ordered pending sets are
// checked against: per page, the notices queued in arrival order behind a
// linear-scan dedup on (writer, interval), and the applied vector.
type pendingModel struct {
	self    int32
	pending [][]msg.Notice // by page
	applied [][]int32      // by page, then writer

	fresh, stale, dup int // ingest outcomes, so a stream cannot pass vacuously
}

func newPendingModel(self int32, nodes, pages int) *pendingModel {
	m := &pendingModel{self: self, pending: make([][]msg.Notice, pages), applied: make([][]int32, pages)}
	for p := range m.applied {
		m.applied[p] = make([]int32, nodes)
	}
	return m
}

func (m *pendingModel) ingest(nt msg.Notice) {
	if nt.Writer == m.self {
		return
	}
	switch {
	case nt.Interval <= m.applied[nt.Page][nt.Writer]:
		m.stale++
	case slices.ContainsFunc(m.pending[nt.Page], func(p msg.Notice) bool {
		return p.Writer == nt.Writer && p.Interval == nt.Interval
	}):
		m.dup++
	default:
		m.fresh++
		m.pending[nt.Page] = append(m.pending[nt.Page], nt)
	}
}

// retire records nts as applied to page pg and drops every queued copy.
func (m *pendingModel) retire(pg int32, nts []msg.Notice) {
	for _, nt := range nts {
		m.applied[pg][nt.Writer] = max(m.applied[pg][nt.Writer], nt.Interval)
		m.pending[pg] = slices.DeleteFunc(m.pending[pg], func(p msg.Notice) bool {
			return p.Writer == nt.Writer && p.Interval == nt.Interval
		})
	}
}

// reset empties page pg's pending set and max-merges vt (nil: zeroes) into
// its applied vector.
func (m *pendingModel) reset(pg int32, vt []int32) {
	m.pending[pg] = nil
	for w := range m.applied[pg] {
		if vt == nil {
			m.applied[pg][w] = 0
		} else {
			m.applied[pg][w] = max(m.applied[pg][w], vt[w])
		}
	}
}

// causal returns the model's pending set of page pg in causal order.
func (m *pendingModel) causal(pg int32) []msg.Notice {
	return slices.SortedFunc(slices.Values(m.pending[pg]), causalOrder)
}

// TestPendingDedupMatchesScan drives seeded random notice streams through
// the real ingest paths — addPending (lock grants, barrier releases) and
// servePageRequest — with duplicates, intervals out of order per writer and
// notices made stale by applies, interleaved with partial retirement
// through applyDiffs and the fetchFullPage, collectPage and resetForRejoin
// resets. After every step each page's pending set must hold the model's
// multiset in causal order, and its applied vector the model's. It is what
// lets the pending snapshots go to fetchAndApplyDiffs, applyPush and the
// prefetch pull unsorted. The one-shard run puts both pages in one shard,
// so their queues grow into blocks of one slab side by side.
func TestPendingDedupMatchesScan(t *testing.T) {
	const nodes, pages, intervals, steps = 4, 2, 12, 400
	// Node 0 is under test. It is page 0's home, which servePageRequest
	// needs; page 1's home is node 1, which fetchFullPage fetches from and
	// collectPage invalidates a replica for.
	for _, tc := range []struct {
		name   string
		shards int
	}{{"none", defaultServiceShards}, {"one-shard", 1}} {
		t.Run(tc.name, func(t *testing.T) {
			for seed := uint64(1); seed <= 40; seed++ {
				runPendingStream(t, seed, tc.shards, nodes, pages, intervals, steps)
			}
		})
	}
}

func runPendingStream(t *testing.T, seed uint64, shards, nodes, pages, intervals, steps int) {
	t.Helper()
	rng := sim.NewRNG(seed)
	// lam[w][iv] is writer w's Lamport stamp for interval iv: fixed per
	// notice, rising with the interval, shared across writers at random.
	lam := make([][]int32, nodes)
	for w := range lam {
		lam[w] = make([]int32, intervals+1)
		for iv := 1; iv <= intervals; iv++ {
			lam[w][iv] = lam[w][iv-1] + 1 + int32(rng.Intn(3))
		}
	}
	notice := func(pg int32) msg.Notice {
		w, iv := rng.Intn(nodes), 1+rng.Intn(intervals)
		return msg.Notice{Page: pg, Writer: int32(w), Interval: int32(iv), Lam: lam[w][iv]}
	}

	// The peers are canned: a page fetch is answered with homeVT as the
	// home's applied vector, and every diff request with a one-byte diff
	// per interval; asked records the diff requests in the order sent.
	var homeVT []int32
	var asked, sent []msg.Notice
	c, err := newCluster(Config{Nodes: nodes, Pages: pages, GCThresholdBytes: -1}, shards)
	if err != nil {
		t.Fatal(err)
	}
	defer c.Close()
	c.tr = cannedTransport{reply: func(req msg.Message) msg.Message {
		switch r := req.(type) {
		case *msg.PageRequest:
			sent = append(sent[:0], r.Pending...)
			return &msg.PageReply{Page: r.Page, Data: page(), AppliedVT: homeVT}
		case *msg.DiffRequest:
			diffs := make([][]byte, len(r.Intervals))
			for i, iv := range r.Intervals {
				asked = append(asked, msg.Notice{Page: r.Page, Writer: r.Writer, Interval: iv})
				diffs[i] = []byte{0, 0, 1, 0, byte(iv)}
			}
			return &msg.DiffReply{Page: r.Page, Diffs: diffs}
		}
		return &msg.Ack{}
	}}
	n := c.nodes[0]
	m := newPendingModel(0, nodes, pages)

	for step := 0; step < steps; step++ {
		var op string
		switch r := rng.Intn(40); {
		case r < 20:
			op = "addPending"
			pg := int32(rng.Intn(pages))
			for k := 1 + rng.Intn(6); k > 0; k-- {
				nt := notice(pg)
				n.addPending(nt)
				m.ingest(nt)
			}
		case r < 26:
			op = "servePageRequest"
			req := &msg.PageRequest{From: 1 + int32(rng.Intn(nodes-1)), Page: 0}
			for k := rng.Intn(6); k > 0; k-- {
				req.Pending = append(req.Pending, notice(0))
			}
			asked = asked[:0]
			if _, err := n.servePageRequest(req); err != nil {
				t.Fatalf("seed %d step %d: %v", seed, step, err)
			}
			for _, nt := range req.Pending {
				m.ingest(nt)
			}
			// The home fetched exactly its pending set: writer by writer,
			// each writer's notices in causal order.
			want := m.causal(0)
			slices.SortStableFunc(want, func(a, b msg.Notice) int { return cmp.Compare(a.Writer, b.Writer) })
			if !slices.EqualFunc(asked, want, sameNotice) {
				t.Fatalf("seed %d step %d: home fetched %v, want %v", seed, step, asked, want)
			}
			m.retire(0, want)
		case r < 32:
			op = "applyDiffs"
			pg := vm.PageID(rng.Intn(pages))
			sh := n.lockShard(pg)
			var nts []msg.Notice
			for _, nt := range n.pages[pg].pending {
				if rng.Intn(2) == 0 {
					nts = append(nts, nt)
				}
			}
			_, err := n.applyDiffs(pg, nts, make([][]byte, len(nts)), ApplyServer)
			n.unlockShard(sh)
			if err != nil {
				t.Fatalf("seed %d step %d: %v", seed, step, err)
			}
			m.retire(int32(pg), nts)
		case r < 35:
			op = "fetchFullPage"
			homeVT = make([]int32, nodes)
			for w := range homeVT {
				homeVT[w] = int32(rng.Intn(intervals / 2))
			}
			want := m.causal(1)
			if err := n.fetchFullPage(nil, -1, 1, ApplyServer); err != nil {
				t.Fatalf("seed %d step %d: %v", seed, step, err)
			}
			if !slices.Equal(sent, want) {
				t.Fatalf("seed %d step %d: page request listed %v, want %v", seed, step, sent, want)
			}
			m.reset(1, homeVT)
		case r < 39:
			op = "collectPage"
			pg := int32(rng.Intn(pages))
			if err := n.collectPage(vm.PageID(pg)); err != nil {
				t.Fatalf("seed %d step %d: %v", seed, step, err)
			}
			if pg == 1 { // node 0 holds a replica of page 1 only
				m.reset(1, nil)
			}
		default:
			op = "resetForRejoin"
			n.resetForRejoin()
			for pg := range pages {
				m.reset(int32(pg), nil)
			}
		}
		if err := checkPending(n, m); err != nil {
			t.Fatalf("seed %d step %d after %s: %v", seed, step, op, err)
		}
	}
	if m.fresh == 0 || m.stale == 0 || m.dup == 0 {
		t.Fatalf("seed %d: stream not exercised: %d fresh, %d stale, %d duplicate notices", seed, m.fresh, m.stale, m.dup)
	}
}

// TestPageRequestRefusesForeignNotice: a page request whose pending list
// names another page is refused by name, before any pending set moves —
// the notices are queued under the requested page's shard lock only.
func TestPageRequestRefusesForeignNotice(t *testing.T) {
	c := newTestCluster(t, 2, 2)
	n := c.nodes[0]
	req := &msg.PageRequest{From: 1, Page: 0, Pending: []msg.Notice{
		{Page: 0, Writer: 1, Interval: 1, Lam: 1},
		{Page: 1, Writer: 1, Interval: 1, Lam: 1},
	}}
	if _, err := n.servePageRequest(req); !errors.Is(err, errNoticePage) {
		t.Fatalf("err = %v, want %v", err, errNoticePage)
	}
	for pg := range n.pages {
		if len(n.pages[pg].pending) != 0 {
			t.Errorf("page %d: pending %v after a refused request", pg, n.pages[pg].pending)
		}
	}
}

// sameNotice compares notices by (page, writer, interval): diff requests
// carry no Lamport stamps.
func sameNotice(a, b msg.Notice) bool {
	return a.Page == b.Page && a.Writer == b.Writer && a.Interval == b.Interval
}

// checkPending compares every page's pending set and applied vector on n
// with the model's.
func checkPending(n *node, m *pendingModel) error {
	for pg := range n.pages {
		st := &n.pages[pg]
		if !slices.IsSortedFunc(st.pending, causalOrder) {
			return fmt.Errorf("page %d: pending %v is not in causal order", pg, st.pending)
		}
		if want := m.causal(int32(pg)); !slices.Equal(st.pending, want) {
			return fmt.Errorf("page %d: pending %v, model %v", pg, st.pending, want)
		}
		if !slices.Equal(st.appliedVT, m.applied[pg]) {
			return fmt.Errorf("page %d: applied vector %v, model %v", pg, st.appliedVT, m.applied[pg])
		}
	}
	return nil
}
