package dsm

// The diff path: one serve body (readDiffs), one route around a dead
// writer (route, shared with the lock path) and one apply loop
// (applyDiffs) for every consumer of diffs. See doc.go, "The diff path",
// and DESIGN.md §7.1, which also says why the wire keeps two request
// kinds.

import (
	"cmp"
	"fmt"
	"slices"
	"sync"

	"actdsm/internal/msg"
	"actdsm/internal/sim"
	"actdsm/internal/vm"
)

// lease is what a reply and its diff bytes are borrowed from until they
// have been applied or copied: the reply itself (a pooled message), and
// the reply frame of a remote serve (msg.Decode borrows) or the references
// a read of this node's own store pinned. A read of the replica store
// borrows nothing: its bytes are never pooled. Leases live on the fetching
// call's stack or in its batch, never on the node — server-side fetches
// run concurrently on transport workers. Dropping one unreleased is
// garbage, not corruption.
type lease struct {
	reply msg.Message
	frame []byte
	pins  retained
}

func (l lease) release() {
	msg.Release(l.reply)
	if l.frame != nil {
		msg.PutBuf(l.frame)
	}
	l.pins.release()
}

// leases come back from a fetch with the diffs; its caller releases them
// once copy/ApplyDiff has consumed the bytes.
type leases []lease

func (ls leases) release() {
	for _, l := range ls {
		l.release()
	}
}

// readDiffs is the one read of "writer w's diffs for these intervals of a
// page": out[i] receives the diff of ivs[i], nil where none is held (a
// garbage-collected diff, one the replica never received, a page outside
// the segment) — the requester then falls back to a full-page fetch. The
// store follows from w. This node's own diffs sit in the page's run, read
// under its shard's read lock, so any number of peers fetch concurrently;
// the reply aliases the stored bytes, each under a pin on its chunk taken
// while the store still holds its reference and appended to pinned, so a
// GC drop racing the encode cannot recycle the bytes mid-read. Any other
// writer's are the copies this node keeps as that writer's ring standby
// (replMu): plain heap bytes, aliased without a pin.
func (n *node) readDiffs(w, page int32, ivs []int32, out [][]byte, pinned retained) retained {
	if page < 0 || int(page) >= len(n.pages) {
		return pinned
	}
	p := vm.PageID(page)
	if int(w) != n.id {
		n.replMu.Lock()
		store := n.replDiffs[int(w)][p]
		for i, iv := range ivs {
			out[i] = store[iv]
		}
		n.replMu.Unlock()
		return pinned
	}
	sh := n.rlockShard(p)
	st := &n.pages[p]
	for i, iv := range ivs {
		if d := st.ownDiff(iv); d.c != nil {
			d.c.retain()
			pinned = append(pinned, d.c)
			out[i] = d.bytes()
		}
	}
	sh.mu.RUnlock()
	return pinned
}

// serveDiffRequest answers the single-page kind. The reply and its pin
// list are pooled: the transport handler releases the pins and the reply
// once the reply has been encoded.
func (n *node) serveDiffRequest(req *msg.DiffRequest) (msg.Message, retained, error) {
	out := msg.New[*msg.DiffReply]()
	out.Page = req.Page
	out.Diffs = zeroed(out.Diffs, len(req.Intervals))
	return out, n.readDiffs(req.Writer, req.Page, req.Intervals, out.Diffs, pins.Get()), nil
}

// serveDiffBatchRequest answers the batched kind page by page, taking each
// page's shard read lock in turn, so concurrent batch serves for disjoint
// shards (and read-only serves within one) proceed in parallel. Its reply
// is pooled like serveDiffRequest's, each page's Diffs list included.
func (n *node) serveDiffBatchRequest(req *msg.DiffBatchRequest) (msg.Message, retained, error) {
	out := msg.New[*msg.DiffBatchReply]()
	// Resized, not zeroed: each entry keeps its Diffs list for reuse.
	out.Pages = slices.Grow(out.Pages[:0], len(req.Pages))[:len(req.Pages)]
	pinned := pins.Get()
	for i, pi := range req.Pages {
		pd := &out.Pages[i]
		pd.Page = pi.Page
		pd.Diffs = zeroed(pd.Diffs, len(pi.Intervals))
		pinned = n.readDiffs(req.Writer, pi.Page, pi.Intervals, pd.Diffs, pinned)
	}
	return out, pinned, nil
}

// checkPageDiffs refuses one page of a diff reply unless it is the page
// asked for, with one diff (or nil) per interval asked for.
func checkPageDiffs(page int32, diffs [][]byte, wantPage int32, want int) error {
	switch {
	case page != wantPage:
		return fmt.Errorf("%w: %d", errReplyPage, page)
	case len(diffs) != want:
		return fmt.Errorf("%w: %d for %d", errDiffCount, len(diffs), want)
	}
	return nil
}

// checkDiffReply is the single-page kind's whole-reply check.
func checkDiffReply(reply msg.Message, req *msg.DiffRequest) (*msg.DiffReply, error) {
	dr, ok := reply.(*msg.DiffReply)
	if !ok {
		return nil, fmt.Errorf("%w %T", errReplyShape, reply)
	}
	return dr, checkPageDiffs(dr.Page, dr.Diffs, req.Page, len(req.Intervals))
}

// checkBatchReply is the batched kind's whole-reply check: the right type,
// a page list as long as the request's, and every page aligned with it.
func checkBatchReply(reply msg.Message, req *msg.DiffBatchRequest) (*msg.DiffBatchReply, error) {
	br, ok := reply.(*msg.DiffBatchReply)
	if !ok {
		return nil, fmt.Errorf("%w %T", errReplyShape, reply)
	}
	if len(br.Pages) != len(req.Pages) {
		return nil, fmt.Errorf("%w: %d for %d", errPageCount, len(br.Pages), len(req.Pages))
	}
	for j, pd := range br.Pages {
		if err := checkPageDiffs(pd.Page, pd.Diffs, req.Pages[j].Page, len(req.Pages[j].Intervals)); err != nil {
			return nil, err
		}
	}
	return br, nil
}

// causalOrder orders notices the way their diffs must apply: by Lamport
// stamp, then writer, then interval. Notices of one page that compare
// equal are the same notice.
func causalOrder(a, b msg.Notice) int {
	if c := cmp.Compare(a.Lam, b.Lam); c != 0 {
		return c
	}
	if c := cmp.Compare(a.Writer, b.Writer); c != 0 {
		return c
	}
	return cmp.Compare(a.Interval, b.Interval)
}

// nextWriter returns the lowest writer id above prev among nts.
func nextWriter(nts []msg.Notice, prev int32) (w int32, ok bool) {
	for _, nt := range nts {
		if nt.Writer > prev && (!ok || nt.Writer < w) {
			w, ok = nt.Writer, true
		}
	}
	return w, ok
}

// fetchAndApplyDiffs retrieves the diffs named by pending from their
// writers and applies them in causal order, charging the round trips and
// the apply to ti. It returns false if any writer has garbage-collected a
// needed diff. pending must be in causalOrder, as a snapshot of a page's
// pending set is; it is only read. diffs is the caller's all-nil table
// with one entry per notice: diffs[i] receives the diff pending[i] names,
// a view of a reply frame, and the table is cleared on every return. The
// fault path passes the node's table; server-side callers, which run
// concurrently on transport workers, pass one from their frame. tid is
// the faulting thread (< 0 for server-side fetches) and src classifies
// the protocol path for the probe (demand fault vs. manager serving). The
// leases the entries borrow from live on this frame or in the fetch's
// batch, released when the diffs have been applied (or the fetch
// abandoned).
func (n *node) fetchAndApplyDiffs(ti *sim.ThreadInterval, tid int, p vm.PageID, pending []msg.Notice, diffs [][]byte, src ApplySource) (bool, error) {
	c := n.c
	defer clear(diffs)
	var leaseBuf [16]lease
	held := leases(leaseBuf[:0])
	defer func() { held.release() }()
	if c.cfg.BatchDiffs {
		// Batched path: one DiffBatchRequest per writer, fanned out in
		// parallel; the stall is the slowest round trip, not the sum.
		wire, complete, batch, err := n.fetchDiffBatches(pending, diffs)
		if err != nil {
			return false, err
		}
		defer batch.release()
		charge(ti, sim.ThreadInterval{Stall: wire})
		c.probeRemoteFetch(n.id, tid, FetchDiffBatch, p, wire)
		if !complete {
			return false, nil // garbage-collected
		}
	} else {
		// One DiffRequest per writer, writers in ascending order.
		for w, more := nextWriter(pending, -1); more; w, more = nextWriter(pending, w) {
			l, ok, err := n.fetchWriterDiffs(ti, tid, p, w, pending, diffs)
			held = append(held, l)
			if !ok || err != nil {
				return false, err
			}
		}
	}

	sh := n.lockShard(p)
	cost, err := n.applyDiffs(p, pending, diffs, src)
	n.unlockShard(sh)
	if err != nil {
		return false, err
	}
	charge(ti, sim.ThreadInterval{Overhead: cost})
	return true, nil
}

// applyDiffs is the one place a fetched diff meets a page: it applies
// diffs[i], the diff nts[i] names, for nts in causal order, records each
// in the page's applied vector and the node's Lamport clock, and retires
// exactly those notices from the page's pending set — notices queued by a
// concurrent serve while the fetch was in flight survive. A page whose
// pending set this drains is current and opened for reading; brought there
// ahead of demand, by a prefetch or a push, it is marked prefetched.
// Requires the page's shard write lock. Returns the virtual-time cost.
func (n *node) applyDiffs(p vm.PageID, nts []msg.Notice, diffs [][]byte, src ApplySource) (sim.Time, error) {
	c := n.c
	st := &n.pages[p]
	var cost sim.Time
	for i, nt := range nts {
		if err := ApplyDiff(n.pageData(p), diffs[i]); err != nil {
			return 0, fmt.Errorf("dsm: node %d apply %v diff page %d: %w", n.id, src, p, err)
		}
		cost += sim.Time(len(diffs[i])) * c.costs.DiffPerByte
		st.noteApplied(nt.Writer, nt.Interval)
		n.bumpLamport(nt.Lam)
		c.probeDiffApplied(n.id, src, nt)
	}
	keep := st.pending[:0]
	for _, nt := range st.pending {
		if _, applied := slices.BinarySearchFunc(nts, nt, causalOrder); !applied {
			keep = append(keep, nt)
		}
	}
	st.pending = keep
	if len(keep) == 0 {
		n.as.SetProt(p, vm.ProtRead)
		if src == ApplyPrefetch || src == ApplyPush {
			n.markPrefetched(st, true)
			c.stats.PrefetchedPages.Add(1)
		}
	}
	return cost, nil
}

// fetchWriterDiffs fetches, in one DiffRequest, the diffs of writer w's
// notices in pending and stores each at its notice's index in diffs. It
// returns false if one of them is no longer held. The stored diffs borrow
// from the returned lease, which is the caller's to release once it has
// read them — on every path, errors included.
func (n *node) fetchWriterDiffs(ti *sim.ThreadInterval, tid int, p vm.PageID, w int32, pending []msg.Notice, diffs [][]byte) (held lease, ok bool, err error) {
	c := n.c
	req := msg.New[*msg.DiffRequest]()
	defer msg.Release(req)
	req.From, req.Page, req.Writer = int32(n.id), int32(p), w
	for _, nt := range pending {
		if nt.Writer == w {
			req.Intervals = append(req.Intervals, nt.Interval)
		}
	}
	r := n.routeTo(int(w))
	reply, held, wire, err := r.call(req)
	var dr *msg.DiffReply
	if err == nil {
		dr, err = checkDiffReply(reply, req)
	}
	if err != nil {
		return held, false, fmt.Errorf("dsm: node %d fetch diffs page %d from %d: %w", n.id, p, w, err)
	}
	c.stats.DiffFetches.Add(1)
	charge(ti, sim.ThreadInterval{Stall: wire})
	c.probeRemoteFetch(n.id, tid, FetchDiff, p, wire)
	next := 0
	for i, nt := range pending {
		if nt.Writer != w {
			continue
		}
		df := dr.Diffs[next]
		next++
		if df == nil {
			return held, false, nil // garbage-collected
		}
		diffs[i] = df
		c.stats.BytesDiff.Add(int64(len(df)))
	}
	return held, true, nil
}

// diffBatch is one batched fetch's scratch, pooled whole with the lists'
// capacity: index i of reqs, replies, wires, held and to (the node the
// request goes to) is the fetch's i-th writer, and order is the notices'
// request order. fetch is the fan-out's body, bound once per scratch so a
// fetch does not allocate it.
type diffBatch struct {
	n       *node
	order   []int32
	reqs    []*msg.DiffBatchRequest
	replies []*msg.DiffBatchReply
	wires   []sim.Time
	held    leases
	to      []int
	fetch   func(i int) error
}

var diffBatches = sync.Pool{New: func() any { return new(diffBatch) }}

// call sends, in order, the requests that go where the i-th writer's goes,
// and checks their replies; it sends none when an earlier leg goes there.
func (b *diffBatch) call(i int) (err error) {
	if slices.Index(b.to, b.to[i]) < i {
		return nil
	}
	for j := i; j < len(b.reqs) && err == nil; j++ {
		if req := b.reqs[j]; b.to[j] == b.to[i] {
			r := b.n.routeTo(int(req.Writer))
			var reply msg.Message
			reply, b.held[j], b.wires[j], err = r.call(req)
			if err == nil {
				b.replies[j], err = checkBatchReply(reply, req)
			}
			if err != nil {
				err = fmt.Errorf("dsm: node %d batch fetch diffs from %d: %w", b.n.id, req.Writer, err)
			}
		}
	}
	return err
}

// release releases the replies with their leases, once the diffs they
// hold have been applied or copied, and the requests, then the scratch.
func (b *diffBatch) release() {
	b.held.release()
	for _, req := range b.reqs {
		msg.Release(req)
	}
	clear(b.reqs)
	clear(b.replies)
	clear(b.held)
	b.n = nil
	diffBatches.Put(b)
}

// fetchDiffBatches fetches the diffs nts names — any number of pages and
// writers — with one DiffBatchRequest per writer, fanned out in parallel by
// the node each goes to (a dead writer's standby may be another writer),
// and stores the diff of nts[i] in out[i] (nil where it is no longer
// held). It returns the slowest round trip's wire cost (the requester's
// stall, since the fan-out overlaps), whether every requested diff was
// present, and the batch out's entries borrow from, which the caller
// releases when it has applied or copied the diffs (on error there is
// nothing to release). Every reply is checked before a counter moves. It
// performs no state mutation on n and must be called without mu held;
// stats are recorded atomically.
func (n *node) fetchDiffBatches(nts []msg.Notice, out [][]byte) (sim.Time, bool, *diffBatch, error) {
	c := n.c
	b := diffBatches.Get().(*diffBatch)
	if b.fetch == nil {
		b.fetch = b.call
	}
	b.n = n
	// order visits nts writer by writer, each writer's notices by (page,
	// interval): the order the requests name the diffs in, and therefore
	// the order the replies return them in.
	b.order = b.order[:0]
	for i := range nts {
		b.order = append(b.order, int32(i))
	}
	order := b.order
	slices.SortFunc(order, func(i, j int32) int {
		x, y := nts[i], nts[j]
		if c := cmp.Compare(x.Writer, y.Writer); c != 0 {
			return c
		}
		if c := cmp.Compare(x.Page, y.Page); c != 0 {
			return c
		}
		return cmp.Compare(x.Interval, y.Interval)
	})

	b.reqs, b.to = b.reqs[:0], b.to[:0]
	for lo := 0; lo < len(order); {
		w := nts[order[lo]].Writer
		req := msg.New[*msg.DiffBatchRequest]()
		req.From, req.Writer = int32(n.id), w
		var pi *msg.PageIntervals
		for ; lo < len(order) && nts[order[lo]].Writer == w; lo++ {
			nt := nts[order[lo]]
			if pi == nil || pi.Page != nt.Page {
				pi = req.AddPage(nt.Page)
			}
			pi.Intervals = append(pi.Intervals, nt.Interval)
		}
		b.to = append(b.to, c.AliveSuccessor(int(w)))
		b.reqs = append(b.reqs, req)
	}

	b.replies = zeroed(b.replies, len(b.reqs))
	b.wires = zeroed(b.wires, len(b.reqs))
	b.held = zeroed(b.held, len(b.reqs))
	if err := c.fanOut(len(b.reqs), b.fetch); err != nil {
		b.release()
		return 0, false, nil, err
	}

	complete := true
	var maxWire sim.Time
	next := 0 // position in order of the next diff the replies return
	for i, req := range b.reqs {
		maxWire = max(maxWire, b.wires[i])
		// The barrier's root reading its own store (push collection) is a
		// local read, not a fetch, and counts as none.
		fetched := int(req.Writer) != n.id
		start := next
		for _, pd := range b.replies[i].Pages {
			for _, df := range pd.Diffs {
				out[order[next]] = df
				next++
				if df == nil {
					complete = false
				} else if fetched {
					c.stats.BatchedDiffs.Add(1)
					c.stats.BytesDiff.Add(int64(len(df)))
				}
			}
		}
		if fetched {
			c.stats.DiffBatchFetches.Add(1)
			c.stats.BatchSizeHist[batchSizeBucket(next-start)].Add(1)
		}
	}
	return maxWire, complete, b, nil
}
