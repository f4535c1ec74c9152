package dsm

// Correlation-driven prefetch and batched diff transfer.
//
// The paper's thesis is that correlation data predicts *future* sharing;
// the placement layer spends that prediction on where threads run, and
// this file spends it on *when data moves*. At barrier release — the
// moment every page's pending write notices for the epoch are known —
// each node predicts the pages its resident threads will touch (from the
// tracker's per-thread access bitmaps, or from its own fault window when
// tracking is off) and pulls the pending diffs for those pages ahead of
// demand. The fetches are coalesced: one DiffBatchRequest per writer
// node covers every (page, interval) the prediction needs from it, so a
// round that would have cost one synchronous round trip per faulting
// page costs one round trip per peer.
//
// Consistency is unaffected (DESIGN.md §7): prefetch applies exactly the
// diffs the demand path would apply, in the same (Lamport, writer,
// interval) order, against the same pending-notice bookkeeping — it only
// moves the application earlier, to a point where the barrier has already
// established that the epoch's notices are complete. A page any of whose
// diffs has been garbage-collected is skipped whole, leaving its pending
// set intact for the demand path's full-page fallback.

import (
	"cmp"
	"fmt"
	"slices"

	"actdsm/internal/msg"
	"actdsm/internal/sim"
	"actdsm/internal/vm"
)

// SetPrefetchPredictor installs f, consulted at the start of each
// prefetch round for the set of pages node's resident threads are
// predicted to touch in the coming epoch. The facade wires this to the
// union of the correlation tracker's per-thread access bitmaps (paper
// §4.2) over the node's resident threads. A nil return (or no installed
// predictor) falls back to the node's fault window: the pages it missed
// on in the previous epoch.
func (c *Cluster) SetPrefetchPredictor(f func(node int) *vm.Bitmap) {
	c.prefetchPredict = f
}

// PrefetchRound runs one prefetch round on every node. It is intended to
// be called at barrier release, after Barrier has delivered the epoch's
// write notices, while application threads are still parked; it is a
// no-op (returning zero costs) unless Config.PrefetchBudget is non-zero
// and the protocol is multi-writer. Nodes are processed in order so runs
// stay deterministic; each node's per-writer batch fetches fan out in
// parallel. The returned slice holds each node's virtual-time cost.
func (c *Cluster) PrefetchRound() ([]sim.Time, error) {
	costs := make([]sim.Time, c.cfg.Nodes)
	if c.cfg.PrefetchBudget == 0 || c.cfg.Protocol != MultiWriter {
		return costs, nil
	}
	c.stats.PrefetchRounds.Add(1)
	for i, n := range c.nodes {
		pages, cost, err := n.prefetch(c.cfg.PrefetchBudget)
		if err != nil {
			return nil, err
		}
		costs[i] = cost
		c.probePrefetchDone(i, pages, cost)
	}
	return costs, nil
}

// hotPages returns the node's prediction for the coming epoch as a page
// list for the barrier enter message: every predicted page whose pending
// diffs a barrier-piggybacked push could apply (a held, clean copy with
// no pre-existing pending backlog — the push carries only the closing
// epoch's diffs, and a page with older pendings could not be completed).
// pred is the installed predictor's bitmap, computed by the caller
// outside the node's locks; nil falls back to the fault window.
func (n *node) hotPages(pred *vm.Bitmap) []int32 {
	if pred == nil {
		n.lockSync()
		pred = n.faultWin
		n.mu.Unlock()
	}
	if pred == nil {
		return nil
	}
	var hot []int32
	pred.ForEach(func(p vm.PageID) {
		if int(p) >= len(n.pages) {
			return
		}
		sh := n.rlockShard(p)
		st := &n.pages[p]
		ok := st.hasCopy && !st.dirty && len(st.pending) == 0
		sh.mu.RUnlock()
		if ok {
			hot = append(hot, int32(p))
		}
	})
	return hot
}

// applyPush applies the diffs piggybacked on a barrier release, after
// the release's notices have been queued. A page is applied only when
// the push covers its entire pending set (same no-partial-apply rule as
// the pull path); anything else is left for demand or pull. Applying is
// idempotent across re-deliveries: a retried release finds the pending
// set empty (the notices dedup through staleOrDup) and skips. It locks
// each page's shard in turn and returns the accumulated apply cost and
// the number of pages brought current; the caller folds those into the
// sync-state pushCost/pushedEpoch accounting.
func (n *node) applyPush(push []msg.PushedDiff) (sim.Time, int, error) {
	c := n.c
	diffs := make(map[[3]int32][]byte, len(push))
	var pages []vm.PageID
	seen := make(map[vm.PageID]bool)
	for _, pd := range push {
		if int(pd.Page) < 0 || int(pd.Page) >= len(n.pages) {
			return 0, 0, fmt.Errorf("dsm: node %d pushed diff for page %d out of range", n.id, pd.Page)
		}
		diffs[[3]int32{pd.Page, pd.Writer, pd.Interval}] = pd.Diff
		if p := vm.PageID(pd.Page); !seen[p] {
			seen[p] = true
			pages = append(pages, p)
		}
	}
	var cost sim.Time
	pushed := 0
	for _, p := range pages {
		sh := n.lockShard(p)
		st := &n.pages[p]
		if !st.hasCopy || len(st.pending) == 0 {
			n.unlockShard(sh)
			continue
		}
		complete := true
		for _, nt := range st.pending {
			if _, ok := diffs[[3]int32{nt.Page, nt.Writer, nt.Interval}]; !ok {
				complete = false
				break
			}
		}
		// MutationPushPartialApply (test-only) breaks the no-partial-apply
		// rule: the page is applied anyway and the uncovered updates are
		// silently dropped below (lost update).
		if !complete && c.cfg.Mutation != MutationPushPartialApply {
			n.unlockShard(sh)
			continue
		}
		ordered := append([]msg.Notice(nil), st.pending...)
		slices.SortFunc(ordered, causalOrder)
		for _, nt := range ordered {
			df, ok := diffs[[3]int32{nt.Page, nt.Writer, nt.Interval}]
			if !ok {
				continue // only reachable under MutationPushPartialApply
			}
			if err := ApplyDiff(n.pageData(p), df); err != nil {
				n.unlockShard(sh)
				return 0, 0, fmt.Errorf("dsm: node %d apply pushed diff page %d: %w", n.id, p, err)
			}
			cost += sim.Time(len(df)) * c.costs.DiffPerByte
			st.noteApplied(c.cfg.Nodes, nt.Writer, nt.Interval)
			n.bumpLamport(nt.Lam)
			c.probeDiffApplied(n.id, ApplyPush, nt)
		}
		st.pending = st.pending[:0]
		n.as.SetProt(p, vm.ProtRead)
		n.markPrefetched(st, true)
		pushed++
		n.unlockShard(sh)
		c.stats.PrefetchedPages.Add(1)
	}
	return cost, pushed, nil
}

// collectPushDiffs runs at the barrier's root between the enter fan-in
// and the release fan-out: hot maps each node to its predicted pages,
// notices is the episode's sorted union. It fetches every diff any node's
// prediction needs — coalesced into at most one DiffBatchRequest per
// writer for the whole cluster, the coalescing no per-reader pull can
// achieve — and returns the per-destination push lists plus the
// root's wire cost. Budget > 0 caps the pages served per destination.
func (c *Cluster) collectPushDiffs(root int, hot map[int32][]int32, notices []msg.Notice) (map[int32][]msg.PushedDiff, sim.Time, error) {
	budget := c.cfg.PrefetchBudget
	byPage := make(map[int32][]msg.Notice)
	for _, nt := range notices {
		byPage[nt.Page] = append(byPage[nt.Page], nt)
	}

	// Select each destination's served pages and the union of needed
	// (page, writer, interval) diffs.
	need := make(map[[3]int32]bool)
	wants := make(map[int32][]int32)
	for dest := 0; dest < c.cfg.Nodes; dest++ {
		count := 0
		for _, p := range hot[int32(dest)] {
			foreign := false
			for _, nt := range byPage[p] {
				if int(nt.Writer) != dest {
					foreign = true
					break
				}
			}
			if !foreign {
				continue // nothing pending for this page this epoch
			}
			if budget > 0 && count >= budget {
				break // remaining predictions fall to pull or demand
			}
			count++
			wants[int32(dest)] = append(wants[int32(dest)], p)
			for _, nt := range byPage[p] {
				if int(nt.Writer) != dest {
					need[[3]int32{nt.Page, nt.Writer, nt.Interval}] = true
				}
			}
		}
	}
	if len(need) == 0 {
		return nil, 0, nil
	}

	// One batch per writer for the whole cluster; the root reads its
	// own diffs locally inside fetchDiffBatches.
	needed := make([]msg.Notice, 0, len(need))
	for _, nt := range notices {
		if need[[3]int32{nt.Page, nt.Writer, nt.Interval}] {
			needed = append(needed, nt)
		}
	}
	diffs := make([][]byte, len(needed))
	wire, _, held, err := c.nodes[root].fetchDiffBatches(needed, diffs)
	if err != nil {
		return nil, 0, err
	}
	// Retain site: the diffs ride the release fan-out, long after this
	// function has returned, so they are copied out of the reply frames.
	got := make(map[[3]int32][]byte, len(needed))
	for i, nt := range needed {
		if diffs[i] != nil {
			got[[3]int32{nt.Page, nt.Writer, nt.Interval}] = slices.Clone(diffs[i])
		}
	}
	held.release()

	// Assemble each destination's push list. A page any of whose diffs
	// is missing (garbage-collected on the writer) is skipped whole.
	out := make(map[int32][]msg.PushedDiff)
	for dest, pages := range wants {
		for _, p := range pages {
			ok := true
			for _, nt := range byPage[p] {
				if int32(dest) == nt.Writer {
					continue
				}
				if _, have := got[[3]int32{nt.Page, nt.Writer, nt.Interval}]; !have {
					ok = false
					break
				}
			}
			if !ok {
				continue
			}
			for _, nt := range byPage[p] {
				if int32(dest) == nt.Writer {
					continue
				}
				out[dest] = append(out[dest], msg.PushedDiff{
					Page:     nt.Page,
					Writer:   nt.Writer,
					Interval: nt.Interval,
					Diff:     got[[3]int32{nt.Page, nt.Writer, nt.Interval}],
				})
			}
		}
	}
	return out, wire, nil
}

// prefetch runs one node's prefetch round: predict, select candidates
// under the budget, batch-fetch per writer, apply. Called between
// barrier release and thread resumption; no application thread is active
// on the node. It is the pull backstop behind the barrier-piggybacked
// push: pages the push already served have empty pending sets and are
// skipped, and the pages the push served this epoch are charged against
// the budget. It returns the number of pages brought current and the
// round's virtual-time cost.
func (n *node) prefetch(budget int) (int, sim.Time, error) {
	c := n.c
	var pred *vm.Bitmap
	if c.prefetchPredict != nil {
		pred = c.prefetchPredict(n.id)
	}

	// Window turnover under the sync mutex: charge this epoch's push
	// against the budget and start a fresh fault window and late set for
	// the coming epoch.
	n.lockSync()
	if pred == nil {
		pred = n.faultWin
	}
	remaining := budget
	if budget > 0 {
		remaining = budget - n.pushedEpoch
	}
	n.pushedEpoch = 0
	n.faultWin = vm.NewBitmap(c.cfg.Pages)
	n.late = make(map[vm.PageID]bool)
	n.mu.Unlock()

	type candidate struct {
		p    vm.PageID
		pend []msg.Notice
	}
	var cands []candidate
	var lateList []vm.PageID
	if pred != nil {
		pred.ForEach(func(p vm.PageID) {
			if int(p) >= len(n.pages) {
				return
			}
			sh := n.rlockShard(p)
			st := &n.pages[p]
			// Only pages a diff fetch can help: a held copy invalidated
			// by pending notices. Pages without a copy would cost the
			// same full-page round trip now as on demand.
			if !st.hasCopy || len(st.pending) == 0 || st.dirty {
				sh.mu.RUnlock()
				return
			}
			if budget > 0 && len(cands) >= remaining {
				// Predicted but over budget: a demand miss on this page
				// in the coming epoch counts as PrefetchLate.
				lateList = append(lateList, p)
				sh.mu.RUnlock()
				return
			}
			cands = append(cands, candidate{
				p:    p,
				pend: append([]msg.Notice(nil), st.pending...),
			})
			sh.mu.RUnlock()
		})
	}
	if len(lateList) > 0 {
		n.lockSync()
		for _, p := range lateList {
			n.late[p] = true
		}
		n.mu.Unlock()
	}
	if len(cands) == 0 {
		return 0, 0, nil
	}

	// Coalesce everything the round needs into one batch per writer. Each
	// candidate's notices go in already in causal order, so its slice of
	// the result is the order its diffs apply in.
	var all []msg.Notice
	for _, cd := range cands {
		slices.SortFunc(cd.pend, causalOrder)
		all = append(all, cd.pend...)
	}
	got := make([][]byte, len(all))
	wire, _, held, err := n.fetchDiffBatches(all, got)
	if err != nil {
		return 0, 0, err
	}
	defer held.release() // got aliases the reply frames until applied

	var applyCost sim.Time
	applied := 0
	for _, cd := range cands {
		diffs := got[:len(cd.pend)]
		got = got[len(cd.pend):]
		// Never apply a partial set: if any of the page's diffs was
		// garbage-collected, leave the page untouched — its pending set
		// survives and the demand path falls back to a full fetch.
		if slices.ContainsFunc(diffs, func(df []byte) bool { return df == nil }) {
			continue
		}
		sh := n.lockShard(cd.p)
		st := &n.pages[cd.p]
		// Same causal application order as the demand path.
		for i, nt := range cd.pend {
			if err := ApplyDiff(n.pageData(cd.p), diffs[i]); err != nil {
				n.unlockShard(sh)
				return 0, 0, fmt.Errorf("dsm: node %d prefetch apply diff page %d: %w", n.id, cd.p, err)
			}
			applyCost += sim.Time(len(diffs[i])) * c.costs.DiffPerByte
			st.noteApplied(c.cfg.Nodes, nt.Writer, nt.Interval)
			n.bumpLamport(nt.Lam)
			c.probeDiffApplied(n.id, ApplyPrefetch, nt)
		}
		// Drop exactly the applied notices.
		keep := st.pending[:0]
		for _, nt := range st.pending {
			if _, ok := slices.BinarySearchFunc(cd.pend, nt, causalOrder); !ok {
				keep = append(keep, nt)
			}
		}
		st.pending = keep
		if len(st.pending) == 0 {
			n.as.SetProt(cd.p, vm.ProtRead)
			n.markPrefetched(st, true)
			applied++
			c.stats.PrefetchedPages.Add(1)
		}
		n.unlockShard(sh)
	}
	return applied, wire + applyCost, nil
}

// fetchDiffBatches fetches the diffs nts names — any number of pages and
// writers — with one DiffBatchRequest per writer, fanned out in parallel,
// and stores the diff of nts[i] in out[i] (nil where the writer has
// garbage-collected it). It returns the slowest round trip's wire cost (the
// requester's stall, since the fan-out overlaps), whether every requested
// diff was present, and the reply frames: out's entries alias them, so the
// caller releases the frames when it has applied or copied the diffs (on
// error there is nothing to release). It performs no state mutation on n
// and must be called without mu held; stats are recorded atomically.
func (n *node) fetchDiffBatches(nts []msg.Notice, out [][]byte) (sim.Time, bool, frames, error) {
	c := n.c
	// order visits nts writer by writer, each writer's notices by (page,
	// interval): the order the requests name the diffs in, and therefore
	// the order the replies return them in.
	order := make([]int32, len(nts))
	for i := range order {
		order[i] = int32(i)
	}
	slices.SortFunc(order, func(a, b int32) int {
		x, y := nts[a], nts[b]
		if c := cmp.Compare(x.Writer, y.Writer); c != 0 {
			return c
		}
		if c := cmp.Compare(x.Page, y.Page); c != 0 {
			return c
		}
		return cmp.Compare(x.Interval, y.Interval)
	})

	var reqs []*msg.DiffBatchRequest
	for lo := 0; lo < len(order); {
		w := nts[order[lo]].Writer
		req := &msg.DiffBatchRequest{From: int32(n.id), Writer: w}
		hi := lo
		for ; hi < len(order) && nts[order[hi]].Writer == w; hi++ {
			nt := nts[order[hi]]
			if len(req.Pages) == 0 || req.Pages[len(req.Pages)-1].Page != nt.Page {
				req.Pages = append(req.Pages, msg.PageIntervals{Page: nt.Page})
			}
			pi := &req.Pages[len(req.Pages)-1]
			pi.Intervals = append(pi.Intervals, nt.Interval)
		}
		if int(w) != n.id {
			c.stats.BatchSizeHist[batchSizeBucket(hi-lo)].Add(1)
		}
		reqs = append(reqs, req)
		lo = hi
	}

	replies := make([]*msg.DiffBatchReply, len(reqs))
	wires := make([]sim.Time, len(reqs))
	held := make(frames, len(reqs))
	err := fanOut(len(reqs), c.cfg.SerialFanOut, func(i int) error {
		w := reqs[i].Writer
		if int(w) == n.id {
			// The barrier manager reading its own diff store (push
			// collection): a local read, not a remote call. The reply
			// aliases pinned stored diffs, and there is no reply frame
			// to hold them in as on the wire path, so copy before
			// releasing the pins — the returned diffs must outlive a
			// concurrent GC drop.
			reply, pinned, err := n.serveDiffBatchRequest(reqs[i])
			if err != nil {
				return err
			}
			br := reply.(*msg.DiffBatchReply)
			for pi := range br.Pages {
				for j, df := range br.Pages[pi].Diffs {
					if df != nil {
						br.Pages[pi].Diffs[j] = append([]byte(nil), df...)
					}
				}
			}
			pinned.release()
			replies[i] = br
			return nil
		}
		reply, frame, wire, err := c.callFrame(n.id, int(w), reqs[i])
		if err != nil {
			return fmt.Errorf("dsm: node %d batch fetch diffs from %d: %w", n.id, w, err)
		}
		held[i] = frame
		br, ok := reply.(*msg.DiffBatchReply)
		if !ok || len(br.Pages) != len(reqs[i].Pages) {
			return fmt.Errorf("dsm: node %d bad diff batch reply from %d", n.id, w)
		}
		c.stats.DiffBatchFetches.Add(1)
		replies[i], wires[i] = br, wire
		return nil
	})
	if err != nil {
		held.release()
		return 0, false, nil, err
	}

	complete := true
	var maxWire sim.Time
	next := 0 // position in order of the next diff the replies return
	for i, req := range reqs {
		maxWire = max(maxWire, wires[i])
		for j, pd := range replies[i].Pages {
			want := req.Pages[j]
			if pd.Page != want.Page || len(pd.Diffs) != len(want.Intervals) {
				held.release()
				return 0, false, nil, fmt.Errorf("dsm: node %d misaligned diff batch reply from %d", n.id, req.Writer)
			}
			for _, df := range pd.Diffs {
				out[order[next]] = df
				next++
				if df == nil {
					complete = false
					continue
				}
				if int(req.Writer) != n.id {
					c.stats.BatchedDiffs.Add(1)
					c.stats.BytesDiff.Add(int64(len(df)))
				}
			}
		}
	}
	return maxWire, complete, held, nil
}

// serveDiffBatchRequest answers a batched diff fetch: a pure read of this
// node's diff store, grouped per page, taking each page's shard read lock
// in turn so concurrent batch serves for disjoint shards (and concurrent
// read-only serves within a shard) proceed in parallel. nil entries mark
// garbage-collected diffs, exactly as in DiffReply. Replies alias the
// immutable stored diffs, pinned by the returned references until the
// reply is encoded (or copied, on the local path).
func (n *node) serveDiffBatchRequest(req *msg.DiffBatchRequest) (msg.Message, retained, error) {
	out := &msg.DiffBatchReply{Pages: make([]msg.PageDiffs, len(req.Pages))}
	var pinned retained
	for i, pi := range req.Pages {
		out.Pages[i].Page = pi.Page
		out.Pages[i].Diffs = make([][]byte, len(pi.Intervals))
		if int(pi.Page) < 0 || int(pi.Page) >= len(n.pages) {
			continue
		}
		p := vm.PageID(pi.Page)
		sh := n.rlockShard(p)
		store := sh.diffs[p]
		for j, iv := range pi.Intervals {
			if d := store[iv]; d != nil {
				d.retain()
				pinned = append(pinned, d)
				out.Pages[i].Diffs[j] = d.b
			}
		}
		sh.mu.RUnlock()
	}
	return out, pinned, nil
}
