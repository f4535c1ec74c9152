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
// and the protocol is multi-writer. The view's members are processed in
// order so runs stay deterministic; each node's per-writer batch fetches
// fan out in parallel. The returned slice holds each node's virtual-time
// cost.
func (c *Cluster) PrefetchRound() ([]sim.Time, error) {
	costs := make([]sim.Time, c.cfg.Nodes)
	if c.cfg.PrefetchBudget == 0 || c.cfg.Protocol != MultiWriter {
		return costs, nil
	}
	c.stats.PrefetchRounds.Add(1)
	for i, n := range c.nodes {
		if c.isDead(i) {
			continue // no resident threads, and it can call nobody
		}
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
// the pull path); anything else is left for demand or pull. The covered
// notices are taken in pending's order, which is causal, so they apply as
// they are. Applying is idempotent across re-deliveries: a retried release
// finds the pending set empty (the notices dedup through staleOrDup) and
// skips. It locks each page's shard in turn and returns the accumulated
// apply cost and the number of pages brought current; the caller folds
// those into the sync-state pushCost/pushedEpoch accounting.
func (n *node) applyPush(push []msg.PushedDiff) (sim.Time, int, error) {
	pushed := make(map[[3]int32][]byte, len(push))
	var pages []vm.PageID
	seen := make(map[vm.PageID]bool)
	for _, pd := range push {
		if int(pd.Page) < 0 || int(pd.Page) >= len(n.pages) {
			return 0, 0, fmt.Errorf("dsm: node %d pushed diff for page %d out of range", n.id, pd.Page)
		}
		pushed[[3]int32{pd.Page, pd.Writer, pd.Interval}] = pd.Diff
		if p := vm.PageID(pd.Page); !seen[p] {
			seen[p] = true
			pages = append(pages, p)
		}
	}
	var total sim.Time
	current := 0
	for _, p := range pages {
		sh := n.lockShard(p)
		st := &n.pages[p]
		if !st.hasCopy || len(st.pending) == 0 {
			n.unlockShard(sh)
			continue
		}
		covered, diffs := make([]msg.Notice, 0, len(st.pending)), make([][]byte, 0, len(st.pending))
		for _, nt := range st.pending {
			if df, ok := pushed[[3]int32{nt.Page, nt.Writer, nt.Interval}]; ok {
				covered = append(covered, nt)
				diffs = append(diffs, df)
			}
		}
		if len(covered) < len(st.pending) {
			n.unlockShard(sh)
			continue
		}
		cost, err := n.applyDiffs(p, covered, diffs, ApplyPush)
		n.unlockShard(sh)
		if err != nil {
			return 0, 0, err
		}
		total += cost
		current++
	}
	return total, current, nil
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
	byPage := make(map[int32][]int) // page → its notices, as indices into notices
	for i, nt := range notices {
		byPage[nt.Page] = append(byPage[nt.Page], i)
	}

	// Select each destination's served pages and the union of the diffs
	// they need: slot[i] is where notices[i]'s diff goes in the fetch, plus
	// one, or zero while nobody needs it.
	slot := make([]int, len(notices))
	var needed []msg.Notice
	wants := make(map[int32][]int32)
	for dest := int32(0); int(dest) < c.cfg.Nodes; dest++ {
		count := 0
		for _, p := range hot[dest] {
			foreign := slices.ContainsFunc(byPage[p], func(i int) bool { return notices[i].Writer != dest })
			if !foreign {
				continue // nothing pending for this page this epoch
			}
			if budget > 0 && count >= budget {
				break // remaining predictions fall to pull or demand
			}
			count++
			wants[dest] = append(wants[dest], p)
			for _, i := range byPage[p] {
				if notices[i].Writer != dest && slot[i] == 0 {
					needed = append(needed, notices[i])
					slot[i] = len(needed)
				}
			}
		}
	}
	if len(needed) == 0 {
		return nil, 0, nil
	}

	// One batch per writer for the whole cluster; the root's own diffs are
	// a local read of its store (route serves them in place).
	diffs := make([][]byte, len(needed))
	wire, _, batch, err := c.nodes[root].fetchDiffBatches(needed, diffs)
	if err != nil {
		return nil, 0, err
	}
	// Retain site: the diffs ride the release fan-out, long after this
	// function has returned, so they are copied out of what they borrow
	// from — reply frames, or the root's pinned store.
	for i, df := range diffs {
		diffs[i] = slices.Clone(df)
	}
	batch.release()

	// Assemble each destination's push list. A page any of whose diffs
	// is missing (garbage-collected on the writer) is skipped whole.
	out := make(map[int32][]msg.PushedDiff)
	for dest, pages := range wants {
	pages:
		for _, p := range pages {
			list := out[dest]
			for _, i := range byPage[p] {
				nt := notices[i]
				if nt.Writer == dest {
					continue
				}
				df := diffs[slot[i]-1]
				if df == nil {
					continue pages
				}
				list = append(list, msg.PushedDiff{Page: nt.Page, Writer: nt.Writer, Interval: nt.Interval, Diff: df})
			}
			out[dest] = list
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
	// candidate's notices are a pending snapshot, already in causal order,
	// so its slice of the result is the order its diffs apply in.
	var all []msg.Notice
	for _, cd := range cands {
		all = append(all, cd.pend...)
	}
	got := make([][]byte, len(all))
	wire, _, batch, err := n.fetchDiffBatches(all, got)
	if err != nil {
		return 0, 0, err
	}
	defer batch.release() // got borrows from the batch's leases until applied

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
		cost, err := n.applyDiffs(cd.p, cd.pend, diffs, ApplyPrefetch)
		current := len(n.pages[cd.p].pending) == 0
		n.unlockShard(sh)
		if err != nil {
			return 0, 0, err
		}
		applyCost += cost
		if current {
			applied++
		}
	}
	return applied, wire + applyCost, nil
}
