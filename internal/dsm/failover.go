package dsm

// Crash-fault tolerance for the decentralized managers (DESIGN.md §12).
//
// With Config.FaultTolerance every manager role — lock shards, the
// barrier root and tree interior, page homes and the diff directory —
// fails over to the dead node's ring successor in the membership view.
// The successor can take over because each node continuously replicates
// its manager-relevant state there:
//
//   - Interval state rides ReplicaDelta messages shipped after every
//     interval close (barrier phase 1 and lock release): the closed
//     interval's notices with their diff bytes, the node's interval
//     counter and Lamport clock, and the suffix of its causal history
//     (known) accumulated since the previous delta. A sequence number
//     dedups transport-retried deltas.
//   - Lock-manager state rides copies of each LockRelease: every release
//     also goes to the serving manager's successor (which mirrors the
//     manager log) and to the releaser's own successor (which records how
//     much of the releaser's replicated history the release covered, so
//     grant forwarding survives a dead holder). One serve per lock message
//     chooses between a node's own state and the mirrors (node.go).
//
// When a call fails with transport.ErrNodeDown, the caller refreshes the
// membership view against the chaos layer's crash state and re-resolves
// the target: page fetches re-route to the page's standby (fetchFullPage),
// and diff fetches for a dead writer, lock traffic for a dead manager and
// history pulls from a dead holder to that owner's standby (route). A
// barrier run that loses a node mid-phase re-runs its phases
// over the shrunk alive set; the dead node's replicated-but-unflushed
// notices are folded into its successor's enter so no pre-crash write is
// lost.
//
// Recovery: a crashed node rejoins at the start of a barrier episode
// (sim.CrashSchedule.RestartEpoch) or imperatively via Cluster.Restart.
// It wipes its local protocol state, re-learns its interval counter,
// seen vector, and the home table from its successor (RejoinRequest),
// eagerly re-fetches its home pages from the standby while the view
// still routes around it, and only then re-enters the membership view.
//
// Fault model: at most one membership change per barrier epoch (fail-
// stop; no network ambiguity — the chaos layer's crash state is the
// ground truth the view converges to). Nodes that lost state rejoin
// empty-handed; peers holding stale references to a rejoined node's
// pre-crash diffs get nil replies and fall back to full-page fetches.

import (
	"errors"
	"fmt"
	"slices"

	"actdsm/internal/msg"
	"actdsm/internal/sim"
	"actdsm/internal/transport"
	"actdsm/internal/vm"
)

// replMeta is the receiver-side record of one origin node's replicated
// interval state: the interval counter the origin would allocate next,
// its Lamport clock at the last delta, and the last delta sequence
// number applied (the dedup high-water mark).
type replMeta struct {
	interval int32
	lam      int32
	seq      int32
}

// isNodeDown reports whether err is rooted in a crashed-node failure
// (the permanent, non-retryable transport sentinel).
func isNodeDown(err error) bool { return errors.Is(err, transport.ErrNodeDown) }

// isDead reports whether the membership view currently marks node i
// dead. Always false without Config.FaultTolerance, without touching
// the view lock.
func (c *Cluster) isDead(i int) bool {
	if !c.cfg.FaultTolerance {
		return false
	}
	c.viewMu.RLock()
	d := c.dead[i]
	c.viewMu.RUnlock()
	return d
}

// aliveSucc returns the first alive node after i on the ring — the
// node i's manager roles and replicated state fail over to. Returns i
// itself when every other node is dead.
func (c *Cluster) aliveSucc(i int) int {
	c.viewMu.RLock()
	defer c.viewMu.RUnlock()
	return c.aliveSuccLocked(i)
}

func (c *Cluster) aliveSuccLocked(i int) int {
	n := c.cfg.Nodes
	for k := 1; k < n; k++ {
		j := (i + k) % n
		if !c.dead[j] {
			return j
		}
	}
	return i
}

// aliveList returns the sorted ids of the nodes currently alive, in
// dst's array.
func (c *Cluster) aliveList(dst []int) []int {
	c.viewMu.RLock()
	defer c.viewMu.RUnlock()
	out := dst[:0]
	for i := range c.dead {
		if !c.dead[i] {
			out = append(out, i)
		}
	}
	return out
}

// DeadNodes returns the sorted ids of the nodes the membership view
// currently marks dead. Empty without Config.FaultTolerance. The thread
// engine consults it after each barrier to migrate work off crashed
// nodes.
func (c *Cluster) DeadNodes() []int {
	if !c.cfg.FaultTolerance {
		return nil
	}
	c.viewMu.RLock()
	defer c.viewMu.RUnlock()
	var out []int
	for i := range c.dead {
		if c.dead[i] {
			out = append(out, i)
		}
	}
	return out
}

// AliveSuccessor returns the first alive node after i on the ring — the
// failover target for node i's manager roles, replicated state, and
// (for the thread engine) its resident threads. Returns i itself when i
// is alive or every other node is dead; without Config.FaultTolerance
// it is the identity.
func (c *Cluster) AliveSuccessor(i int) int {
	if !c.isDead(i) {
		return i
	}
	return c.aliveSucc(i)
}

// refreshView reconciles the membership view with the chaos layer's
// crash state and returns the number of newly-dead nodes discovered.
// Callers invoke it when a call fails with ErrNodeDown (and at barrier
// entry), then re-resolve their target against the updated view.
func (c *Cluster) refreshView() int {
	if !c.cfg.FaultTolerance {
		return 0 // nothing fails over, so nobody is ever marked dead
	}
	var crashed []int
	c.viewMu.Lock()
	for i := range c.dead {
		if !c.dead[i] && c.chaos.Down(i) {
			c.dead[i] = true
			c.viewVer++
			crashed = append(crashed, i)
		}
	}
	c.viewMu.Unlock()
	for _, i := range crashed {
		c.stats.Crashes.Add(1)
		c.probeNodeCrashed(i)
	}
	return len(crashed)
}

// shouldFailOver reports whether a call to node `to` that failed with err
// should be re-resolved against the membership view and retried: the
// refresh just learned of a death, or another caller already recorded
// that `to` is dead. The second clause matters under concurrency — every
// caller that resolved the same target before it died lands here, and
// only the first one's refresh discovers anything.
func (c *Cluster) shouldFailOver(err error, to int) bool {
	return c.cfg.FaultTolerance && isNodeDown(err) && (c.refreshView() > 0 || c.isDead(to))
}

// effHome returns the node currently serving a page: its home, or the
// home's ring successor (the standby) when the home is dead.
func (n *node) effHome(p vm.PageID) int { return n.c.AliveSuccessor(n.home(p)) }

// route carries one request to whichever node plays a static owner's role
// right now — a diff's writer, a lock's primary manager, the holder of a
// lock's history: the owner itself, or its ring standby while the view
// marks it dead. It is the one failover loop for diff and lock traffic;
// fetchFullPage and replicate keep their own (DESIGN.md §12.2).
type route struct {
	n      *node
	owner  int
	target int // the current attempt's node
}

// routeTo starts a route from n to owner's current stand-in.
func (n *node) routeTo(owner int) route {
	return route{n: n, owner: owner, target: n.c.AliveSuccessor(owner)}
}

// standby reports whether the route's target is the owner's standby.
func (r *route) standby() bool { return r.target != r.owner }

// call sends req along the route. A target that dies under the call is
// re-resolved against the refreshed view and sent the same request again,
// at most Nodes times. A call answered by a standby counts one failover,
// however many attempts it took. The reply borrows from the returned
// lease, which is the caller's to release on every path that got one.
func (r *route) call(req msg.Message) (msg.Message, lease, sim.Time, error) {
	c := r.n.c
	for attempt := 0; ; attempt++ {
		reply, held, wire, err := r.n.sendTo(r.target, req)
		if err == nil {
			if r.standby() {
				c.stats.Failovers.Add(1)
			}
			return reply, held, wire, nil
		}
		if attempt >= c.cfg.Nodes || !c.shouldFailOver(err, r.target) {
			return nil, lease{}, 0, err
		}
		r.target = c.AliveSuccessor(r.owner)
	}
}

// sendTo makes one attempt at a request to node `to`. When that is n
// itself the request is served in place, with no wire: the same serve a
// peer's request gets. The returned lease holds the reply and what it
// borrows from — the reply frame, or the references the serve pinned.
func (n *node) sendTo(to int, req msg.Message) (reply msg.Message, held lease, wire sim.Time, err error) {
	if to == n.id {
		reply, held.pins, err = n.serve(n.id, req)
	} else {
		reply, held.frame, wire, err = n.c.callFrame(n.id, to, req)
	}
	held.reply = reply
	return reply, held, wire, err
}

// Kill crashes a node imperatively through the chaos layer and updates
// the membership view at once. Test harness entry point; requires
// Config.FaultTolerance (which requires Config.Chaos).
func (c *Cluster) Kill(node int) error {
	if !c.cfg.FaultTolerance || c.chaos == nil {
		return errors.New("dsm: Kill requires Config.FaultTolerance")
	}
	if node < 0 || node >= c.cfg.Nodes {
		return fmt.Errorf("dsm: Kill: no node %d", node)
	}
	c.chaos.Kill(node)
	c.refreshView()
	return nil
}

// Restart runs the recovery protocol for a crashed node immediately
// (the imperative counterpart of sim.CrashSchedule.RestartEpoch). The
// node rejoins with empty protocol state and a freshly fetched copy of
// its home pages.
func (c *Cluster) Restart(node int) error {
	if !c.cfg.FaultTolerance {
		return errors.New("dsm: Restart requires Config.FaultTolerance")
	}
	if node < 0 || node >= c.cfg.Nodes {
		return fmt.Errorf("dsm: Restart: no node %d", node)
	}
	if !c.isDead(node) {
		return nil
	}
	_, err := c.rejoinNode(node)
	return err
}

// replicate ships a node's just-closed interval state to its ring
// successor: the closed notices with their diff bytes, the interval
// counter and Lamport clock, and the suffix of known accumulated since
// the last delta. Called after every closeInterval site — even when the
// close produced no notices, because the known suffix (history received
// under locks) still has to reach the standby before the release that
// covers it. Returns the requester-side wire cost.
func (c *Cluster) replicate(n *node, notices []msg.Notice) (sim.Time, error) {
	succ := c.aliveSucc(n.id)
	if succ == n.id {
		return 0, nil
	}
	build := func(fullKnown bool) *msg.ReplicaDelta {
		n.lockSync()
		n.replSeq++
		start := n.replSent
		if fullKnown {
			start = 0
		}
		d := &msg.ReplicaDelta{
			Origin:   int32(n.id),
			Seq:      n.replSeq,
			Interval: n.interval,
			Lam:      n.lamport.Load(),
			Notices:  notices,
			Known:    n.known[start:], // stable without mu until the barrier truncates known; the standby copies it
		}
		n.replSent = len(n.known)
		n.mu.Unlock()
		for _, nt := range notices {
			p := vm.PageID(nt.Page)
			sh := n.rlockShard(p)
			df := slices.Clone(n.pages[p].ownDiff(nt.Interval).bytes()) // nil when none is held
			sh.mu.RUnlock()
			d.Diffs = append(d.Diffs, df)
		}
		return d
	}
	delta := build(false)
	for attempt := 0; ; attempt++ {
		_, wire, err := c.call(n.id, succ, delta)
		if err == nil {
			c.stats.ReplicaDeltas.Add(1)
			c.stats.ReplicaBytes.Add(int64(msg.Size(delta)))
			return wire, nil
		}
		if attempt < c.cfg.Nodes && c.shouldFailOver(err, succ) {
			// The standby itself died. The new standby has none of this
			// epoch's earlier suffixes, so re-ship the full history.
			succ = c.aliveSucc(n.id)
			if succ == n.id {
				return 0, nil
			}
			c.stats.Failovers.Add(1)
			delta = build(true)
			continue
		}
		return 0, fmt.Errorf("dsm: node %d replicate to %d: %w", n.id, succ, err)
	}
}

// serveReplicaDelta folds a predecessor's interval-state delta into
// this node's replica store. Idempotent: the per-origin sequence number
// drops transport-retried duplicates before any state changes.
func (n *node) serveReplicaDelta(req *msg.ReplicaDelta) (msg.Message, error) {
	origin := int(req.Origin)
	if origin < 0 || origin >= n.c.cfg.Nodes {
		return nil, fmt.Errorf("dsm: replica delta from unknown origin %d", origin)
	}
	n.replMu.Lock()
	defer n.replMu.Unlock()
	st := n.replState[origin]
	if req.Seq <= st.seq {
		return &msg.Ack{}, nil // duplicate delivery (transport retry)
	}
	st.seq = req.Seq
	st.interval = req.Interval
	st.lam = req.Lam
	n.replState[origin] = st
	n.replKnown[origin] = append(n.replKnown[origin], req.Known...)
	for i, nt := range req.Notices {
		if i >= len(req.Diffs) || req.Diffs[i] == nil {
			continue // silent store: the interval produced no diff
		}
		pm := n.replDiffs[origin]
		if pm == nil {
			pm = make(map[vm.PageID]map[int32][]byte)
			n.replDiffs[origin] = pm
		}
		m := pm[vm.PageID(nt.Page)]
		if m == nil {
			m = make(map[int32][]byte)
			pm[vm.PageID(nt.Page)] = m
		}
		// Retain site: the replica store keeps the diff for as long as
		// the origin might crash, the request frame only until this
		// handler returns.
		m[nt.Interval] = slices.Clone(req.Diffs[i])
	}
	return &msg.Ack{}, nil
}

// shadowRelease copies a lock release to the standbys that must see it:
// the serving manager's ring successor, which mirrors the primary's log,
// and the releaser's, which records the release's mark (serveLockRelease).
// A target that is the serving manager has the release already. Every
// copy is the manager's message itself, so a mirror receives exactly what
// the log receives. A standby that dies is skipped: the next membership
// change re-establishes mirrors from the post-barrier reset state.
func (c *Cluster) shadowRelease(n *node, rel *msg.LockRelease, em int) (sim.Time, error) {
	targets := [2]int{c.aliveSucc(em), c.aliveSucc(n.id)}
	var cost sim.Time
	for i, t := range targets {
		if t == em || (i == 1 && t == targets[0]) {
			continue
		}
		_, held, wire, err := n.sendTo(t, rel)
		held.release()
		if err != nil {
			if c.shouldFailOver(err, t) {
				continue
			}
			return cost, fmt.Errorf("dsm: node %d shadow release lock %d to %d: %w", n.id, rel.Lock, t, err)
		}
		cost += wire
	}
	return cost, nil
}

// resetForRejoin wipes the node's protocol state ahead of re-entering
// the cluster: page copies, twins, pending sets, stored diffs, sync
// histories, manager logs, and replica stores all restart empty. The
// caller re-learns the interval counter and seen vector from the
// successor before the node serves traffic again.
func (n *node) resetForRejoin() {
	for s := range n.shards {
		sh := &n.shards[s]
		sh.mu.Lock()
		for p := s; p < len(n.pages); p += len(n.shards) {
			st := &n.pages[p]
			st.dropDiffs()
			if st.twin != nil {
				putPageBuf(st.twin)
				st.twin = nil
			}
			st.dirty = false
			st.hasCopy = false
			st.pending = st.pending[:0]
			n.markPrefetched(st, false)
			clear(st.appliedVT)
			n.as.SetProt(vm.PageID(p), vm.ProtNone)
		}
		n.unlockShard(sh)
	}
	n.diffBytes.Store(0)
	n.lamport.Store(0)
	n.lockSync()
	n.interval = 1
	n.seen = make([]int32, len(n.seen)) // copy-on-write: never zeroed in place
	n.known = nil
	n.knownHave.clear()
	n.replSent = 0
	n.replSeq = 0
	if n.faultWin != nil {
		n.faultWin.Reset()
	}
	if n.late != nil {
		n.late = make(map[vm.PageID]bool)
	}
	n.pushedEpoch = 0
	n.pushCost = 0
	n.mu.Unlock()
	n.resetLockState()
	n.replMu.Lock()
	n.replKnown = make(map[int][]msg.Notice)
	n.replLockMark = make(map[int]map[int32]int)
	n.replDiffs = make(map[int]map[vm.PageID]map[int32][]byte)
	n.replState = make(map[int]replMeta)
	n.replMu.Unlock()
}

// serveRejoinRequest hands a rejoining predecessor the state it needs
// to resume: its replicated interval counter and Lamport clock, this
// node's seen vector (a safe, fully-flushed view for a node with no
// history), and the current home table. The rejoiner's replica store
// here restarts empty — its pre-crash diffs are unreachable anyway once
// the node itself has wiped them — and the delta sequence resets so the
// rejoiner's fresh numbering is accepted. Idempotent for transport
// retries: the interval record is read, not consumed.
func (n *node) serveRejoinRequest(req *msg.RejoinRequest) (msg.Message, error) {
	d := int(req.Node)
	if d < 0 || d >= n.c.cfg.Nodes {
		return nil, fmt.Errorf("dsm: rejoin request from unknown node %d", d)
	}
	n.replMu.Lock()
	st := n.replState[d]
	st.seq = 0
	n.replState[d] = st
	delete(n.replKnown, d)
	delete(n.replDiffs, d)
	delete(n.replLockMark, d)
	n.replMu.Unlock()
	iv := st.interval
	if iv < 1 {
		iv = 1
	}
	n.lockSync()
	seen := n.seen
	n.mu.Unlock()
	homes := make([]int32, len(n.homes))
	for p := range n.homes {
		homes[p] = n.homes[p].Load()
	}
	return &msg.RejoinReply{Interval: iv, Lam: st.lam, Seen: seen, Homes: homes}, nil
}

// rejoinNode runs the recovery protocol for a crashed node: revive its
// transport, wipe its local state, re-learn interval/seen/homes from
// the ring successor, eagerly re-fetch the node's home pages from the
// standby (the membership view still routes around the node, so the
// fetches resolve to the standby), and finally mark the node alive.
func (c *Cluster) rejoinNode(d int) (sim.Time, error) {
	if c.chaos != nil {
		c.chaos.Revive(d)
	}
	n := c.nodes[d]
	n.resetForRejoin()
	succ := c.aliveSucc(d)
	var cost sim.Time
	if succ != d {
		reply, wire, err := c.call(d, succ, &msg.RejoinRequest{Node: int32(d)})
		if err != nil {
			return 0, fmt.Errorf("dsm: node %d rejoin: %w", d, err)
		}
		rr, ok := reply.(*msg.RejoinReply)
		if !ok {
			return 0, fmt.Errorf("dsm: node %d rejoin: unexpected reply %T", d, reply)
		}
		cost += wire
		n.bumpLamport(rr.Lam)
		n.lockSync()
		n.interval = maxI32(rr.Interval, 1)
		seen := make([]int32, len(n.seen))
		copy(seen, rr.Seen)
		n.seen = seen
		n.mu.Unlock()
		for p, h := range rr.Homes {
			if p < len(n.homes) {
				n.homes[p].Store(h)
			}
		}
		// Eager home re-fetch: effHome resolves to the standby while the
		// view still marks this node dead.
		var ti sim.ThreadInterval
		for p := range n.pages {
			if n.home(vm.PageID(p)) == d {
				if err := n.fetchFullPage(&ti, -1, vm.PageID(p), ApplyServer); err != nil {
					return 0, fmt.Errorf("dsm: node %d rejoin refetch page %d: %w", d, p, err)
				}
			}
		}
		cost += ti.Stall + ti.Overhead
	}
	c.viewMu.Lock()
	if c.dead[d] {
		c.dead[d] = false
		c.viewVer++
	}
	c.viewMu.Unlock()
	c.stats.Rejoins.Add(1)
	c.probeNodeRejoined(d)
	return cost, nil
}

// fetchStandbyCopy has standby node s pull a full, current copy of page p
// on the protocol's behalf (application threads are parked) and returns
// the virtual time the fetch cost it.
func (c *Cluster) fetchStandbyCopy(s int, p vm.PageID) (sim.Time, error) {
	var ti sim.ThreadInterval
	err := c.nodes[s].fetchFullPage(&ti, -1, p, ApplyServer)
	return ti.Stall + ti.Overhead, err
}

// contributeDead folds each dead node's replicated, not-yet-flushed
// causal history into its successor's barrier enter, so the episode's
// union still carries every pre-crash write notice (the successor also
// holds the matching diffs in its replica store).
func (c *Cluster) contributeDead(enters []*msg.BarrierEnter) {
	for d := range c.nodes {
		if !c.isDead(d) {
			continue
		}
		s := c.aliveSucc(d)
		if s == d || enters[s] == nil {
			continue
		}
		sn := c.nodes[s]
		sn.replMu.Lock()
		enters[s].Notices = append(enters[s].Notices, sn.replKnown[d]...)
		enters[s].Lam = maxI32(enters[s].Lam, sn.replState[d].lam)
		sn.replMu.Unlock()
	}
}

// viewVersion returns the membership view's change counter; retry loops
// compare it across an attempt to detect deaths an inner recovery path
// already folded into the view.
func (c *Cluster) viewVersion() int64 {
	c.viewMu.RLock()
	defer c.viewMu.RUnlock()
	return c.viewVer
}

// rerunOnViewChange runs a view-wide protocol step (the barrier's
// phases, a garbage-collection round) and re-runs it over the shrunk view
// when a member died under it. The step re-runs when the view shrank —
// whether this check discovers the death or an inner retry (replicate's
// standby re-ship, a serve loop) already recorded it and then failed for
// the same crash; gating on refreshView alone would let that inner
// discovery consume the retry's trigger. A re-run is a membership change,
// not a transient fault, which the transport's own retry handles. Without
// fault tolerance the view never changes and the step runs exactly once.
func (c *Cluster) rerunOnViewChange(step func() error) error {
	for attempt := 0; ; attempt++ {
		ver := c.viewVersion()
		err := step()
		if err == nil {
			return nil
		}
		if isNodeDown(err) && attempt < c.cfg.Nodes &&
			(c.refreshView() > 0 || c.viewVersion() != ver) {
			c.stats.RecoveryRounds.Add(1)
			continue
		}
		return err
	}
}
