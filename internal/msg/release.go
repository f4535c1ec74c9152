package msg

import (
	"sync"

	"actdsm/internal/pool"
)

// Pooled names the message kinds that live in a per-kind pool: the miss
// path's requests and replies, the lock path's, and the barrier and GC
// kinds. Decode draws them from their pool, New hands one to a sender,
// and Release returns one. The replica, rejoin, Ack and SW* kinds stay
// unpooled. A receiver that keeps a pooled message past its serve owns it
// until it releases it: dsm's barrier state keeps a decoded
// BarrierRelease for the tree relay until the next attempt's reset.
type Pooled interface {
	pooled
	*PageRequest | *PageReply | *DiffRequest | *DiffReply | *DiffBatchRequest | *DiffBatchReply |
		*LockAcquire | *LockGrant | *LockRelease | *LockPull |
		*BarrierEnter | *BarrierRelease | *GCCollect
}

// pooled is what Release needs of a pooled kind: release drops the byte
// views and truncates the lists the message owns (poisoning them and the
// scalars in race builds), reset zeroes the scalars for a new sender.
type pooled interface {
	Message
	release()
	reset()
}

// pools holds one pool per pooled kind, indexed by Kind.
var pools = [KindCount]sync.Pool{
	KindPageRequest:      {New: func() any { return new(PageRequest) }},
	KindPageReply:        {New: func() any { return new(PageReply) }},
	KindDiffRequest:      {New: func() any { return new(DiffRequest) }},
	KindDiffReply:        {New: func() any { return new(DiffReply) }},
	KindDiffBatchRequest: {New: func() any { return new(DiffBatchRequest) }},
	KindDiffBatchReply:   {New: func() any { return new(DiffBatchReply) }},
	KindLockAcquire:      {New: func() any { return new(LockAcquire) }},
	KindLockGrant:        {New: func() any { return new(LockGrant) }},
	KindLockRelease:      {New: func() any { return new(LockRelease) }},
	KindLockPull:         {New: func() any { return new(LockPull) }},
	KindBarrierEnter:     {New: func() any { return new(BarrierEnter) }},
	KindBarrierRelease:   {New: func() any { return new(BarrierRelease) }},
	KindGCCollect:        {New: func() any { return new(GCCollect) }},
}

// New returns a message of a pooled kind with zero scalars and empty
// lists that keep the capacity their last use left. Return it with
// Release once nothing reads it any more.
func New[M Pooled]() M {
	var m M
	m = pools[m.Kind()].Get().(M)
	m.reset()
	return m
}

// Release is the one release of a message: one Decode returned, one New
// returned, or any of a pooled kind its caller owns outright. The message
// keeps its lists, truncated, for its next use; byte fields are views of a
// frame, a page image or a stored diff that their owners recycle, so they
// are dropped, never pooled. The caller must not reference m afterwards,
// nor any list it holds: a field pointing at the sender's own state must
// be detached first. Release of an unpooled kind, or of nil, does nothing,
// so a handler may release every request it decoded. Race builds fill the
// released scalars with -0x2425, a list's capacity with Notice or int32
// -0x2425 and a diff list's with a run of 0xDB bytes, so a stale read names
// an impossible page or a malformed diff.
func Release(m Message) {
	if p, ok := m.(pooled); ok {
		p.release()
		pools[m.Kind()].Put(m)
	}
}

// poisoned is what a race build fills a released message's integers with.
const poisoned = -0x2425

// PoisonNotice is the impossible notice a race build fills recycled
// notice storage with: a released message's lists here, and in dsm a
// node's causal history at the barrier and a pending block a queue
// outgrew. A stale read names page -9253.
var PoisonNotice = Notice{Page: poisoned, Writer: poisoned, Interval: poisoned, Lam: poisoned}

// poisonDiff replaces a released diff list's entries in race builds:
// applied, it is a run at offset 0xDBDB, past any page.
var poisonDiff = []byte{pool.PoisonByte, pool.PoisonByte, pool.PoisonByte, pool.PoisonByte}

// poisonPush replaces a released push list's entries in race builds.
var poisonPush = PushedDiff{Page: poisoned, Writer: poisoned, Interval: poisoned, Diff: poisonDiff}

// truncate empties a list the message owns (race builds poison its
// capacity first).
func truncate[T any](s []T, poison T) []T {
	pool.Poison(s, poison)
	return s[:0]
}

// dropViews empties a diff list, clearing the views it held.
func dropViews(ds [][]byte) [][]byte {
	clear(ds)
	return truncate(ds, poisonDiff)
}

// dropPushes empties a push list, clearing the diff views it held.
func dropPushes(ps []PushedDiff) []PushedDiff {
	clear(ps)
	return truncate(ps, poisonPush)
}

// resize returns s at length n, never nil, reusing its capacity and the
// elements kept there, whose own lists a decode refills.
func resize[T any](s []T, n int) []T {
	if n > cap(s) {
		s = append(s[:cap(s)], make([]T, n-cap(s))...)
	}
	if s == nil {
		return []T{}
	}
	return s[:n]
}

func (m *PageRequest) release() {
	if pool.Race {
		m.From, m.Page = poisoned, poisoned
	}
	m.Pending = truncate(m.Pending, PoisonNotice)
}

func (m *PageRequest) reset() { *m = PageRequest{Pending: m.Pending[:0]} }

func (m *PageReply) release() {
	if pool.Race {
		m.Page = poisoned
	}
	m.Data = nil
	m.AppliedVT = truncate(m.AppliedVT, poisoned)
}

func (m *PageReply) reset() { *m = PageReply{AppliedVT: m.AppliedVT[:0]} }

func (m *DiffRequest) release() {
	if pool.Race {
		m.From, m.Page, m.Writer = poisoned, poisoned, poisoned
	}
	m.Intervals = truncate(m.Intervals, poisoned)
}

func (m *DiffRequest) reset() { *m = DiffRequest{Intervals: m.Intervals[:0]} }

func (m *DiffReply) release() {
	if pool.Race {
		m.Page = poisoned
	}
	m.Diffs = dropViews(m.Diffs)
}

func (m *DiffReply) reset() { *m = DiffReply{Diffs: m.Diffs[:0]} }

// AddPage appends a page to the request and returns its entry, whose
// interval list is empty but keeps the capacity an earlier use left.
func (m *DiffBatchRequest) AddPage(page int32) *PageIntervals {
	m.Pages = resize(m.Pages, len(m.Pages)+1)
	pi := &m.Pages[len(m.Pages)-1]
	pi.Page, pi.Intervals = page, pi.Intervals[:0]
	return pi
}

// release keeps every entry's interval list within the page list's
// capacity, for AddPage and Decode to refill.
func (m *DiffBatchRequest) release() {
	if pool.Race {
		m.From, m.Writer = poisoned, poisoned
	}
	for i, all := 0, m.Pages[:cap(m.Pages)]; i < len(all); i++ {
		if pool.Race {
			all[i].Page = poisoned
		}
		all[i].Intervals = truncate(all[i].Intervals, poisoned)
	}
	m.Pages = m.Pages[:0]
}

func (m *DiffBatchRequest) reset() { *m = DiffBatchRequest{Pages: m.Pages[:0]} }

// release keeps every entry's diff list, as DiffBatchRequest's keeps
// interval lists.
func (m *DiffBatchReply) release() {
	for i, all := 0, m.Pages[:cap(m.Pages)]; i < len(all); i++ {
		if pool.Race {
			all[i].Page = poisoned
		}
		all[i].Diffs = dropViews(all[i].Diffs)
	}
	m.Pages = m.Pages[:0]
}

func (m *DiffBatchReply) reset() { m.Pages = m.Pages[:0] }

func (m *LockAcquire) release() {
	if pool.Race {
		m.Node, m.Lock, m.Pos = poisoned, poisoned, poisoned
	}
	m.Seen = truncate(m.Seen, poisoned)
}

func (m *LockAcquire) reset() { *m = LockAcquire{Seen: m.Seen[:0]} }

func (m *LockGrant) release() {
	if pool.Race {
		m.Lock, m.Lam, m.Pos, m.Holder = poisoned, poisoned, poisoned, poisoned
	}
	m.Notices = truncate(m.Notices, PoisonNotice)
}

func (m *LockGrant) reset() { *m = LockGrant{Notices: m.Notices[:0]} }

func (m *LockRelease) release() {
	if pool.Race {
		m.Node, m.Lock, m.Lam = poisoned, poisoned, poisoned
	}
	m.Notices = truncate(m.Notices, PoisonNotice)
}

func (m *LockRelease) reset() { *m = LockRelease{Notices: m.Notices[:0]} }

func (m *LockPull) release() {
	if pool.Race {
		m.Node, m.Lock, m.Holder = poisoned, poisoned, poisoned
	}
	m.Seen = truncate(m.Seen, poisoned)
}

func (m *LockPull) reset() { *m = LockPull{Seen: m.Seen[:0]} }

// release keeps every hot set's page list within the list's capacity, as
// DiffBatchRequest's keeps interval lists.
func (m *BarrierEnter) release() {
	if pool.Race {
		m.Node, m.Episode, m.Lam = poisoned, poisoned, poisoned
	}
	m.Notices = truncate(m.Notices, PoisonNotice)
	m.Hot = truncate(m.Hot, poisoned)
	m.Entered = truncate(m.Entered, poisoned)
	for i, all := 0, m.HotSets[:cap(m.HotSets)]; i < len(all); i++ {
		if pool.Race {
			all[i].Node = poisoned
		}
		all[i].Pages = truncate(all[i].Pages, poisoned)
	}
	m.HotSets = m.HotSets[:0]
}

func (m *BarrierEnter) reset() {
	*m = BarrierEnter{Notices: m.Notices[:0], Hot: m.Hot[:0], Entered: m.Entered[:0], HotSets: m.HotSets[:0]}
}

// release keeps every relay entry's push list, as BarrierEnter's keeps
// page lists, and drops every diff view.
func (m *BarrierRelease) release() {
	if pool.Race {
		m.Episode, m.Lam = poisoned, poisoned
	}
	m.Notices = truncate(m.Notices, PoisonNotice)
	m.Push = dropPushes(m.Push)
	m.Homes = truncate(m.Homes, PageHome{Page: poisoned, Home: poisoned})
	for i, all := 0, m.Relay[:cap(m.Relay)]; i < len(all); i++ {
		if pool.Race {
			all[i].Node = poisoned
		}
		all[i].Push = dropPushes(all[i].Push)
	}
	m.Relay = m.Relay[:0]
}

func (m *BarrierRelease) reset() {
	*m = BarrierRelease{Notices: m.Notices[:0], Push: m.Push[:0], Homes: m.Homes[:0], Relay: m.Relay[:0]}
}

func (m *GCCollect) release() { m.Pages = truncate(m.Pages, poisoned) }

func (m *GCCollect) reset() { m.Pages = m.Pages[:0] }
