package threads

import (
	"actdsm/internal/memlayout"
	"actdsm/internal/sim"
	"actdsm/internal/vm"
)

// Ctx is an application thread's handle to shared memory and
// synchronization. A Ctx is bound to one thread and must only be used
// from that thread's body.
type Ctx struct {
	engine *Engine
	t      *thread
}

// TID returns the thread's id.
func (c *Ctx) TID() int { return c.t.id }

// Node returns the node currently hosting the thread.
func (c *Ctx) Node() int { return c.engine.nodeOf[c.t.id] }

// NumThreads returns the application thread count.
func (c *Ctx) NumThreads() int { return c.engine.cfg.Threads }

// NumNodes returns the cluster's node count.
func (c *Ctx) NumNodes() int { return len(c.engine.clocks) }

// Compute charges the thread for words of application computation.
func (c *Ctx) Compute(words int) {
	if words > 0 {
		c.t.cur.Compute += sim.Time(words) * c.engine.costs.ComputePerWord
	}
}

// Span validates the bytes [off, off+size) of the shared segment for the
// given access and returns a window aliasing the node's copy. The window
// is invalidated by the next synchronization call; re-acquire after
// barriers and lock transfers.
func (c *Ctx) Span(off, size int, a vm.Access) ([]byte, error) {
	b, ti, err := c.engine.cluster.Span(c.Node(), c.t.id, off, size, a)
	c.t.cur.Add(ti)
	return b, err
}

// SpanRegion is Span addressed relative to a layout region.
func (c *Ctx) SpanRegion(r memlayout.Region, off, size int, a vm.Access) ([]byte, error) {
	return c.Span(r.Off+off, size, a)
}

// F32 returns a float32 view over n elements of region r starting at
// element index elem.
func (c *Ctx) F32(r memlayout.Region, elem, n int, a vm.Access) (memlayout.F32, error) {
	b, err := c.SpanRegion(r, elem*4, n*4, a)
	if err != nil {
		return memlayout.F32{}, err
	}
	return memlayout.ViewF32(b), nil
}

// F64 returns a float64 view over n elements of region r starting at
// element index elem.
func (c *Ctx) F64(r memlayout.Region, elem, n int, a vm.Access) (memlayout.F64, error) {
	b, err := c.SpanRegion(r, elem*8, n*8, a)
	if err != nil {
		return memlayout.F64{}, err
	}
	return memlayout.ViewF64(b), nil
}

// I32 returns an int32 view over n elements of region r starting at
// element index elem.
func (c *Ctx) I32(r memlayout.Region, elem, n int, a vm.Access) (memlayout.I32, error) {
	b, err := c.SpanRegion(r, elem*4, n*4, a)
	if err != nil {
		return memlayout.I32{}, err
	}
	return memlayout.ViewI32(b), nil
}

// Charged returns the thread's accumulated virtual-time charges
// (compute, remote stall, local protocol overhead) in the current
// synchronization interval. The accumulator resets at every barrier, so
// between two synchronization points a pair of Charged calls brackets a
// code region's exact virtual cost — the serving workload derives
// per-request latency this way.
func (c *Ctx) Charged() sim.ThreadInterval { return c.t.cur }

// Wait charges d of idle virtual time to the thread without touching
// shared memory. Closed-loop load generators use it as client think
// time to pace toward a target request rate; like any stall it can be
// partially overlapped by other local threads when the scheduler is on.
func (c *Ctx) Wait(d sim.Time) {
	if d > 0 {
		c.t.cur.Stall += d
	}
}

// Barrier parks the thread until every live thread reaches a barrier.
func (c *Ctx) Barrier() {
	c.t.yield(event{kind: evBarrier})
}

// EndIteration is a barrier that additionally marks the end of an
// application iteration — the unit the paper tracks, times, and migrates
// between.
func (c *Ctx) EndIteration() {
	c.t.yield(event{kind: evIterEnd})
}

// Yield ends the thread's scheduler slice without parking it: the
// thread stays runnable and resumes on a later round, after co-resident
// threads have had a turn. Polling loops need it — an uncontended Lock
// never yields, so a poller sharing a node with the thread it waits on
// (possible after a crash migrates threads together) would otherwise
// spin out its retry budget without ever letting the writer run.
func (c *Ctx) Yield() {
	c.t.yield(event{kind: evYield})
}

// Lock acquires a global lock, applying the write notices it pulls from
// the lock's last releaser.
func (c *Ctx) Lock(lock int32) error {
	return c.engine.acquireLock(c.t, lock)
}

// Unlock releases a lock, closing this interval; the next acquirer pulls
// its write notices from this node.
func (c *Ctx) Unlock(lock int32) error {
	return c.engine.releaseLock(c.t, lock)
}
