package dsm_test

import (
	"encoding/binary"
	"testing"
	"time"

	"actdsm/internal/check"
	"actdsm/internal/dsm"
	"actdsm/internal/memlayout"
	"actdsm/internal/transport"
	"actdsm/internal/vm"
)

// TestFailoverRestartedHolderPull pins the pull position against a holder
// that crashed and rejoined mid-epoch. Node 3 pulls three of node 1's
// notices, so it holds position 3 at node 1. Node 1 is then killed and
// restarted before any barrier: it rejoins with an empty history, takes
// the lock back, writes a page node 3 holds a valid copy of and releases,
// so its release marks a history of one notice. Node 3's next pull must
// deliver that notice although its old position lies past the mark: the
// restart changed the membership view, which voids every position
// confirmed before it. A position merely clamped to the mark would ship
// nothing, and node 3 would read its stale copy — which the oracle, on
// throughout, reports as a lost update.
func TestFailoverRestartedHolderPull(t *testing.T) {
	const nodes, holder, acquirer = 4, 1, 3
	const lock = 2 // managed by node 2, which neither crashes nor pulls
	const page1 = memlayout.PageSize
	c, err := dsm.New(dsm.Config{
		Nodes: nodes, Pages: 2,
		FaultTolerance:   true,
		GCThresholdBytes: -1,
		Transport:        transport.Options{MaxAttempts: 4, BackoffBase: time.Microsecond},
		Chaos:            &transport.ChaosOptions{},
	})
	if err != nil {
		t.Fatal(err)
	}
	defer func() { _ = c.Close() }()
	oracle := check.NewOracle(nodes)
	oracle.Attach(c)

	span := func(node, off int, a vm.Access) []byte {
		t.Helper()
		b, _, err := c.Span(node, node, off, 4, a)
		if err != nil {
			t.Fatal(err)
		}
		return b
	}
	read := func(node, off int) uint32 { return binary.LittleEndian.Uint32(span(node, off, vm.Read)) }
	write := func(node, off int, v uint32) { binary.LittleEndian.PutUint32(span(node, off, vm.Write), v) }
	acquire := func(node int) {
		t.Helper()
		if _, err := c.AcquireLock(node, node, lock); err != nil {
			t.Fatal(err)
		}
	}
	release := func(node int) {
		t.Helper()
		if _, err := c.ReleaseLock(node, node, lock); err != nil {
			t.Fatal(err)
		}
	}

	if got := read(acquirer, page1); got != 0 { // a valid copy only a notice invalidates
		t.Fatalf("initial read = %d, want 0", got)
	}
	for i := range 3 {
		acquire(holder)
		write(holder, 4*i, uint32(10+i))
		release(holder)
	}
	acquire(acquirer) // pulls node 1's three notices
	for i := range 3 {
		if got := read(acquirer, 4*i); got != uint32(10+i) {
			t.Fatalf("word %d = %d before the crash, want %d", i, got, 10+i)
		}
	}
	release(acquirer)

	if err := c.Kill(holder); err != nil {
		t.Fatal(err)
	}
	if err := c.Restart(holder); err != nil {
		t.Fatal(err)
	}
	acquire(holder) // pulls from node 3
	write(holder, page1, 42)
	release(holder)
	acquire(acquirer) // pulls from the restarted node 1
	if got := read(acquirer, page1); got != 42 {
		t.Fatalf("node %d reads %d after pulling from the restarted holder, want 42", acquirer, got)
	}
	release(acquirer)

	if _, err := c.Barrier(); err != nil {
		t.Fatal(err)
	}
	if err := c.CheckCoherence(); err != nil {
		t.Fatal(err)
	}
	if err := oracle.Finish(c.Stats().Snapshot()); err != nil {
		t.Fatal(err)
	}
	if snap := c.Stats().Snapshot(); snap.Rejoins != 1 || snap.LockForwards != 3 {
		t.Fatalf("rejoins %d, pulls %d: want 1 and 3", snap.Rejoins, snap.LockForwards)
	}
}
