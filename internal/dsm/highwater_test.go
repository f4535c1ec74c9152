package dsm

import (
	"slices"
	"testing"
)

// TestLockGrantsIncremental pins the per-holder position of lock pulls: a
// node that pulls from the same holder repeatedly within one barrier epoch
// receives each of the holder's notices once, so protocol bytes stay
// proportional to new work rather than to the holder's accumulated epoch
// history.
func TestLockGrantsIncremental(t *testing.T) {
	c := newTestCluster(t, 3, 8)
	// Node 1 writes a different page under the same lock in each round;
	// node 2 acquires after every release and pulls from node 1. Without
	// the position, round k's pull would carry k notices; with it, 1.
	const lock = int32(3) // manager = node 0
	var grantBytes []int64
	for round := 0; round < 6; round++ {
		if _, err := c.AcquireLock(1, 8, lock); err != nil {
			t.Fatal(err)
		}
		wf32(t, c, 1, 8, round*1024, float32(round))
		if _, err := c.ReleaseLock(1, 8, lock); err != nil {
			t.Fatal(err)
		}
		before := c.Stats().Snapshot()
		if _, err := c.AcquireLock(2, 16, lock); err != nil {
			t.Fatal(err)
		}
		after := c.Stats().Snapshot()
		grantBytes = append(grantBytes, after.BytesTotal-before.BytesTotal)
		if _, err := c.ReleaseLock(2, 16, lock); err != nil {
			t.Fatal(err)
		}
	}
	// Grant cost must not grow with the round number.
	if grantBytes[5] > grantBytes[1]+16 {
		t.Fatalf("grant bytes grew with history: %v", grantBytes)
	}
	// And the data must still be fully consistent.
	if _, err := c.AcquireLock(2, 16, lock); err != nil {
		t.Fatal(err)
	}
	for round := 0; round < 6; round++ {
		if got := rf32(t, c, 2, 16, round*1024); got != float32(round) {
			t.Fatalf("round %d page = %v", round, got)
		}
	}
	if _, err := c.ReleaseLock(2, 16, lock); err != nil {
		t.Fatal(err)
	}
}

// TestLockGrantsResetAtBarrier checks the pull positions restart with the
// epoch, on both ends: the holder's known restarts at the barrier, so a
// position kept across it would start node 1's next pull past node 0's
// post-barrier notice.
func TestLockGrantsResetAtBarrier(t *testing.T) {
	c := newTestCluster(t, 2, 2)
	const lock = int32(4)
	for epoch := 0; epoch < 3; epoch++ {
		if _, err := c.AcquireLock(0, 0, lock); err != nil {
			t.Fatal(err)
		}
		wf32(t, c, 0, 0, 0, float32(epoch*10))
		if _, err := c.ReleaseLock(0, 0, lock); err != nil {
			t.Fatal(err)
		}
		if _, err := c.AcquireLock(1, 8, lock); err != nil {
			t.Fatal(err)
		}
		if got := rf32(t, c, 1, 8, 0); got != float32(epoch*10) {
			t.Fatalf("epoch %d: read %v", epoch, got)
		}
		wf32(t, c, 1, 8, 1, float32(epoch*10+1))
		if _, err := c.ReleaseLock(1, 8, lock); err != nil {
			t.Fatal(err)
		}
		n1 := c.nodes[1]
		n1.lockSync()
		pos := n1.pullPos[0]
		n1.mu.Unlock()
		if epoch > 0 && pos == 0 { // epoch 0 stores 0 over 0: no notice
			t.Fatalf("epoch %d: node 1 confirmed no position from node 0", epoch)
		}
		barrier(t, c)
		if err := c.CheckCoherence(); err != nil {
			t.Fatalf("epoch %d: %v", epoch, err)
		}
		for _, n := range c.nodes {
			n.lockSync()
			if slices.ContainsFunc(n.pullPos, func(p int32) bool { return p != 0 }) || len(n.lockMark) != 0 {
				t.Fatalf("epoch %d: node %d keeps positions %v and marks %v across the barrier", epoch, n.id, n.pullPos, n.lockMark)
			}
			n.mu.Unlock()
		}
	}
}
