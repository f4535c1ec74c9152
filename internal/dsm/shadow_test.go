package dsm

import (
	"sync/atomic"
	"testing"
	"testing/quick"

	"actdsm/internal/memlayout"
	"actdsm/internal/sim"
	"actdsm/internal/transport"
	"actdsm/internal/vm"
)

// TestShadowModel drives the cluster with random barrier-separated write
// patterns and checks every read against a plain shadow array: the DSM
// must behave exactly like ordinary shared memory for data-race-free
// programs. Writers in the same interval touch disjoint words (as a
// correct program would), different intervals may overwrite anything.
func TestShadowModel(t *testing.T) {
	check := func(seed uint64, nodesSel, pagesSel uint8) bool {
		nodes := 2 + int(nodesSel%4)  // 2..5
		npages := 2 + int(pagesSel%6) // 2..7
		rng := sim.NewRNG(seed)
		c, err := New(Config{Nodes: nodes, Pages: npages, GCThresholdBytes: 1 << int(rng.Intn(14))})
		if err != nil {
			t.Fatal(err)
		}
		defer func() { _ = c.Close() }()

		shadow := make([]float32, npages*memlayout.PageSize/4)
		words := len(shadow)
		for round := 0; round < 12; round++ {
			// Each node writes a random set of words this interval;
			// word w is assigned to node (w % nodes) to guarantee
			// disjointness.
			for node := 0; node < nodes; node++ {
				nWrites := rng.Intn(20)
				for k := 0; k < nWrites; k++ {
					w := rng.Intn(words)
					w -= w % nodes // base
					w += node      // node's own lane
					if w >= words {
						continue
					}
					val := float32(rng.Intn(1000)) - 500
					b, _, err := c.Span(node, node, w*4, 4, vm.Write)
					if err != nil {
						t.Fatal(err)
					}
					memlayout.ViewF32(b).Set(0, val)
					shadow[w] = val
				}
			}
			if _, err := c.Barrier(); err != nil {
				t.Fatal(err)
			}
			// Random reads from random nodes must see the shadow.
			for k := 0; k < 15; k++ {
				node := rng.Intn(nodes)
				w := rng.Intn(words)
				b, _, err := c.Span(node, node, w*4, 4, vm.Read)
				if err != nil {
					t.Fatal(err)
				}
				if got := memlayout.ViewF32(b).Get(0); got != shadow[w] {
					t.Logf("seed %d round %d: node %d word %d = %v, want %v",
						seed, round, node, w, got, shadow[w])
					return false
				}
			}
			if err := c.CheckCoherence(); err != nil {
				t.Logf("seed %d round %d: %v", seed, round, err)
				return false
			}
		}
		return true
	}
	if err := quick.Check(check, &quick.Config{MaxCount: 25}); err != nil {
		t.Fatal(err)
	}
}

// TestShadowModelWithLocks mixes lock-protected read-modify-writes into
// the shadow comparison: each lock guards a disjoint word range, so the
// shadow stays exact.
func TestShadowModelWithLocks(t *testing.T) {
	check := func(seed uint64) bool {
		const nodes, npages, nlocks = 3, 3, 4
		rng := sim.NewRNG(seed)
		c, err := New(Config{Nodes: nodes, Pages: npages})
		if err != nil {
			t.Fatal(err)
		}
		defer func() { _ = c.Close() }()
		shadow := make([]float32, npages*memlayout.PageSize/4)
		words := len(shadow)
		perLock := words / nlocks
		for round := 0; round < 10; round++ {
			for step := 0; step < 8; step++ {
				node := rng.Intn(nodes)
				lock := int32(rng.Intn(nlocks))
				if _, err := c.AcquireLock(node, node, lock); err != nil {
					t.Fatal(err)
				}
				// RMW a word in the lock's range.
				w := int(lock)*perLock + rng.Intn(perLock)
				b, _, err := c.Span(node, node, w*4, 4, vm.Write)
				if err != nil {
					t.Fatal(err)
				}
				v := memlayout.ViewF32(b)
				if v.Get(0) != shadow[w] {
					t.Logf("seed %d: RMW read %v, want %v", seed, v.Get(0), shadow[w])
					return false
				}
				v.Set(0, v.Get(0)+1)
				shadow[w]++
				if _, err := c.ReleaseLock(node, node, lock); err != nil {
					t.Fatal(err)
				}
			}
			if _, err := c.Barrier(); err != nil {
				t.Fatal(err)
			}
			for w := 0; w < words; w += 97 {
				node := rng.Intn(nodes)
				b, _, err := c.Span(node, node, w*4, 4, vm.Read)
				if err != nil {
					t.Fatal(err)
				}
				if got := memlayout.ViewF32(b).Get(0); got != shadow[w] {
					t.Logf("seed %d: word %d = %v, want %v", seed, w, got, shadow[w])
					return false
				}
			}
		}
		return true
	}
	if err := quick.Check(check, &quick.Config{MaxCount: 20}); err != nil {
		t.Fatal(err)
	}
}

// TestTransportFailurePropagates injects transport failures and checks
// they surface as errors rather than corruption or hangs.
func TestTransportFailurePropagates(t *testing.T) {
	var fail atomic.Bool
	c, err := New(Config{Nodes: 2, Pages: 2, Chaos: &transport.ChaosOptions{
		Plan: func(sim.CallKey, []byte) transport.Fault {
			if fail.Load() {
				return transport.FaultDropRequest
			}
			return transport.FaultNone
		},
	}})
	if err != nil {
		t.Fatal(err)
	}
	defer func() { _ = c.Close() }()

	wf32(t, c, 0, 0, 1024, 5) // warm up normally
	fail.Store(true)
	if _, _, err := c.Span(1, 8, 0, 4, vm.Read); err == nil {
		t.Fatal("expected error with failing transport")
	}
	if _, err := c.Barrier(); err == nil {
		t.Fatal("expected barrier error with failing transport")
	}
	// Recovery: once the transport heals, the cluster still works.
	fail.Store(false)
	if _, err := c.Barrier(); err != nil {
		t.Fatal(err)
	}
	if got := rf32(t, c, 1, 8, 1024); got != 5 {
		t.Fatalf("after recovery read %v, want 5", got)
	}
}

// TestGCDiffFallback forces the fallback path where a requester holds
// pending notices whose diffs were garbage-collected: it must fall back to
// a full page fetch and still see correct data.
func TestGCDiffFallback(t *testing.T) {
	c, err := New(Config{Nodes: 3, Pages: 1, GCThresholdBytes: 1})
	if err != nil {
		t.Fatal(err)
	}
	defer func() { _ = c.Close() }()
	// Node 1 writes page 0; node 2 never touches it. Barrier triggers GC
	// (threshold 1): the manager (node 0) consolidates, everyone drops
	// diffs, non-managers invalidate.
	wf32(t, c, 1, 8, 3, 7)
	barrier(t, c)
	if c.Stats().Snapshot().GCRounds == 0 {
		t.Fatal("GC did not trigger")
	}
	// Node 2's first read must full-fetch from the manager.
	if got := rf32(t, c, 2, 16, 3); got != 7 {
		t.Fatalf("node 2 read %v, want 7", got)
	}
	if got := rf32(t, c, 1, 8, 3); got != 7 {
		t.Fatalf("node 1 reread %v, want 7", got)
	}
}

// TestDeterminismAcrossTransports verifies the Local and TCP transports
// produce identical protocol statistics for the same operation sequence.
func TestDeterminismAcrossTransports(t *testing.T) {
	run := func(useTCP bool) Snapshot {
		c, err := New(Config{Nodes: 3, Pages: 4, UseTCP: useTCP})
		if err != nil {
			t.Fatal(err)
		}
		defer func() { _ = c.Close() }()
		for round := 0; round < 4; round++ {
			for node := 0; node < 3; node++ {
				wf32(t, c, node, node, node*1024+round, float32(round))
			}
			if _, err := c.Barrier(); err != nil {
				t.Fatal(err)
			}
			_ = rf32(t, c, (round+1)%3, 0, 0)
		}
		return c.Stats().Snapshot()
	}
	local, tcp := run(false), run(true)
	if local.Counters() != tcp.Counters() {
		t.Fatalf("stats differ between transports:\nlocal: %+v\ntcp:   %+v", local, tcp)
	}
}
