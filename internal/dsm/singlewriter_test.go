package dsm

import (
	"testing"
	"testing/quick"

	"actdsm/internal/memlayout"
	"actdsm/internal/sim"
	"actdsm/internal/vm"
)

func newSWCluster(t *testing.T, nodes, pages int) *Cluster {
	t.Helper()
	c, err := New(Config{Nodes: nodes, Pages: pages, Protocol: SingleWriter})
	if err != nil {
		t.Fatal(err)
	}
	t.Cleanup(func() { _ = c.Close() })
	return c
}

func TestSWWriteReadAcrossNodes(t *testing.T) {
	c := newSWCluster(t, 3, 3)
	// Node 0 writes page 1 (manager node 1): ownership moves to node 0.
	wf32(t, c, 0, 0, 1024, 4.5)
	// Node 2 reads immediately — no barrier needed under single-writer
	// (coherence is immediate).
	if got := rf32(t, c, 2, 16, 1024); got != 4.5 {
		t.Fatalf("node 2 read %v, want 4.5", got)
	}
	// The manager itself reads too.
	if got := rf32(t, c, 1, 8, 1024); got != 4.5 {
		t.Fatalf("manager read %v, want 4.5", got)
	}
}

func TestSWOwnershipSteal(t *testing.T) {
	c := newSWCluster(t, 3, 1)
	wf32(t, c, 1, 8, 0, 1)
	wf32(t, c, 2, 16, 0, 2)
	wf32(t, c, 1, 8, 1, 3) // steal back; word 0 must survive
	if got := rf32(t, c, 0, 0, 0); got != 2 {
		t.Fatalf("word 0 = %v, want 2", got)
	}
	if got := rf32(t, c, 0, 0, 1); got != 3 {
		t.Fatalf("word 1 = %v, want 3", got)
	}
}

func TestSWReaderInvalidatedByWriter(t *testing.T) {
	c := newSWCluster(t, 3, 1)
	wf32(t, c, 1, 8, 0, 10)
	_ = rf32(t, c, 2, 16, 0) // node 2 takes a read replica
	if c.nodes[2].as.Prot(0) != vm.ProtRead {
		t.Fatalf("node 2 prot = %v", c.nodes[2].as.Prot(0))
	}
	wf32(t, c, 1, 8, 0, 11) // writer upgrades; replica must die
	if c.nodes[2].as.Prot(0) != vm.ProtNone {
		t.Fatalf("node 2 prot after invalidate = %v", c.nodes[2].as.Prot(0))
	}
	if got := rf32(t, c, 2, 16, 0); got != 11 {
		t.Fatalf("node 2 reread %v, want 11", got)
	}
}

func TestSWOwnerDowngradeThenUpgrade(t *testing.T) {
	c := newSWCluster(t, 2, 1)
	wf32(t, c, 1, 8, 0, 5)  // node 1 owns (manager is node 0)
	_ = rf32(t, c, 0, 0, 0) // manager reads; owner downgrades
	if c.nodes[1].as.Prot(0) != vm.ProtRead {
		t.Fatalf("owner prot after downgrade = %v", c.nodes[1].as.Prot(0))
	}
	wf32(t, c, 1, 8, 0, 6) // owner upgrades back; manager replica dies
	if c.nodes[0].as.Prot(0) != vm.ProtNone {
		t.Fatalf("manager prot after upgrade = %v", c.nodes[0].as.Prot(0))
	}
	if got := rf32(t, c, 0, 0, 0); got != 6 {
		t.Fatalf("manager reread %v, want 6", got)
	}
}

func TestSWFalseSharingPingPong(t *testing.T) {
	// Two nodes write DISJOINT words of one page repeatedly: under
	// multi-writer this costs one fault each per barrier interval; under
	// single-writer the page ping-pongs on every alternation — the false
	// sharing the paper's §6 discusses.
	run := func(proto Protocol) int64 {
		c, err := New(Config{Nodes: 2, Pages: 1, Protocol: proto})
		if err != nil {
			t.Fatal(err)
		}
		defer func() { _ = c.Close() }()
		for round := 0; round < 10; round++ {
			wf32(t, c, 0, 0, 0, float32(round))
			wf32(t, c, 1, 8, 100, float32(round))
			wf32(t, c, 0, 0, 1, float32(round))
			wf32(t, c, 1, 8, 101, float32(round))
			if _, err := c.Barrier(); err != nil {
				t.Fatal(err)
			}
		}
		return c.Stats().Snapshot().RemoteMisses
	}
	mw, sw := run(MultiWriter), run(SingleWriter)
	if sw < 2*mw {
		t.Fatalf("single-writer misses %d not ≫ multi-writer %d (false sharing hidden?)", sw, mw)
	}
}

func TestSWShadowModel(t *testing.T) {
	// The single-writer protocol must also behave like ordinary memory —
	// even for same-page writes, which it serializes via ownership.
	check := func(seed uint64) bool {
		const nodes, npages = 3, 2
		rng := sim.NewRNG(seed)
		c, err := New(Config{Nodes: nodes, Pages: npages, Protocol: SingleWriter})
		if err != nil {
			t.Fatal(err)
		}
		defer func() { _ = c.Close() }()
		words := npages * memlayout.PageSize / 4
		shadow := make([]float32, words)
		for step := 0; step < 120; step++ {
			node := rng.Intn(nodes)
			w := rng.Intn(words)
			if rng.Intn(2) == 0 {
				val := float32(rng.Intn(100))
				b, _, err := c.Span(node, node, w*4, 4, vm.Write)
				if err != nil {
					t.Fatal(err)
				}
				memlayout.ViewF32(b).Set(0, val)
				shadow[w] = val
			} else {
				b, _, err := c.Span(node, node, w*4, 4, vm.Read)
				if err != nil {
					t.Fatal(err)
				}
				if got := memlayout.ViewF32(b).Get(0); got != shadow[w] {
					t.Logf("seed %d step %d: node %d word %d = %v, want %v",
						seed, step, node, w, got, shadow[w])
					return false
				}
			}
			if step%40 == 39 {
				if _, err := c.Barrier(); err != nil {
					t.Fatal(err)
				}
			}
		}
		return true
	}
	if err := quick.Check(check, &quick.Config{MaxCount: 20}); err != nil {
		t.Fatal(err)
	}
}

func TestSWOverTCP(t *testing.T) {
	c, err := New(Config{Nodes: 2, Pages: 2, Protocol: SingleWriter, UseTCP: true})
	if err != nil {
		t.Fatal(err)
	}
	defer func() { _ = c.Close() }()
	wf32(t, c, 1, 8, 1024, 9)
	if got := rf32(t, c, 0, 0, 1024); got != 9 {
		t.Fatalf("read %v over TCP", got)
	}
}

func TestSWNoDiffMachinery(t *testing.T) {
	c := newSWCluster(t, 2, 1)
	wf32(t, c, 1, 8, 0, 1)
	barrier(t, c)
	s := c.Stats().Snapshot()
	if s.DiffsCreated != 0 || s.TwinsCreated != 0 || s.BytesDiff != 0 {
		t.Fatalf("single-writer used diff machinery: %+v", s)
	}
	if s.PageFetches == 0 {
		t.Fatal("no page transfers recorded")
	}
}

func TestSWTrackingWorks(t *testing.T) {
	// Active correlation tracking is protocol-independent.
	c := newSWCluster(t, 2, 2)
	var seen []vm.PageID
	c.BeginTracking(0, func(tid int, p vm.PageID) { seen = append(seen, p) })
	_ = rf32(t, c, 0, 0, 0)
	_ = rf32(t, c, 0, 0, 1024)
	c.EndTracking(0)
	if len(seen) != 2 {
		t.Fatalf("tracked = %v", seen)
	}
}
