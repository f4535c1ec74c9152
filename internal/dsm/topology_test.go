package dsm

// Tests for the heterogeneous-topology integration: directed link costs
// charged on the protocol call path, per-link traffic accounting in
// Stats, and the Config plumbing.

import (
	"testing"

	"actdsm/internal/sim"
)

// TestUniformTopologyMatchesNil pins the zero-configuration promise: a
// cluster with a uniform Topology charges exactly what one without any
// topology charges.
func TestUniformTopologyMatchesNil(t *testing.T) {
	run := func(topo *sim.Topology) sim.Time {
		c, err := New(Config{Nodes: 2, Pages: 4, Topology: topo})
		if err != nil {
			t.Fatal(err)
		}
		defer func() { _ = c.Close() }()
		wf32(t, c, 0, 0, 1024+5, 1.5) // page 1, managed by node 1: remote traffic
		costs, err := c.Barrier()
		if err != nil {
			t.Fatal(err)
		}
		var total sim.Time
		for _, ct := range costs {
			total += ct
		}
		return total
	}
	plain := run(nil)
	uniform := run(sim.NewTopology(2, sim.Costs{}))
	if plain != uniform {
		t.Fatalf("uniform topology charged %v, nil charged %v", uniform, plain)
	}
	if plain == 0 {
		t.Fatal("workload charged no network cost; test is vacuous")
	}
}

// TestSlowLinksRaiseCost pins the heterogeneous charging direction: the
// same workload over a topology whose links to/from node 1 are scaled
// up must charge strictly more virtual time than the uniform run.
func TestSlowLinksRaiseCost(t *testing.T) {
	run := func(topo *sim.Topology) sim.Time {
		c, err := New(Config{Nodes: 2, Pages: 4, Topology: topo})
		if err != nil {
			t.Fatal(err)
		}
		defer func() { _ = c.Close() }()
		wf32(t, c, 0, 0, 1024+5, 1.5)
		costs, err := c.Barrier()
		if err != nil {
			t.Fatal(err)
		}
		var total sim.Time
		for _, ct := range costs {
			total += ct
		}
		// Pull the page to node 0 so a demand fetch crosses the slow
		// link too.
		if got := rf32(t, c, 0, 0, 1024+5); got != 1.5 {
			t.Fatalf("read back %v", got)
		}
		return total
	}
	uniform := run(sim.NewTopology(2, sim.Costs{}))
	slow := run(sim.FastSlowTopology(2, sim.Costs{}, 2, 1, 8))
	if slow <= uniform {
		t.Fatalf("slow-link run charged %v, uniform charged %v; want strictly more", slow, uniform)
	}
}

// TestLinkStatsRecorded drives cross-node traffic and checks the
// per-directed-link accounting: traffic appears on the links the
// protocol actually used, bytes and calls are positive, and the
// never-used self links stay absent from the snapshot.
func TestLinkStatsRecorded(t *testing.T) {
	c := newTestCluster(t, 2, 4)
	wf32(t, c, 0, 0, 1024+5, 42.5) // page 1: write fault against manager node 1
	barrier(t, c)
	if got := rf32(t, c, 1, 8, 1024+5); got != 42.5 {
		t.Fatalf("read %v", got)
	}
	s := c.Stats().Snapshot()
	if len(s.Links) == 0 {
		t.Fatal("no per-link traffic recorded")
	}
	var fromTo [2][2]int64
	for _, l := range s.Links {
		if l.From == l.To {
			t.Fatalf("self link %d->%d recorded", l.From, l.To)
		}
		if l.Calls <= 0 || l.Bytes <= 0 {
			t.Fatalf("link %d->%d has calls=%d bytes=%d", l.From, l.To, l.Calls, l.Bytes)
		}
		fromTo[l.From][l.To] = l.Calls
	}
	if fromTo[0][1] == 0 {
		t.Fatal("0->1 traffic (write-notice/barrier against manager 1) missing")
	}
	// The live accessor and the snapshot must agree.
	if got := c.Stats().Link(0, 1).Calls.Load(); got != fromTo[0][1] {
		t.Fatalf("live Link(0,1).Calls = %d, snapshot = %d", got, fromTo[0][1])
	}
	if c.Stats().Link(-1, 5) != nil {
		t.Fatal("out-of-range Link lookup must return nil")
	}
	// Window diff: a fresh snapshot minus itself has no link rows.
	if d := s.Sub(s); len(d.Links) != 0 {
		t.Fatalf("self-diff kept %d link rows", len(d.Links))
	}
}

// TestLinkStatsFormat smoke-tests the table renderer.
func TestLinkStatsFormat(t *testing.T) {
	c := newTestCluster(t, 2, 4)
	wf32(t, c, 0, 0, 1024+5, 1.0)
	barrier(t, c)
	out := c.Stats().Snapshot().FormatLinks()
	if out == "(no per-link traffic recorded)\n" {
		t.Fatal("renderer saw no links")
	}
}

// TestTopologyAccessor pins Cluster.Topology passthrough.
func TestTopologyAccessor(t *testing.T) {
	topo := sim.RackTopology(4, sim.Costs{}, 2, 4, 2)
	c, err := New(Config{Nodes: 4, Pages: 4, Topology: topo})
	if err != nil {
		t.Fatal(err)
	}
	defer func() { _ = c.Close() }()
	if c.Topology() != topo {
		t.Fatal("Topology() did not return the configured topology")
	}
	// fetchCost must route through the topology's directed links.
	if got, want := c.fetchCost(0, 2, 10, 20), topo.FetchCost(0, 2, 10, 20); got != want {
		t.Fatalf("fetchCost = %v, want %v", got, want)
	}
}
