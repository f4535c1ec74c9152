package dsm

import (
	"cmp"
	"fmt"
	"hash/fnv"
	"math"
	"slices"
	"sync"
	"sync/atomic"
	"testing"
	"time"

	"actdsm/internal/memlayout"
	"actdsm/internal/msg"
	"actdsm/internal/sim"
	"actdsm/internal/transport"
)

// Tests for the one barrier over (view, arity): the commit-after-success
// rule for the write history, and the equivalence of every arity and
// fault-tolerance variant on one input.

// TestWriteHistoryCommittedOnce is the regression for the write history
// being committed before delivery: a failed release phase leaves every
// node's fresh notices in place, the application calls Barrier again, and
// the re-sent notices must be counted once — the failed episode commits
// nothing.
func TestWriteHistoryCommittedOnce(t *testing.T) {
	const nodes, npages = 3, 3
	var dropped atomic.Bool
	c, err := New(Config{
		Nodes:            nodes,
		Pages:            npages,
		GCThresholdBytes: -1,
		Chaos: &transport.ChaosOptions{
			Plan: func(key sim.CallKey, payload []byte) transport.Fault {
				// The first release to node 1: the release phase fails.
				if msg.Kind(key.Kind) == msg.KindBarrierRelease && key.To == 1 && key.N == 0 {
					dropped.Store(true)
					return transport.FaultDropRequest
				}
				return transport.FaultNone
			},
		},
	})
	if err != nil {
		t.Fatal(err)
	}
	defer func() { _ = c.Close() }()

	const wordsPerPage = memlayout.PageSize / 4
	wf32(t, c, 1, 1, 0*wordsPerPage+1, 11) // node 1 writes page 0
	wf32(t, c, 2, 2, 1*wordsPerPage+2, 22) // node 2 writes page 1
	if _, err := c.Barrier(); err == nil {
		t.Fatal("release phase did not fail; test proves nothing")
	}
	if !dropped.Load() {
		t.Fatal("planned fault never fired")
	}
	for p, row := range c.WriteHistory() {
		for w, got := range row {
			if got != 0 {
				t.Fatalf("failed episode committed history: page %d writer %d = %d", p, w, got)
			}
		}
	}
	barrier(t, c)

	want := map[[2]int]int64{{0, 1}: 1, {1, 2}: 1}
	for p, row := range c.WriteHistory() {
		for w, got := range row {
			if got != want[[2]int{p, w}] {
				t.Fatalf("write history page %d writer %d = %d, want %d", p, w, got, want[[2]int{p, w}])
			}
		}
	}
	if got := rf32(t, c, 0, 0, 1); got != 11 {
		t.Fatalf("node 0 reads %v from page 0, want 11", got)
	}
	if got := rf32(t, c, 0, 0, wordsPerPage+2); got != 22 {
		t.Fatalf("node 0 reads %v from page 1, want 22", got)
	}
}

// wireCall is one transport call as the variant test compares it.
type wireCall struct {
	from, to int
	kind     msg.Kind
	bytes    int
}

// variantRun is everything one barrier variant produced on the shared
// workload.
type variantRun struct {
	digest   uint64
	homes    []int
	counters Counters
	calls    []wireCall // by edge, each edge's calls in its own order
	costs    [][]sim.Time
}

// variantCell is one cell of the configuration matrix the variant test
// crosses with the barrier arities: the data path's knobs and fault
// tolerance.
type variantCell struct {
	batch    bool
	prefetch int
	ft       bool
}

func (v variantCell) String() string {
	return fmt.Sprintf("batch=%v/prefetch=%d/ft=%v", v.batch, v.prefetch, v.ft)
}

// runBarrierVariant drives one seeded multi-epoch workload — per-node
// lane writes, a forwarded lock chain incrementing shared counters, a
// queued home move every epoch and diff garbage collection — under the
// given barrier variant.
func runBarrierVariant(t *testing.T, nodes, arity int, cell variantCell) variantRun {
	t.Helper()
	const npages, epochs = 5, 6 // the last page holds the lock-protected counters
	cfg := Config{
		Nodes:            nodes,
		Pages:            npages,
		BarrierArity:     arity,
		LockForwarding:   true,
		GCThresholdBytes: 1500,
		BatchDiffs:       cell.batch,
		PrefetchBudget:   cell.prefetch,
		FaultTolerance:   cell.ft,
	}
	if cell.ft {
		cfg.Chaos = &transport.ChaosOptions{} // empty crash schedule
	}
	c, err := New(cfg)
	if err != nil {
		t.Fatal(err)
	}
	defer func() { _ = c.Close() }()

	var out variantRun
	var mu sync.Mutex
	c.SetProbe(&Probe{TransportCall: func(from, to int, kind msg.Kind, bytes int, _ time.Duration, _ bool) {
		mu.Lock()
		out.calls = append(out.calls, wireCall{from, to, kind, bytes})
		mu.Unlock()
	}})

	const wordsPerPage = memlayout.PageSize / 4
	laneWords := (npages - 1) * wordsPerPage
	counter := func(lock int) int { return (npages-1)*wordsPerPage + lock }
	rng := sim.NewRNG(7)
	for epoch := 0; epoch < epochs; epoch++ {
		for node := 0; node < nodes; node++ {
			for k := 0; k < 40; k++ {
				w := rng.Intn(laneWords/nodes)*nodes + node // disjoint per-node lanes
				wf32(t, c, node, node, w, float32(epoch*1000+node*100+k))
			}
		}
		lock := epoch % 3
		for node := 0; node < nodes; node++ {
			if _, err := c.AcquireLock(node, node, int32(lock)); err != nil {
				t.Fatal(err)
			}
			wf32(t, c, node, node, counter(lock), rf32(t, c, node, node, counter(lock))+1)
			if _, err := c.ReleaseLock(node, node, int32(lock)); err != nil {
				t.Fatal(err)
			}
		}
		// Every node wrote this epoch, so every target holds a copy.
		if err := c.QueueHomeMoves(map[int]int{epoch % npages: (epoch + 1) % nodes}); err != nil {
			t.Fatal(err)
		}
		costs, err := c.Barrier()
		if err != nil {
			t.Fatal(err)
		}
		out.costs = append(out.costs, costs)
		// The pull round that follows every release (nothing without a
		// prefetch budget).
		if costs, err = c.PrefetchRound(); err != nil {
			t.Fatal(err)
		}
		out.costs = append(out.costs, costs)
	}
	for lock := 0; lock < 3; lock++ {
		if got, want := rf32(t, c, 0, 0, counter(lock)), float32(epochs/3*nodes); got != want {
			t.Fatalf("counter %d = %v, want %v", lock, got, want)
		}
	}

	// Barrier-side evidence is complete; detach before the digest reads
	// add their own demand traffic. Fan-out legs interleave, so calls are
	// compared edge by edge.
	c.SetProbe(nil)
	slices.SortStableFunc(out.calls, func(a, b wireCall) int {
		return cmp.Or(cmp.Compare(a.from, b.from), cmp.Compare(a.to, b.to))
	})
	out.counters = c.Stats().Snapshot().Counters()
	out.homes = c.Homes()
	for node := 0; node < nodes; node++ {
		h := fnv.New64a()
		for w := 0; w < npages*wordsPerPage; w++ {
			bits := math.Float32bits(rf32(t, c, node, node, w))
			h.Write([]byte{byte(bits), byte(bits >> 8), byte(bits >> 16), byte(bits >> 24)})
		}
		if node == 0 {
			out.digest = h.Sum64()
		} else if h.Sum64() != out.digest {
			t.Fatalf("node %d memory digest %x differs from node 0's %x", node, h.Sum64(), out.digest)
		}
	}
	if err := c.CheckCoherence(); err != nil {
		t.Fatal(err)
	}
	return out
}

// TestBarrierVariantsEquivalent runs one input through every barrier
// variant — arity {0, 2, 3, n-1} — in every cell of {diff batching off,
// on} x {prefetch off, unlimited} x {fault tolerance off, on with nothing
// crashing}, and requires identical output: the same final memory and
// home table in all of them (the knobs move data earlier, in fewer
// messages, or to a second place; none may change what memory holds), the
// same barrier and GC counters across the arities of a cell, and, because
// the flat barrier IS the tree of arity n-1, a bit-identical wire image on
// every edge and virtual clock for BarrierArity 0 and n-1.
func TestBarrierVariantsEquivalent(t *testing.T) {
	const nodes = 6
	var ref *variantRun
	for _, batch := range []bool{false, true} {
		for _, prefetch := range []int{0, -1} {
			for _, ft := range []bool{false, true} {
				cell := variantCell{batch, prefetch, ft}
				runs := make(map[int]variantRun)
				for _, arity := range []int{0, 2, 3, nodes - 1} {
					name := fmt.Sprintf("arity=%d/%v", arity, cell)
					r := runBarrierVariant(t, nodes, arity, cell)
					runs[arity] = r
					if r.counters.GCRounds == 0 || r.counters.PlacementHomeMoves == 0 || r.counters.LockForwards == 0 ||
						(batch && r.counters.DiffBatchFetches == 0) || (prefetch != 0 && r.counters.PrefetchedPages == 0) {
						t.Fatalf("%s: %d GC rounds, %d home moves, %d lock forwards, %d batched fetches, %d prefetched pages; test proves nothing",
							name, r.counters.GCRounds, r.counters.PlacementHomeMoves, r.counters.LockForwards, r.counters.DiffBatchFetches, r.counters.PrefetchedPages)
					}
					if ref == nil {
						ref = &r
					}
					if r.digest != ref.digest {
						t.Fatalf("%s: memory digest %x, want %x", name, r.digest, ref.digest)
					}
					if fmt.Sprint(r.homes) != fmt.Sprint(ref.homes) {
						t.Fatalf("%s: homes %v, want %v", name, r.homes, ref.homes)
					}
					// Across cells the GC trigger may legitimately move;
					// across arities it may not.
					flat := runs[0].counters
					if r.counters.Barriers != flat.Barriers || r.counters.GCRounds != flat.GCRounds ||
						r.counters.GCCollections != flat.GCCollections {
						t.Fatalf("%s: barriers/GC rounds/collections %d/%d/%d, flat has %d/%d/%d", name,
							r.counters.Barriers, r.counters.GCRounds, r.counters.GCCollections,
							flat.Barriers, flat.GCRounds, flat.GCCollections)
					}
				}
				flat, wide := runs[0], runs[nodes-1]
				if len(flat.calls) != len(wide.calls) {
					t.Fatalf("%v: arity 0 made %d calls, arity n-1 made %d", cell, len(flat.calls), len(wide.calls))
				}
				for i := range flat.calls {
					if flat.calls[i] != wide.calls[i] {
						t.Fatalf("%v: edge call %d differs: arity 0 %+v, arity n-1 %+v", cell, i, flat.calls[i], wide.calls[i])
					}
				}
				if fmt.Sprint(flat.costs) != fmt.Sprint(wide.costs) {
					t.Fatalf("%v: per-node barrier costs differ:\narity 0:   %v\narity n-1: %v", cell, flat.costs, wide.costs)
				}
			}
		}
	}
}
