package dsm

import (
	"sync/atomic"
	"testing"
	"time"

	"actdsm/internal/memlayout"
	"actdsm/internal/msg"
	"actdsm/internal/sim"
	"actdsm/internal/transport"
	"actdsm/internal/vm"
)

// prefetchWorkload drives an all-to-all producer/consumer pattern with a
// prefetch round after every barrier — the cluster-level equivalent of
// what the thread engine does at barrier release. Every node writes its
// own word lane of every page, the barrier distributes notices, prefetch
// runs, and every node reads every lane; all values are checked against a
// shadow array. Round 0 runs on cold caches and seeds each node's fault
// window, so rounds >= 1 exercise the fault-window fallback predictor.
func prefetchWorkload(t *testing.T, c *Cluster, nodes, npages, rounds int) {
	t.Helper()
	wordsPerPage := memlayout.PageSize / 4
	shadow := make([]float32, npages*wordsPerPage)
	for round := 0; round < rounds; round++ {
		for node := 0; node < nodes; node++ {
			for p := 0; p < npages; p++ {
				w := p*wordsPerPage + node
				val := float32(round*1000 + node*100 + p)
				wf32(t, c, node, node, w, val)
				shadow[w] = val
			}
		}
		barrier(t, c)
		if _, err := c.PrefetchRound(); err != nil {
			t.Fatal(err)
		}
		for node := 0; node < nodes; node++ {
			for p := 0; p < npages; p++ {
				for other := 0; other < nodes; other++ {
					w := p*wordsPerPage + other
					if got := rf32(t, c, node, node, w); got != shadow[w] {
						t.Fatalf("round %d node %d word %d = %v, want %v",
							round, node, w, got, shadow[w])
					}
				}
			}
		}
	}
	if err := c.CheckCoherence(); err != nil {
		t.Fatal(err)
	}
}

// TestPrefetchFaultWindowEndToEnd is the basic liveness test: with an
// unlimited budget and no installed predictor, the fault-window fallback
// must start prefetching from round 1 on, every prefetched page must be
// consumed (hit) by the immediately following access phase, and the
// accounting must balance: hits + wasted never exceed prefetched pages.
func TestPrefetchFaultWindowEndToEnd(t *testing.T) {
	const nodes, npages, rounds = 3, 4, 4
	c, err := New(Config{Nodes: nodes, Pages: npages, PrefetchBudget: -1})
	if err != nil {
		t.Fatal(err)
	}
	defer func() { _ = c.Close() }()
	prefetchWorkload(t, c, nodes, npages, rounds)

	s := c.Stats().Snapshot()
	if s.PrefetchRounds != rounds {
		t.Fatalf("PrefetchRounds = %d, want %d", s.PrefetchRounds, rounds)
	}
	if s.PrefetchedPages == 0 {
		t.Fatal("no pages prefetched; fault-window fallback never engaged")
	}
	if s.PrefetchHits == 0 {
		t.Fatal("no prefetch hits despite every prefetched page being read")
	}
	if s.PrefetchHits+s.PrefetchWasted > s.PrefetchedPages {
		t.Fatalf("accounting leak: hits %d + wasted %d > prefetched %d",
			s.PrefetchHits, s.PrefetchWasted, s.PrefetchedPages)
	}
	if s.DiffBatchFetches == 0 || s.BatchedDiffs == 0 {
		t.Fatalf("prefetch moved no batched diffs: fetches %d, diffs %d",
			s.DiffBatchFetches, s.BatchedDiffs)
	}
	var hist int64
	for _, n := range s.BatchSizeHist {
		hist += n
	}
	if hist != s.DiffBatchFetches {
		t.Fatalf("batch-size histogram total %d != DiffBatchFetches %d", hist, s.DiffBatchFetches)
	}
}

// TestPrefetchReducesDemandCalls is the cluster-level version of the
// acceptance criterion: on the same workload, prefetch + batching must
// strictly reduce demand round trips (PageRequest + DiffRequest +
// DiffBatchRequest on the demand path is replaced by fewer, larger
// prefetch batches) while leaving every synchronization counter and the
// verified page contents identical.
func TestPrefetchReducesDemandCalls(t *testing.T) {
	const nodes, npages, rounds = 4, 6, 5
	run := func(budget int) Snapshot {
		c, err := New(Config{Nodes: nodes, Pages: npages, PrefetchBudget: budget})
		if err != nil {
			t.Fatal(err)
		}
		defer func() { _ = c.Close() }()
		prefetchWorkload(t, c, nodes, npages, rounds)
		return c.Stats().Snapshot()
	}

	demand := run(0)
	pref := run(-1)

	if got, want := pref.Barriers, demand.Barriers; got != want {
		t.Fatalf("Barriers diverge: %d vs %d", got, want)
	}
	if got, want := pref.LockAcquires, demand.LockAcquires; got != want {
		t.Fatalf("LockAcquires diverge: %d vs %d", got, want)
	}
	if got, want := pref.DiffsCreated, demand.DiffsCreated; got != want {
		t.Fatalf("DiffsCreated diverge: %d vs %d", got, want)
	}
	// Demand misses are what prefetch absorbs.
	if pref.RemoteMisses >= demand.RemoteMisses {
		t.Fatalf("RemoteMisses %d with prefetch, %d without — no reduction",
			pref.RemoteMisses, demand.RemoteMisses)
	}
	before, after := demand.DemandCalls(), pref.DemandCalls()
	if after >= before {
		t.Fatalf("demand calls %d with prefetch, %d without — no reduction", after, before)
	}
}

// TestPrefetchBudgetLateAccounting caps the budget below the prediction
// size: the pages the predictor wanted but the budget excluded must be
// charged to PrefetchLate when they subsequently miss on demand, and the
// number of pages prefetched per node per round must respect the cap.
func TestPrefetchBudgetLateAccounting(t *testing.T) {
	const nodes, npages, rounds, budget = 2, 6, 4, 2
	c, err := New(Config{Nodes: nodes, Pages: npages, PrefetchBudget: budget})
	if err != nil {
		t.Fatal(err)
	}
	defer func() { _ = c.Close() }()
	prefetchWorkload(t, c, nodes, npages, rounds)

	s := c.Stats().Snapshot()
	if s.PrefetchedPages == 0 {
		t.Fatal("no pages prefetched")
	}
	// Each node may prefetch at most budget pages per round.
	if max := int64(budget * nodes * rounds); s.PrefetchedPages > max {
		t.Fatalf("PrefetchedPages = %d exceeds budget cap %d", s.PrefetchedPages, max)
	}
	// Every node predicts all npages from round 2 on (its fault window
	// saw misses on the budget-excluded pages), so late misses must show.
	if s.PrefetchLate == 0 {
		t.Fatal("no late misses recorded despite budget-excluded predictions")
	}
}

// TestPrefetchWastedOnInvalidation pins the wasted counter: a page
// prefetched but invalidated by the next epoch's write notice before any
// local touch was moved for nothing.
func TestPrefetchWastedOnInvalidation(t *testing.T) {
	const nodes, npages = 2, 1
	c, err := New(Config{Nodes: nodes, Pages: npages, PrefetchBudget: -1})
	if err != nil {
		t.Fatal(err)
	}
	defer func() { _ = c.Close() }()

	val := float32(0)
	round := func(read bool) {
		// Node 1 writes a fresh value each epoch (an unchanged word
		// would diff to nothing and carry no write notice).
		val++
		wf32(t, c, 1, 1, 0, val)
		barrier(t, c)
		if _, err := c.PrefetchRound(); err != nil {
			t.Fatal(err)
		}
		if read {
			rf32(t, c, 0, 0, 0)
		}
	}
	round(true)  // node 0's demand miss seeds its fault window
	round(false) // node 0 prefetches page 0 but never touches it
	round(false) // the new write notice invalidates the untouched prefetch

	s := c.Stats().Snapshot()
	if s.PrefetchedPages == 0 {
		t.Fatal("no pages prefetched")
	}
	if s.PrefetchWasted == 0 {
		t.Fatal("untouched prefetched page was invalidated but not counted wasted")
	}
}

// TestPrefetchPredictorPrecedence verifies that an installed predictor
// overrides the fault-window fallback: an always-empty prediction must
// suppress prefetching entirely even though the fault window is hot.
func TestPrefetchPredictorPrecedence(t *testing.T) {
	const nodes, npages, rounds = 2, 3, 3
	c, err := New(Config{Nodes: nodes, Pages: npages, PrefetchBudget: -1})
	if err != nil {
		t.Fatal(err)
	}
	defer func() { _ = c.Close() }()
	c.SetPrefetchPredictor(func(node int) *vm.Bitmap { return vm.NewBitmap(npages) })
	prefetchWorkload(t, c, nodes, npages, rounds)
	if s := c.Stats().Snapshot(); s.PrefetchedPages != 0 {
		t.Fatalf("PrefetchedPages = %d with an empty predictor, want 0", s.PrefetchedPages)
	}
}

// TestChaosDiffBatchRetryDedup is the resilience acceptance test for the
// batch layer: one DiffBatchRequest is dropped before delivery and one
// executes but loses its reply (forcing the server to serve the same
// batch twice once the transport retries). Because serving a batch is a
// pure read of the writer's diff store, the retries must converge to the
// exact counters of a fault-free run — no diff double-applied, no page
// double-counted — over both the in-process and TCP transports.
func TestChaosDiffBatchRetryDedup(t *testing.T) {
	const nodes, npages, rounds = 3, 4, 4
	for _, useTCP := range []bool{false, true} {
		name := "local"
		if useTCP {
			name = "tcp"
		}
		t.Run(name, func(t *testing.T) {
			run := func(chaos *transport.ChaosOptions) Snapshot {
				c, err := New(Config{
					Nodes:          nodes,
					Pages:          npages,
					PrefetchBudget: -1,
					UseTCP:         useTCP,
					Transport: transport.Options{
						MaxAttempts: 6,
						BackoffBase: time.Microsecond,
					},
					Chaos: chaos,
				})
				if err != nil {
					t.Fatal(err)
				}
				defer func() { _ = c.Close() }()
				prefetchWorkload(t, c, nodes, npages, rounds)
				return c.Stats().Snapshot()
			}

			clean := run(nil)
			if clean.PrefetchedPages == 0 || clean.DiffBatchFetches == 0 {
				t.Fatal("workload never prefetched; test proves nothing")
			}

			var dropReq, dropReply, dup atomic.Bool
			chaotic := run(&transport.ChaosOptions{
				// The first three batches node 0 sends writer 1: a batch
				// whose request is lost, its retry's reply, then a
				// duplicated third attempt. One edge, so one order.
				Plan: func(key sim.CallKey, payload []byte) transport.Fault {
					if msg.Kind(key.Kind) != msg.KindDiffBatchRequest || key.From != 0 || key.To != 1 {
						return transport.FaultNone
					}
					switch key.N {
					case 0:
						dropReq.Store(true)
						return transport.FaultDropRequest
					case 1:
						dropReply.Store(true)
						return transport.FaultDropReply
					case 2:
						dup.Store(true)
						return transport.FaultDuplicate
					}
					return transport.FaultNone
				},
			})
			if !dropReq.Load() || !dropReply.Load() || !dup.Load() {
				t.Fatalf("not all planned faults fired: req %v, reply %v, dup %v",
					dropReq.Load(), dropReply.Load(), dup.Load())
			}

			if got, want := chaotic.Counters(), clean.Counters(); got != want {
				t.Fatalf("counters diverge under chaos:\nchaos: %+v\nclean: %+v", got, want)
			}
			var retries int64
			for _, cs := range chaotic.Calls {
				if cs.Kind == msg.KindDiffBatchRequest.String() {
					retries = cs.Retries
				}
			}
			if retries < 2 {
				t.Fatalf("DiffBatchRequest retries = %d, want >= 2", retries)
			}
		})
	}
}

// TestBatchCarriesMultipleIntervals accumulates several of one writer's
// intervals against an untouched reader copy: the eventual read must
// resolve them with a single DiffBatchRequest whose reply carries every
// diff, applied in interval order.
func TestBatchCarriesMultipleIntervals(t *testing.T) {
	c, err := New(Config{Nodes: 2, Pages: 1, BatchDiffs: true, GCThresholdBytes: -1})
	if err != nil {
		t.Fatal(err)
	}
	defer func() { _ = c.Close() }()

	// Node 0 (the manager) caches the page; node 1 then writes three
	// intervals that node 0 never looks at until the end.
	if got := rf32(t, c, 0, 0, 0); got != 0 {
		t.Fatalf("initial read = %v", got)
	}
	for i := 0; i < 3; i++ {
		wf32(t, c, 1, 1, i, float32(10+i))
		barrier(t, c)
	}
	before := c.Stats().Snapshot()
	for i := 0; i < 3; i++ {
		if got := rf32(t, c, 0, 0, i); got != float32(10+i) {
			t.Fatalf("word %d = %v, want %v", i, got, float32(10+i))
		}
	}
	d := c.Stats().Snapshot().Sub(before)
	if d.DiffBatchFetches != 1 {
		t.Fatalf("DiffBatchFetches = %d for the catch-up read, want 1", d.DiffBatchFetches)
	}
	if d.BatchedDiffs != 3 {
		t.Fatalf("BatchedDiffs = %d, want 3 — the batch reply lost intervals", d.BatchedDiffs)
	}
	if err := c.CheckCoherence(); err != nil {
		t.Fatal(err)
	}
}

// TestBatchDiffsMatchesSerialDemand runs the chaos workload (no prefetch)
// with demand-path diff batching on and off: page contents are verified
// by the workload's shadow in both runs, and every protocol counter not
// inherently changed by batching (message counts, wire framing, and the
// fetch counters themselves) must match exactly — the batch carries the
// same diffs, in the same causal order, as the serial path. On the demand
// path a fault covers one page, so batching issues exactly one
// DiffBatchRequest where the serial path issued one DiffRequest; what it
// changes is the payload shape (all of a writer's intervals in one reply)
// and the stall (parallel fan-out charges the slowest round trip, not the
// sum). The page-spanning coalescing is exercised by the prefetch tests.
func TestBatchDiffsMatchesSerialDemand(t *testing.T) {
	const nodes, npages = 3, 4
	run := func(batch bool) Snapshot {
		c, err := New(Config{Nodes: nodes, Pages: npages, BatchDiffs: batch})
		if err != nil {
			t.Fatal(err)
		}
		defer func() { _ = c.Close() }()
		chaosWorkload(t, c, nodes, npages)
		return c.Stats().Snapshot()
	}

	serial := run(false)
	batched := run(true)
	if serial.DiffFetches == 0 {
		t.Fatal("workload performed no diff fetches; test proves nothing")
	}
	if batched.DiffBatchFetches == 0 || batched.DiffFetches != 0 {
		t.Fatalf("batched run used wrong path: batch fetches %d, serial fetches %d",
			batched.DiffBatchFetches, batched.DiffFetches)
	}
	if batched.DiffBatchFetches != serial.DiffFetches {
		t.Fatalf("fetch count changed: %d batch fetches vs %d serial fetches — "+
			"demand batching must issue one request per (page, writer), like the serial path",
			batched.DiffBatchFetches, serial.DiffFetches)
	}

	got, want := batched.Counters(), serial.Counters()
	// Neutralize the counters batching legitimately changes: the fetch
	// path itself and the wire traffic it reshapes.
	got.Messages, want.Messages = 0, 0
	got.BytesTotal, want.BytesTotal = 0, 0
	got.DiffFetches, want.DiffFetches = 0, 0
	got.DiffBatchFetches, want.DiffBatchFetches = 0, 0
	got.BatchedDiffs, want.BatchedDiffs = 0, 0
	if got != want {
		t.Fatalf("counters diverge between serial and batched demand paths:\nbatched: %+v\nserial:  %+v", got, want)
	}
}
