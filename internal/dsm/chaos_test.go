package dsm

import (
	"sync/atomic"
	"testing"
	"time"

	"actdsm/internal/memlayout"
	"actdsm/internal/msg"
	"actdsm/internal/transport"
)

// chaosWorkload drives a deterministic multi-round write/barrier/read
// pattern and verifies every node's final view against a plain shadow
// array. It is the shared workload for the fault-injection tests: the
// same sequence runs with and without chaos, so protocol counters are
// directly comparable.
func chaosWorkload(t *testing.T, c *Cluster, nodes, npages int) {
	t.Helper()
	words := npages * memlayout.PageSize / 4
	shadow := make([]float32, words)
	for round := 0; round < 4; round++ {
		for node := 0; node < nodes; node++ {
			for k := 0; k < 8; k++ {
				// The multiplier spreads the writes over every page, so
				// a GC round's collect carries more than one.
				w := (node*17 + k*29 + round*53) * 131 % words
				w -= w % nodes // disjoint per-node lanes within an interval
				w += node
				if w >= words {
					continue
				}
				val := float32(round*1000 + node*100 + k)
				wf32(t, c, node, node, w, val)
				shadow[w] = val
			}
		}
		barrier(t, c)
	}
	for node := 0; node < nodes; node++ {
		for w := 0; w < words; w += 13 {
			if got := rf32(t, c, node, node, w); got != shadow[w] {
				t.Fatalf("node %d word %d = %v, want %v", node, w, got, shadow[w])
			}
		}
	}
	if err := c.CheckCoherence(); err != nil {
		t.Fatal(err)
	}
}

// TestChaosBarrierGCDedup is the resilience acceptance test: a chaos plan
// drops one barrier-enter request, one barrier-enter reply, one GC-collect
// request, and one GC-collect reply (the dropped replies force the
// receiver to execute the request twice once the transport retries); the
// two collects it picks each carry a list of at least two pages. The
// episode must complete via transport-level retry with the final page
// contents identical to the shadow and every protocol counter identical
// to a chaos-free reference run — i.e. no write notice or GC collection
// was double-counted. Runs over both the Local and TCP transports.
func TestChaosBarrierGCDedup(t *testing.T) {
	const nodes, npages = 3, 4
	for _, useTCP := range []bool{false, true} {
		name := "local"
		if useTCP {
			name = "tcp"
		}
		t.Run(name, func(t *testing.T) {
			run := func(chaos *transport.ChaosOptions) Snapshot {
				c, err := New(Config{
					Nodes:            nodes,
					Pages:            npages,
					GCThresholdBytes: 1, // GC every barrier with stored diffs
					UseTCP:           useTCP,
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
				chaosWorkload(t, c, nodes, npages)
				return c.Stats().Snapshot()
			}

			clean := run(nil)
			if clean.GCRounds == 0 {
				t.Fatal("workload never triggered GC; test proves nothing")
			}

			// Inject each fault exactly once, keyed on the message kind
			// (the payload's first byte).
			var enterReq, enterReply, gcReq, gcReply atomic.Bool
			chaotic := run(&transport.ChaosOptions{
				Plan: func(from, to int, payload []byte, call int64) transport.Fault {
					if len(payload) == 0 {
						return transport.FaultNone
					}
					switch msg.Kind(payload[0]) {
					case msg.KindBarrierEnter:
						if enterReq.CompareAndSwap(false, true) {
							return transport.FaultDropRequest
						}
						if enterReply.CompareAndSwap(false, true) {
							return transport.FaultDropReply
						}
					case msg.KindGCCollect:
						if m, err := msg.Decode(payload); err != nil || len(m.(*msg.GCCollect).Pages) < 2 {
							break // only a multi-page list will do
						}
						if gcReq.CompareAndSwap(false, true) {
							return transport.FaultDropRequest
						}
						if gcReply.CompareAndSwap(false, true) {
							return transport.FaultDropReply
						}
					}
					return transport.FaultNone
				},
			})
			if !enterReq.Load() || !enterReply.Load() || !gcReq.Load() || !gcReply.Load() {
				t.Fatalf("not all planned faults fired: enter req/reply %v/%v, gc req/reply %v/%v",
					enterReq.Load(), enterReply.Load(), gcReq.Load(), gcReply.Load())
			}

			// Exactly-once accounting: despite dropped messages, retries,
			// and double-executed requests, every protocol counter matches
			// the chaos-free run.
			if got, want := chaotic.Counters(), clean.Counters(); got != want {
				t.Fatalf("counters diverge under chaos:\nchaos: %+v\nclean: %+v", got, want)
			}

			// The retries were attributed to the right message kinds.
			retries := make(map[string]int64)
			for _, cs := range chaotic.Calls {
				retries[cs.Kind] = cs.Retries
			}
			if retries["BarrierEnter"] < 2 {
				t.Fatalf("BarrierEnter retries = %d, want >= 2", retries["BarrierEnter"])
			}
			if retries["GCCollect"] < 2 {
				t.Fatalf("GCCollect retries = %d, want >= 2", retries["GCCollect"])
			}
		})
	}
}

// TestBarrierPhaseRetryDedup exercises the phase-level retry path: with
// transport retries disabled, a dropped barrier-enter reply fails the
// whole enter fan-in, and Config.BarrierRetries re-broadcasts it. The
// manager has already executed the first delivery, so the re-sent enters
// must be deduplicated — the release carries each notice once and the
// protocol counters (minus message traffic, which legitimately grows with
// the re-broadcast) match a fault-free run.
func TestBarrierPhaseRetryDedup(t *testing.T) {
	const nodes, npages = 3, 3
	run := func(chaos *transport.ChaosOptions, barrierRetries int) Snapshot {
		c, err := New(Config{
			Nodes:            nodes,
			Pages:            npages,
			GCThresholdBytes: -1, // isolate the barrier path
			BarrierRetries:   barrierRetries,
			Chaos:            chaos,
		})
		if err != nil {
			t.Fatal(err)
		}
		defer func() { _ = c.Close() }()
		chaosWorkload(t, c, nodes, npages)
		return c.Stats().Snapshot()
	}

	clean := run(nil, 0)

	var dropped atomic.Bool
	chaotic := run(&transport.ChaosOptions{
		Plan: func(from, to int, payload []byte, call int64) transport.Fault {
			if len(payload) > 0 && msg.Kind(payload[0]) == msg.KindBarrierEnter &&
				dropped.CompareAndSwap(false, true) {
				// The manager executes the enter, but the caller sees an
				// error: the phase fails after partial delivery.
				return transport.FaultDropReply
			}
			return transport.FaultNone
		},
	}, 2)
	if !dropped.Load() {
		t.Fatal("planned fault never fired")
	}
	if chaotic.BarrierRetries == 0 {
		t.Fatal("no phase-level retry recorded")
	}

	// The re-broadcast re-sends every notice; dedup keeps all protocol
	// counters exactly-once. Message and byte counts legitimately differ
	// (the retried phase is re-sent on the wire), as does the retry
	// counter itself.
	got, want := chaotic.Counters(), clean.Counters()
	got.Messages, want.Messages = 0, 0
	got.BytesTotal, want.BytesTotal = 0, 0
	got.BarrierRetries, want.BarrierRetries = 0, 0
	if got != want {
		t.Fatalf("counters diverge after phase retry:\nchaos: %+v\nclean: %+v", got, want)
	}
}

// TestChaosLockGrantRetry pins the lock-acquire retry fix: the grant's
// notice-log high-water mark is confirmed by the requester (echoed in the
// next acquire as LockAcquire.Pos) rather than advanced by the manager
// when serving. With a manager-side mark, dropping a grant reply and
// retrying the acquire skips the notices the requester never received.
//
// The scenario makes the loss observable: node 1 holds a *valid* cached
// copy of the page when node 0 updates it under the lock, so the only way
// node 1 learns of the update is the write notice carried by its own
// grant. If the retried acquire is served an empty log suffix, node 1's
// copy is never invalidated and it reads the stale value.
func TestChaosLockGrantRetry(t *testing.T) {
	const nodes, npages = 3, 1
	const lock = 2 // managed by node 2: every acquire below crosses the wire
	var dropped atomic.Bool
	c, err := New(Config{
		Nodes:            nodes,
		Pages:            npages,
		GCThresholdBytes: -1,
		Transport: transport.Options{
			MaxAttempts: 4,
			BackoffBase: time.Microsecond,
		},
		Chaos: &transport.ChaosOptions{
			Plan: func(from, to int, payload []byte, call int64) transport.Fault {
				// Drop the grant reply of node 1's first acquire: the
				// manager executes it, the requester retries.
				if from == 1 && len(payload) > 0 &&
					msg.Kind(payload[0]) == msg.KindLockAcquire &&
					dropped.CompareAndSwap(false, true) {
					return transport.FaultDropReply
				}
				return transport.FaultNone
			},
		},
	})
	if err != nil {
		t.Fatal(err)
	}
	defer func() { _ = c.Close() }()

	// Node 1 caches page 0 while it is still all zeros; the copy stays
	// valid until a write notice arrives.
	if got := rf32(t, c, 1, 1, 0); got != 0 {
		t.Fatalf("initial read = %v, want 0", got)
	}

	// Node 0 updates word 0 under the lock; its release ships the write
	// notice to the manager's shared log. Nothing is broadcast — lazily,
	// only the next grant carries it.
	if _, err := c.AcquireLock(0, 0, lock); err != nil {
		t.Fatal(err)
	}
	wf32(t, c, 0, 0, 0, 42)
	if _, err := c.ReleaseLock(0, 0, lock); err != nil {
		t.Fatal(err)
	}

	// Node 1 takes the lock. The grant reply is dropped and the transport
	// retries the acquire; the re-served grant must carry node 0's notice
	// again, since the first one never arrived.
	if _, err := c.AcquireLock(1, 1, lock); err != nil {
		t.Fatal(err)
	}
	if got := rf32(t, c, 1, 1, 0); got != 42 {
		t.Fatalf("node 1 read %v after lock hand-off, want 42 — "+
			"a retried acquire lost its grant notices", got)
	}
	if _, err := c.ReleaseLock(1, 1, lock); err != nil {
		t.Fatal(err)
	}

	barrier(t, c)
	if err := c.CheckCoherence(); err != nil {
		t.Fatal(err)
	}
	if !dropped.Load() {
		t.Fatal("planned fault never fired")
	}
	var lockRetries int64
	for _, cs := range c.Stats().Snapshot().Calls {
		if cs.Kind == "LockAcquire" {
			lockRetries = cs.Retries
		}
	}
	if lockRetries == 0 {
		t.Fatal("no LockAcquire retries recorded; the fault plan never fired")
	}
}

// TestChaosRandomizedRecovery soaks the full stack with probabilistic
// faults under a generous retry budget: the workload must still complete
// with correct contents and pass the coherence check, over both
// transports. MaxConsecutive keeps the soak deadline-robust: no single
// call can have all MaxAttempts attempts faulted, so an unlucky stretch
// of the random stream can slow the run but never wedge it, for every
// seed rather than just the committed one.
func TestChaosRandomizedRecovery(t *testing.T) {
	const nodes, npages = 3, 3
	for _, useTCP := range []bool{false, true} {
		name := "local"
		if useTCP {
			name = "tcp"
		}
		t.Run(name, func(t *testing.T) {
			c, err := New(Config{
				Nodes:            nodes,
				Pages:            npages,
				GCThresholdBytes: 1,
				UseTCP:           useTCP,
				Transport: transport.Options{
					MaxAttempts: 12,
					BackoffBase: time.Microsecond,
				},
				Chaos: &transport.ChaosOptions{
					Seed:            99,
					DropRequestProb: 0.10,
					DropReplyProb:   0.05,
					DuplicateProb:   0.05,
					MaxConsecutive:  8,
				},
			})
			if err != nil {
				t.Fatal(err)
			}
			defer func() { _ = c.Close() }()
			chaosWorkload(t, c, nodes, npages)
			var retries int64
			for _, cs := range c.Stats().Snapshot().Calls {
				retries += cs.Retries
			}
			if retries == 0 {
				t.Fatal("chaos injected nothing; test proves nothing")
			}
		})
	}
}
