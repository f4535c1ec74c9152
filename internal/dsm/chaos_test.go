package dsm

import (
	"maps"
	"sync/atomic"
	"testing"
	"time"

	"actdsm/internal/memlayout"
	"actdsm/internal/msg"
	"actdsm/internal/sim"
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

			// Inject each fault exactly once, keyed per edge: the first
			// enters of nodes 1 and 2, and the first multi-page collects
			// member 1 and member 2 receive (a member's collects all come
			// from its own phase-2 leg, so "first" names one call).
			var enterReq, enterReply, gcReq, gcReply atomic.Bool
			chaotic := run(&transport.ChaosOptions{
				Plan: func(key sim.CallKey, payload []byte) transport.Fault {
					switch msg.Kind(key.Kind) {
					case msg.KindBarrierEnter:
						if key.N == 0 && key.From == 1 && enterReq.CompareAndSwap(false, true) {
							return transport.FaultDropRequest
						}
						if key.N == 0 && key.From == 2 && enterReply.CompareAndSwap(false, true) {
							return transport.FaultDropReply
						}
					case msg.KindGCCollect:
						if m, err := msg.Decode(payload); err != nil || len(m.(*msg.GCCollect).Pages) < 2 {
							break // only a multi-page list will do
						}
						if key.To == 1 && gcReq.CompareAndSwap(false, true) {
							return transport.FaultDropRequest
						}
						if key.To == 2 && gcReply.CompareAndSwap(false, true) {
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

// TestChaosLockGrantRetry pins the pull's retry rule: the position a pull
// starts from is confirmed by the requester (echoed in its next pull from
// the same holder as LockPull.Pos) rather than advanced by the holder
// when serving. With a holder-side mark, dropping a pull reply and
// retrying the pull skips the notices the requester never received.
//
// The scenario makes the loss observable: node 1 holds a *valid* cached
// copy of the page when node 0 updates it under the lock, so the only way
// node 1 learns of the update is the write notice its own pull carries.
// The dropped reply is node 1's second pull from node 0, which starts
// past the first one's notices; if its retry were served an empty suffix,
// node 1's copy would never be invalidated and it would read the stale
// value.
func TestChaosLockGrantRetry(t *testing.T) {
	const nodes, npages = 3, 2
	const lock = 2 // managed by node 2: every acquire below crosses the wire
	var pulls atomic.Int32
	c, err := New(Config{
		Nodes:            nodes,
		Pages:            npages,
		GCThresholdBytes: -1,
		Transport: transport.Options{
			MaxAttempts: 4,
			BackoffBase: time.Microsecond,
		},
		Chaos: &transport.ChaosOptions{
			Plan: func(key sim.CallKey, payload []byte) transport.Fault {
				// Drop the reply of node 1's second pull from node 0: the
				// holder serves it, the requester retries.
				if key.From == 1 && key.To == 0 && msg.Kind(key.Kind) == msg.KindLockPull &&
					pulls.Add(1) == 2 {
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
	wordsPerPage := memlayout.PageSize / 4
	handoff := func(round int) {
		// Node 0 updates page 1 under the lock; nothing is broadcast —
		// lazily, only node 1's pull from node 0 carries the notice.
		if _, err := c.AcquireLock(0, 0, lock); err != nil {
			t.Fatal(err)
		}
		wf32(t, c, 0, 0, wordsPerPage, float32(round))
		if _, err := c.ReleaseLock(0, 0, lock); err != nil {
			t.Fatal(err)
		}
		if _, err := c.AcquireLock(1, 1, lock); err != nil {
			t.Fatal(err)
		}
		if got := rf32(t, c, 1, 1, wordsPerPage); got != float32(round) {
			t.Fatalf("round %d: node 1 read %v after the lock hand-off, want %d — "+
				"a retried pull lost its notices", round, got, round)
		}
		if _, err := c.ReleaseLock(1, 1, lock); err != nil {
			t.Fatal(err)
		}
	}
	handoff(1)
	n1 := c.nodes[1]
	n1.lockSync()
	first := n1.pullPos[0]
	n1.mu.Unlock()
	if first == 0 {
		t.Fatal("node 1 confirmed no position after its first pull from node 0")
	}
	handoff(2)

	barrier(t, c)
	if err := c.CheckCoherence(); err != nil {
		t.Fatal(err)
	}
	if pulls.Load() < 2 {
		t.Fatal("planned fault never fired")
	}
	var pullRetries int64
	for _, cs := range c.Stats().Snapshot().Calls {
		if cs.Kind == "LockPull" {
			pullRetries = cs.Retries
		}
	}
	if pullRetries == 0 {
		t.Fatal("no LockPull retries recorded; the fault plan never fired")
	}
}

// keyedPlan injects dropped requests, dropped replies and duplicates at
// the given rates, drawing one number per call from a generator seeded by
// seed and the call's key: the faults are a pure function of the key, so
// they land on the same calls on every run and over either transport.
func keyedPlan(seed uint64, dropReq, dropReply, dup float64) func(sim.CallKey, []byte) transport.Fault {
	return func(k sim.CallKey, _ []byte) transport.Fault {
		key := uint64(k.From)<<56 | uint64(k.To)<<48 | uint64(k.Kind)<<40 | uint64(k.N)
		switch x := sim.NewRNG(seed ^ key).Float64(); {
		case x < dropReq:
			return transport.FaultDropRequest
		case x < dropReq+dropReply:
			return transport.FaultDropReply
		case x < dropReq+dropReply+dup:
			return transport.FaultDuplicate
		}
		return transport.FaultNone
	}
}

// TestChaosRandomizedRecovery soaks the full stack with a seeded keyed
// plan under a generous retry budget: the workload must still complete
// with correct contents and pass the coherence check, over both
// transports. Because the plan is keyed, the run is reproducible: the
// retries per message kind and the protocol counters are identical
// across two runs and between the Local and TCP transports.
func TestChaosRandomizedRecovery(t *testing.T) {
	const nodes, npages = 3, 3
	type outcome struct {
		retries  map[string]int64
		counters Counters
	}
	var byTransport [2]outcome
	for i, useTCP := range []bool{false, true} {
		name := "local"
		if useTCP {
			name = "tcp"
		}
		t.Run(name, func(t *testing.T) {
			run := func() outcome {
				c, err := New(Config{
					Nodes:            nodes,
					Pages:            npages,
					GCThresholdBytes: 1,
					UseTCP:           useTCP,
					Transport: transport.Options{
						MaxAttempts: 12,
						BackoffBase: time.Microsecond,
					},
					Chaos: &transport.ChaosOptions{Plan: keyedPlan(99, 0.10, 0.05, 0.05)},
				})
				if err != nil {
					t.Fatal(err)
				}
				defer func() { _ = c.Close() }()
				chaosWorkload(t, c, nodes, npages)
				snap := c.Stats().Snapshot()
				o := outcome{retries: map[string]int64{}, counters: snap.Counters()}
				for _, cs := range snap.Calls {
					if cs.Retries > 0 {
						o.retries[cs.Kind] = cs.Retries
					}
				}
				return o
			}
			a, b := run(), run()
			if len(a.retries) == 0 {
				t.Fatal("chaos injected nothing; test proves nothing")
			}
			if !maps.Equal(a.retries, b.retries) || a.counters != b.counters {
				t.Fatalf("keyed plan did not replay:\nretries %v vs %v\ncounters %+v\nvs       %+v",
					a.retries, b.retries, a.counters, b.counters)
			}
			t.Logf("retries per kind %v", a.retries)
			byTransport[i] = a
		})
	}
	if t.Failed() {
		return
	}
	local, tcp := byTransport[0], byTransport[1]
	if !maps.Equal(local.retries, tcp.retries) || local.counters != tcp.counters {
		t.Fatalf("keyed plan differs across transports:\nretries local %v, tcp %v\ncounters local %+v\n         tcp   %+v",
			local.retries, tcp.retries, local.counters, tcp.counters)
	}
}
