package transport

import (
	"errors"
	"fmt"
	"net"
	"slices"
	"sync"
	"sync/atomic"
	"testing"
	"time"

	"actdsm/internal/sim"
)

// --- source validation ------------------------------------------------

func TestLocalBadSource(t *testing.T) {
	tr := NewLocal(echoHandlers(2))
	if _, err := tr.Call(-1, 1, nil); err == nil {
		t.Fatal("expected error for negative source")
	}
	if _, err := tr.Call(7, 1, nil); err == nil {
		t.Fatal("expected error for unknown source")
	}
}

func TestTCPBadSource(t *testing.T) {
	tr, err := NewTCP(echoHandlers(2))
	if err != nil {
		t.Fatal(err)
	}
	defer func() { _ = tr.Close() }()
	if _, err := tr.Call(-1, 1, nil); err == nil {
		t.Fatal("expected error for negative source")
	}
	if _, err := tr.Call(9, 1, nil); err == nil {
		t.Fatal("expected error for unknown source")
	}
}

// --- typed errors across the wire ------------------------------------

func TestTCPSentinelPreserved(t *testing.T) {
	hs := []Handler{func(from int, p []byte) ([]byte, error) {
		return nil, fmt.Errorf("nested chaos fault: %w", ErrInjected)
	}}
	tr, err := NewTCP(hs)
	if err != nil {
		t.Fatal(err)
	}
	defer func() { _ = tr.Close() }()
	_, err = tr.Call(0, 0, []byte{1})
	if !errors.Is(err, ErrInjected) {
		t.Fatalf("ErrInjected flattened over TCP: %v", err)
	}
	var re *RemoteError
	if !errors.As(err, &re) {
		t.Fatalf("err = %T, want *RemoteError", err)
	}
	if re.Node != 0 {
		t.Fatalf("RemoteError.Node = %d, want 0", re.Node)
	}
	if !Retryable(err) {
		t.Fatal("remote ErrInjected must be retryable")
	}
}

func TestTCPOrdinaryRemoteErrorNotRetryable(t *testing.T) {
	hs := []Handler{func(from int, p []byte) ([]byte, error) {
		return nil, errors.New("deterministic handler failure")
	}}
	tr, err := NewTCP(hs)
	if err != nil {
		t.Fatal(err)
	}
	defer func() { _ = tr.Close() }()
	_, err = tr.Call(0, 0, nil)
	if err == nil {
		t.Fatal("expected error")
	}
	if errors.Is(err, ErrInjected) {
		t.Fatal("plain error must not match ErrInjected")
	}
	if Retryable(err) {
		t.Fatal("remote handler errors are deterministic, must not be retryable")
	}
}

// --- oversized replies ------------------------------------------------

func TestTCPOversizedReply(t *testing.T) {
	var big atomic.Bool
	hs := []Handler{func(from int, p []byte) ([]byte, error) {
		if big.Load() {
			return make([]byte, maxFrame), nil
		}
		return append([]byte("ok:"), p...), nil
	}}
	tr, err := NewTCP(hs)
	if err != nil {
		t.Fatal(err)
	}
	defer func() { _ = tr.Close() }()
	big.Store(true)
	_, err = tr.Call(0, 0, []byte("x"))
	if !errors.Is(err, ErrFrameTooLarge) {
		t.Fatalf("err = %v, want ErrFrameTooLarge", err)
	}
	if Retryable(err) {
		t.Fatal("oversized replies are deterministic, must not be retryable")
	}
	// The structured error frame must leave the connection usable; the
	// old behaviour poisoned it ("bad reply length" + forced drop).
	big.Store(false)
	got, err := tr.Call(0, 0, []byte("y"))
	if err != nil {
		t.Fatalf("connection poisoned after oversized reply: %v", err)
	}
	if string(got) != "ok:y" {
		t.Fatalf("got %q", got)
	}
}

// --- stale connections and reconnect ---------------------------------

// errTestDrop is what the tests below tear a stream down with: a
// Retryable error, as a real socket failure would be.
var errTestDrop = fmt.Errorf("test drop: %w", net.ErrClosed)

// TestTCPStaleConnDetected checks the dead-on-arrival path: a round trip
// on a stream a concurrent caller already tore down reports errConnStale
// instead of queueing a frame nobody will write.
func TestTCPStaleConnDetected(t *testing.T) {
	tr, err := NewTCP(echoHandlers(2))
	if err != nil {
		t.Fatal(err)
	}
	defer func() { _ = tr.Close() }()
	if _, err := tr.Call(0, 1, []byte("warm")); err != nil {
		t.Fatal(err)
	}
	mc, err := tr.mux(0, 1)
	if err != nil {
		t.Fatal(err)
	}
	mc.fail(errTestDrop)
	if _, err := mc.roundTrip([]byte("x")); !errors.Is(err, errConnStale) {
		t.Fatalf("err = %v, want errConnStale", err)
	}
	// Call itself must recover transparently: the table entry is gone, so
	// the retry dials a fresh stream.
	got, err := tr.Call(0, 1, []byte("again"))
	if err != nil {
		t.Fatalf("Call after drop: %v", err)
	}
	if string(got) != "n1<-0:again" {
		t.Fatalf("got %q", got)
	}
}

// TestTCPStaleConnWaiterRecovers reproduces the race the stale path
// exists for: a caller that resolved a stream and is about to register on
// it while another caller tears it down must re-resolve and succeed —
// without WithRetry — rather than erroring on the dead stream.
func TestTCPStaleConnWaiterRecovers(t *testing.T) {
	tr, err := NewTCP(echoHandlers(2))
	if err != nil {
		t.Fatal(err)
	}
	defer func() { _ = tr.Close() }()
	if _, err := tr.Call(0, 1, []byte("warm")); err != nil {
		t.Fatal(err)
	}
	mc, err := tr.mux(0, 1)
	if err != nil {
		t.Fatal(err)
	}
	mc.mu.Lock()
	done := make(chan error, 1)
	go func() {
		got, err := tr.Call(0, 1, []byte("queued"))
		if err == nil && string(got) != "n1<-0:queued" {
			err = fmt.Errorf("got %q", got)
		}
		done <- err
	}()
	// Give the goroutine time to resolve mc and park on its lock, then do
	// the first half of fail's teardown while it waits (fail itself takes
	// mc.mu) and let fail finish the rest.
	time.Sleep(20 * time.Millisecond)
	tr.removeMux(0, 1, mc)
	mc.dead = true
	mc.mu.Unlock()
	mc.fail(errTestDrop)
	if err := <-done; err != nil {
		t.Fatalf("parked caller failed on stale stream: %v", err)
	}
}

// TestTCPReconnectAfterDrop closes an idle stream's socket out from
// under the transport: the next call either finds the stream already
// failed by its reader or fails in flight, both Retryable, and a
// WithRetry wrapper transparently redials. TestMuxReconnectMidPipeline
// covers the drop under load.
func TestTCPReconnectAfterDrop(t *testing.T) {
	base, err := NewTCP(echoHandlers(2))
	if err != nil {
		t.Fatal(err)
	}
	tr := WithRetry(base, Options{MaxAttempts: 3}, nil)
	defer func() { _ = tr.Close() }()
	if _, err := tr.Call(0, 1, []byte("warm")); err != nil {
		t.Fatal(err)
	}
	base.mu.Lock()
	mc := base.muxes[[2]int{0, 1}]
	base.mu.Unlock()
	if mc == nil {
		t.Fatal("no stream cached")
	}
	_ = mc.conn.Close() // simulate a peer/network drop
	got, err := tr.Call(0, 1, []byte("after-drop"))
	if err != nil {
		t.Fatalf("retry did not reconnect: %v", err)
	}
	if string(got) != "n1<-0:after-drop" {
		t.Fatalf("got %q", got)
	}
}

func TestTCPCallTimeout(t *testing.T) {
	var slow atomic.Bool
	hs := []Handler{func(from int, p []byte) ([]byte, error) {
		if slow.Load() {
			time.Sleep(200 * time.Millisecond)
		}
		return p, nil
	}}
	tr, err := NewTCPWithOptions(hs, Options{CallTimeout: 25 * time.Millisecond})
	if err != nil {
		t.Fatal(err)
	}
	defer func() { _ = tr.Close() }()
	if _, err := tr.Call(0, 0, []byte("fast")); err != nil {
		t.Fatal(err)
	}
	slow.Store(true)
	start := time.Now()
	_, err = tr.Call(0, 0, []byte("slow"))
	if err == nil {
		t.Fatal("expected timeout")
	}
	if !Retryable(err) {
		t.Fatalf("timeout must be retryable: %v", err)
	}
	if d := time.Since(start); d > 150*time.Millisecond {
		t.Fatalf("call took %v, deadline did not bound it", d)
	}
	// The timed-out connection was dropped; a fresh one works.
	slow.Store(false)
	if _, err := tr.Call(0, 0, []byte("recovered")); err != nil {
		t.Fatalf("after timeout: %v", err)
	}
}

// TestTCPConcurrentPairsWithDrops hammers overlapping (from,to) pairs
// while a background goroutine repeatedly fails the busiest stream.
// Every call must still succeed: callers that find the stream dead take
// the stale path and redial, callers caught in flight retry. Each drop
// can cost a call at most one attempt (the table entry is gone before
// the failure is delivered), so drops+1 attempts cannot run out. Run
// with -race.
func TestTCPConcurrentPairsWithDrops(t *testing.T) {
	const drops = 25
	base, err := NewTCP(echoHandlers(3))
	if err != nil {
		t.Fatal(err)
	}
	tr := WithRetry(base, Options{MaxAttempts: drops + 1}, nil)
	defer func() { _ = tr.Close() }()

	var wg sync.WaitGroup
	stop := make(chan struct{})
	wg.Add(1)
	go func() { // the dropper
		defer wg.Done()
		for i := 0; i < drops; i++ {
			select {
			case <-stop:
				return
			case <-time.After(time.Millisecond):
			}
			base.mu.Lock()
			mc := base.muxes[[2]int{0, 1}]
			base.mu.Unlock()
			if mc != nil {
				mc.fail(errTestDrop)
			}
		}
	}()

	pairs := [][2]int{{0, 1}, {0, 1}, {1, 0}, {0, 2}, {2, 1}, {1, 2}}
	errs := make(chan error, len(pairs)*50)
	for g, p := range pairs {
		wg.Add(1)
		go func(g int, from, to int) {
			defer wg.Done()
			for i := 0; i < 50; i++ {
				m := fmt.Sprintf("g%d-m%d", g, i)
				got, err := tr.Call(from, to, []byte(m))
				if err != nil {
					errs <- fmt.Errorf("call %d->%d: %w", from, to, err)
					return
				}
				if want := fmt.Sprintf("n%d<-%d:%s", to, from, m); string(got) != want {
					errs <- fmt.Errorf("got %q, want %q", got, want)
					return
				}
			}
		}(g, p[0], p[1])
	}
	// Wait for workers, then stop the dropper.
	done := make(chan struct{})
	go func() { wg.Wait(); close(done) }()
	<-done
	close(stop)
	close(errs)
	for err := range errs {
		t.Error(err)
	}
}

// --- retry wrapper ----------------------------------------------------

func TestRetryRecovers(t *testing.T) {
	inner := NewChaos(NewLocal(echoHandlers(2)), ChaosOptions{
		Plan: func(k sim.CallKey, _ []byte) Fault {
			if k.N < 2 { // the first two attempts
				return FaultDropRequest
			}
			return FaultNone
		},
	})
	var retries []int
	tr := WithRetry(inner, Options{MaxAttempts: 4, BackoffBase: time.Microsecond},
		func(from, to, attempt int, payload []byte, err error) {
			if !errors.Is(err, ErrInjected) {
				t.Errorf("onRetry err = %v", err)
			}
			retries = append(retries, attempt)
		})
	got, err := tr.Call(0, 1, []byte("x"))
	if err != nil {
		t.Fatal(err)
	}
	if string(got) != "n1<-0:x" {
		t.Fatalf("got %q", got)
	}
	if len(retries) != 2 || retries[0] != 1 || retries[1] != 2 {
		t.Fatalf("retries = %v, want [1 2]", retries)
	}
}

func TestRetryExhausted(t *testing.T) {
	calls := 0
	inner := NewChaos(NewLocal(echoHandlers(2)), ChaosOptions{
		Plan: func(sim.CallKey, []byte) Fault { calls++; return FaultDropRequest },
	})
	tr := WithRetry(inner, Options{MaxAttempts: 3, BackoffBase: time.Microsecond}, nil)
	if _, err := tr.Call(0, 1, nil); !errors.Is(err, ErrInjected) {
		t.Fatalf("err = %v, want ErrInjected", err)
	}
	if calls != 3 {
		t.Fatalf("attempts = %d, want 3", calls)
	}
}

func TestRetryNonRetryableNotRetried(t *testing.T) {
	calls := 0
	hs := []Handler{func(from int, p []byte) ([]byte, error) {
		calls++
		return nil, errors.New("deterministic")
	}}
	tr := WithRetry(NewLocal(hs), Options{MaxAttempts: 5, BackoffBase: time.Microsecond}, nil)
	if _, err := tr.Call(0, 0, nil); err == nil {
		t.Fatal("expected error")
	}
	if calls != 1 {
		t.Fatalf("handler ran %d times, want 1 (no retries of deterministic errors)", calls)
	}
}

func TestWithRetryPassthrough(t *testing.T) {
	inner := NewLocal(echoHandlers(1))
	if tr := WithRetry(inner, Options{MaxAttempts: 1}, nil); tr != Transport(inner) {
		t.Fatal("MaxAttempts <= 1 must return the inner transport unchanged")
	}
	if tr := WithRetry(inner, Options{}, nil); tr != Transport(inner) {
		t.Fatal("zero Options must return the inner transport unchanged")
	}
}

// --- chaos wrapper ----------------------------------------------------

// countingHandlers count executions per node, so tests can distinguish
// "request never delivered" from "reply lost after execution".
func countingHandlers(n int, counts []atomic.Int64) []Handler {
	hs := make([]Handler, n)
	for i := 0; i < n; i++ {
		node := i
		hs[i] = func(from int, p []byte) ([]byte, error) {
			counts[node].Add(1)
			return append([]byte{byte(node)}, p...), nil
		}
	}
	return hs
}

func TestChaosPlanFaults(t *testing.T) {
	counts := make([]atomic.Int64, 2)
	schedule := []Fault{FaultDropRequest, FaultDropReply, FaultDuplicate, FaultNone}
	planned := 0
	tr := NewChaos(NewLocal(countingHandlers(2, counts)), ChaosOptions{
		// Every call is kind 'x' on edge 0->1, so the key's N is the
		// call's place in the test.
		Plan: func(key sim.CallKey, payload []byte) Fault {
			if key.From != 0 || key.To != 1 || key.Kind != 'x' || key.N != int64(planned) {
				t.Errorf("key %+v for kind-x call %d on 0->1", key, planned)
			}
			planned++
			return schedule[key.N]
		},
	})
	defer func() { _ = tr.Close() }()

	// Call 1: dropped request — receiver must NOT execute.
	if _, err := tr.Call(0, 1, []byte("xa")); !errors.Is(err, ErrInjected) {
		t.Fatalf("drop-request err = %v", err)
	}
	if got := counts[1].Load(); got != 0 {
		t.Fatalf("dropped request executed %d times", got)
	}
	// Call 2: dropped reply — receiver HAS executed exactly once.
	if _, err := tr.Call(0, 1, []byte("xb")); !errors.Is(err, ErrInjected) {
		t.Fatalf("drop-reply err = %v", err)
	}
	if got := counts[1].Load(); got != 1 {
		t.Fatalf("drop-reply executions = %d, want 1", got)
	}
	// Call 3: duplicate — receiver executes twice, call succeeds.
	got, err := tr.Call(0, 1, []byte("xc"))
	if err != nil {
		t.Fatal(err)
	}
	if string(got) != "\x01xc" {
		t.Fatalf("got %q", got)
	}
	if n := counts[1].Load(); n != 3 {
		t.Fatalf("after duplicate, executions = %d, want 3", n)
	}
	// Call 4: clean.
	if _, err := tr.Call(0, 1, []byte("xd")); err != nil {
		t.Fatal(err)
	}
	if planned != 4 {
		t.Fatalf("plan consulted %d times, want once per call (4)", planned)
	}
}

func TestChaosDelay(t *testing.T) {
	tr := NewChaos(NewLocal(echoHandlers(2)), ChaosOptions{
		Delay: 30 * time.Millisecond,
		Plan: func(sim.CallKey, []byte) Fault {
			return FaultDelay
		},
	})
	defer func() { _ = tr.Close() }()
	start := time.Now()
	if _, err := tr.Call(0, 1, []byte("x")); err != nil {
		t.Fatal(err)
	}
	if d := time.Since(start); d < 30*time.Millisecond {
		t.Fatalf("delay fault took only %v", d)
	}
}

// TestChaosCrashKeyedPerEdge arms a crash of node 1 at the second kind-x
// call on 0->1, inside a fan-out: that edge goes down at once, the rest of
// node 1 only when the outermost fan-out ends, and Down reports it from
// then. Keys count per (edge, kind), so other kinds and edges do not move
// the key, and a crash armed outside any fan-out takes the node at once.
func TestChaosCrashKeyedPerEdge(t *testing.T) {
	at := sim.CallKey{From: 0, To: 1, Kind: 'x', N: 1}
	tr := NewChaos(NewLocal(echoHandlers(3)), ChaosOptions{
		Crashes: []sim.CrashSchedule{{Node: 1, At: at}},
	})
	defer func() { _ = tr.Close() }()
	call := func(from, to int, payload string, wantDown bool) {
		t.Helper()
		_, err := tr.Call(from, to, []byte(payload))
		if got := errors.Is(err, ErrNodeDown); got != wantDown {
			t.Fatalf("call %d->%d %q: err %v, want down %v", from, to, payload, err, wantDown)
		}
	}
	call(0, 1, "y", false) // another kind: N of kind x stays 0
	call(2, 1, "x", false) // another edge
	call(0, 1, "x", false) // key N 0
	tr.BeginFanOut()
	tr.BeginFanOut()
	call(0, 1, "x", true)  // the key: armed
	call(0, 1, "y", true)  // its directed edge is down, every kind
	call(1, 0, "x", false) // the reverse edge is not, yet
	call(2, 1, "x", false)
	tr.EndFanOut()
	if tr.Down(1) {
		t.Fatal("node 1 down before the outermost fan-out joined")
	}
	call(1, 2, "x", false)
	tr.EndFanOut()
	if !tr.Down(1) || tr.Down(0) {
		t.Fatalf("after the join: down(1) %v, down(0) %v, want true, false", tr.Down(1), tr.Down(0))
	}
	call(1, 0, "x", true)
	call(2, 1, "x", true)
	call(0, 2, "x", false)
	tr.Revive(1)
	call(0, 1, "x", false)

	// Outside any fan-out the key takes the whole node at once.
	tr = NewChaos(NewLocal(echoHandlers(3)), ChaosOptions{
		Crashes: []sim.CrashSchedule{{Node: 1, At: sim.CallKey{From: 2, To: 1, Kind: 'x'}}},
	})
	call(2, 1, "x", true)
	if !tr.Down(1) {
		t.Fatal("node 1 not down after its key outside a fan-out")
	}
	call(0, 1, "x", true)
}

// TestChaosPartitionHeals expresses a partition as a plan: calls across
// the cut are dropped before delivery until the partition heals.
func TestChaosPartitionHeals(t *testing.T) {
	var healed atomic.Bool
	tr := NewChaos(NewLocal(echoHandlers(3)), ChaosOptions{
		Plan: func(k sim.CallKey, _ []byte) Fault {
			if !healed.Load() && (k.From == 0) != (k.To == 0) { // node 0 isolated
				return FaultDropRequest
			}
			return FaultNone
		},
	})
	defer func() { _ = tr.Close() }()
	if _, err := tr.Call(0, 1, nil); !errors.Is(err, ErrInjected) {
		t.Fatalf("partitioned call err = %v", err)
	}
	if _, err := tr.Call(2, 0, nil); !errors.Is(err, ErrInjected) {
		t.Fatalf("partitioned call err = %v", err)
	}
	if _, err := tr.Call(1, 2, nil); err != nil {
		t.Fatalf("intra-island call failed: %v", err)
	}
	healed.Store(true)
	if _, err := tr.Call(0, 1, nil); err != nil {
		t.Fatalf("after heal: %v", err)
	}
}

// keyedPlan injects the faults FaultDropRequest through FaultDelay at the
// given rates, drawing one number per call from a generator seeded by
// seed and the call's key: the faults are a pure function of the key.
func keyedPlan(seed uint64, rates [4]float64) func(sim.CallKey, []byte) Fault {
	return func(k sim.CallKey, _ []byte) Fault {
		key := uint64(k.From)<<56 | uint64(k.To)<<48 | uint64(k.Kind)<<40 | uint64(k.N)
		x, acc := sim.NewRNG(seed^key).Float64(), 0.0
		for i, r := range rates {
			if acc += r; x < acc {
				return FaultDropRequest + Fault(i)
			}
		}
		return FaultNone
	}
}

// TestChaosDeterministicSchedule runs one call sequence twice under a
// keyed plan, once over Local and once over TCP: the same calls fail.
func TestChaosDeterministicSchedule(t *testing.T) {
	run := func(base Transport) []bool {
		tr := NewChaos(base, ChaosOptions{Plan: keyedPlan(42, [4]float64{0.2, 0.1, 0.1, 0})})
		defer func() { _ = tr.Close() }()
		var failed []bool
		for i := 0; i < 60; i++ {
			_, err := tr.Call(i%2, 1-i%2, []byte{byte(i % 3)})
			failed = append(failed, err != nil)
		}
		return failed
	}
	tcp, err := NewTCP(echoHandlers(2))
	if err != nil {
		t.Fatal(err)
	}
	a, b := run(NewLocal(echoHandlers(2))), run(tcp)
	if !slices.Contains(a, true) {
		t.Fatal("the plan injected nothing; test proves nothing")
	}
	if !slices.Equal(a, b) {
		t.Fatalf("schedules diverge across transports:\nlocal %v\ntcp   %v", a, b)
	}
}

// TestChaosWithRetryRecovers is the intended composition: chaos under
// retry, over both base transports. Every call must eventually succeed.
func TestChaosWithRetryRecovers(t *testing.T) {
	for _, tc := range []struct {
		name string
		base func() (Transport, error)
	}{
		{"local", func() (Transport, error) { return NewLocal(echoHandlers(3)), nil }},
		{"tcp", func() (Transport, error) { return NewTCP(echoHandlers(3)) }},
	} {
		t.Run(tc.name, func(t *testing.T) {
			base, err := tc.base()
			if err != nil {
				t.Fatal(err)
			}
			plan := keyedPlan(7, [4]float64{0.2, 0.1, 0.05, 0})
			var injected atomic.Int64
			chaos := NewChaos(base, ChaosOptions{
				Plan: func(k sim.CallKey, p []byte) Fault {
					f := plan(k, p)
					if f != FaultNone {
						injected.Add(1)
					}
					return f
				},
			})
			tr := WithRetry(chaos, Options{MaxAttempts: 10, BackoffBase: time.Microsecond}, nil)
			defer func() { _ = tr.Close() }()
			for i := 0; i < 80; i++ {
				from, to := i%3, (i+1)%3
				want := fmt.Sprintf("n%d<-%d:m%d", to, from, i)
				got, err := tr.Call(from, to, []byte(fmt.Sprintf("m%d", i)))
				if err != nil {
					t.Fatalf("call %d: %v", i, err)
				}
				if string(got) != want {
					t.Fatalf("call %d: got %q, want %q", i, got, want)
				}
			}
			if injected.Load() == 0 {
				t.Fatal("chaos injected nothing; test proves nothing")
			}
		})
	}
}
