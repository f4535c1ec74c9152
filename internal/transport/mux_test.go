package transport

// Concurrency suite for the multiplexed stream. Everything here is
// meant to run under -race: pipelined calls from many goroutines,
// deliberately interleaved replies, a connection torn down mid-pipeline,
// chaos faults over the mux, and the wire-level compression path. The
// stale-stream tests live in resilience_test.go.

import (
	"bytes"
	"fmt"
	"os"
	"runtime"
	"strings"
	"sync"
	"sync/atomic"
	"testing"
	"time"

	"actdsm/internal/msg"
)

// TestMuxPipelinedManyGoroutines floods shared (from,to) pairs with
// concurrent callers and verifies every reply matches its own request —
// the request-ID matching must never cross-deliver under pipelining.
func TestMuxPipelinedManyGoroutines(t *testing.T) {
	const nodes, callers, perCaller = 4, 32, 40
	tr, err := NewTCP(echoHandlers(nodes))
	if err != nil {
		t.Fatal(err)
	}
	defer func() { _ = tr.Close() }()
	var wg sync.WaitGroup
	errs := make(chan error, callers)
	for w := 0; w < callers; w++ {
		wg.Add(1)
		go func(w int) {
			defer wg.Done()
			to := 1 + w%(nodes-1)
			for i := 0; i < perCaller; i++ {
				req := fmt.Sprintf("w%d-i%d", w, i)
				got, err := tr.Call(0, to, []byte(req))
				if err != nil {
					errs <- err
					return
				}
				want := fmt.Sprintf("n%d<-0:%s", to, req)
				if string(got) != want {
					errs <- fmt.Errorf("cross-matched reply: got %q, want %q", got, want)
					return
				}
			}
		}(w)
	}
	wg.Wait()
	close(errs)
	for err := range errs {
		t.Error(err)
	}
}

// TestMuxInterleavedReplies makes later requests finish first: each
// payload carries its own service delay, and a batch is issued with
// descending delays so the replies come back in reverse send order.
// Every caller must still receive exactly its own echo.
func TestMuxInterleavedReplies(t *testing.T) {
	hs := []Handler{nil, func(from int, p []byte) ([]byte, error) {
		time.Sleep(time.Duration(p[0]) * time.Millisecond)
		return append([]byte(nil), p...), nil
	}}
	hs[0] = hs[1]
	tr, err := NewTCP(hs)
	if err != nil {
		t.Fatal(err)
	}
	defer func() { _ = tr.Close() }()
	const batch = 8
	var wg sync.WaitGroup
	errs := make(chan error, batch)
	start := make(chan struct{})
	for i := 0; i < batch; i++ {
		wg.Add(1)
		go func(i int) {
			defer wg.Done()
			// First byte is the delay in ms: earlier i → longer hold.
			req := []byte{byte((batch - i) * 5), byte(i), 0xAB}
			<-start
			// Stagger sends so request i is on the wire before i+1.
			time.Sleep(time.Duration(i) * time.Millisecond)
			got, err := tr.Call(0, 1, req)
			if err != nil {
				errs <- err
				return
			}
			if !bytes.Equal(got, req) {
				errs <- fmt.Errorf("call %d: got % x, want % x", i, got, req)
			}
		}(i)
	}
	close(start)
	wg.Wait()
	close(errs)
	for err := range errs {
		t.Error(err)
	}
}

// TestMuxReconnectMidPipeline tears the raw socket down while a
// pipeline of calls is in flight. In-flight calls fail with a retryable
// error, WithRetry redials, and no call is lost or cross-matched.
func TestMuxReconnectMidPipeline(t *testing.T) {
	var slow atomic.Bool
	hs := make([]Handler, 2)
	for i := range hs {
		hs[i] = func(from int, p []byte) ([]byte, error) {
			if slow.Load() {
				time.Sleep(2 * time.Millisecond)
			}
			return append([]byte(nil), p...), nil
		}
	}
	base, err := NewTCP(hs)
	if err != nil {
		t.Fatal(err)
	}
	tr := WithRetry(base, Options{MaxAttempts: 6})
	defer func() { _ = tr.Close() }()
	if _, err := tr.Call(0, 1, []byte("warm")); err != nil {
		t.Fatal(err)
	}
	slow.Store(true)

	const callers, perCaller = 16, 25
	var wg sync.WaitGroup
	errs := make(chan error, callers)
	for w := 0; w < callers; w++ {
		wg.Add(1)
		go func(w int) {
			defer wg.Done()
			for i := 0; i < perCaller; i++ {
				req := []byte(fmt.Sprintf("w%d-i%d", w, i))
				got, err := tr.Call(0, 1, req)
				if err != nil {
					errs <- fmt.Errorf("w%d i%d: %v", w, i, err)
					return
				}
				if !bytes.Equal(got, req) {
					errs <- fmt.Errorf("w%d i%d: got %q", w, i, got)
					return
				}
			}
		}(w)
	}
	// Repeatedly close the live socket out from under the pipeline.
	for k := 0; k < 3; k++ {
		time.Sleep(10 * time.Millisecond)
		base.mu.Lock()
		mc := base.muxes[[2]int{0, 1}]
		base.mu.Unlock()
		if mc != nil {
			_ = mc.conn.Close()
		}
	}
	wg.Wait()
	close(errs)
	for err := range errs {
		t.Error(err)
	}
}

// TestMuxChaosDropDelay runs seeded drops and delays over the mux
// discipline: every call must still succeed (drops surface as retryable
// injected faults), and every reply must match its request.
func TestMuxChaosDropDelay(t *testing.T) {
	base, err := NewTCP(echoHandlers(3))
	if err != nil {
		t.Fatal(err)
	}
	tr := WithRetry(NewChaos(base, ChaosOptions{
		Seed:            7,
		DropRequestProb: 0.05,
		DropReplyProb:   0.05,
		DelayProb:       0.1,
		Delay:           time.Millisecond,
		MaxConsecutive:  3,
	}), Options{MaxAttempts: 8})
	defer func() { _ = tr.Close() }()
	const callers, perCaller = 8, 30
	var wg sync.WaitGroup
	errs := make(chan error, callers)
	for w := 0; w < callers; w++ {
		wg.Add(1)
		go func(w int) {
			defer wg.Done()
			to := 1 + w%2
			for i := 0; i < perCaller; i++ {
				req := fmt.Sprintf("w%d-i%d", w, i)
				got, err := tr.Call(0, to, []byte(req))
				if err != nil {
					errs <- fmt.Errorf("w%d i%d: %v", w, i, err)
					return
				}
				if want := fmt.Sprintf("n%d<-0:%s", to, req); string(got) != want {
					errs <- fmt.Errorf("w%d i%d: got %q, want %q", w, i, got, want)
					return
				}
			}
		}(w)
	}
	wg.Wait()
	close(errs)
	for err := range errs {
		t.Error(err)
	}
}

// TestMuxCompressionShrinksWire sends highly compressible payloads with
// CompressMin set and checks the transport's frame-level byte counters:
// the wire must carry far fewer bytes than the payloads, and the echoes
// must survive the deflate/inflate round trip intact.
func TestMuxCompressionShrinksWire(t *testing.T) {
	tr, err := NewTCPWithOptions(echoHandlers(2), Options{CompressMin: 64})
	if err != nil {
		t.Fatal(err)
	}
	defer func() { _ = tr.Close() }()
	payload := bytes.Repeat([]byte("actdsm"), 700) // 4200 bytes, ratio >> 2
	sent0, recv0 := tr.WireBytes()
	const calls = 20
	for i := 0; i < calls; i++ {
		got, err := tr.Call(0, 1, payload)
		if err != nil {
			t.Fatal(err)
		}
		if !strings.HasPrefix(string(got), "n1<-0:") || !bytes.Equal(got[6:], payload) {
			t.Fatalf("call %d: corrupted echo (len %d)", i, len(got))
		}
		msg.PutBuf(got)
	}
	sent, recv := tr.WireBytes()
	wire := (sent - sent0) + (recv - recv0)
	raw := int64(calls * 2 * len(payload)) // request + reply, each counted once per side
	if wire >= raw {
		t.Fatalf("compression did not shrink the wire: %d bytes for %d raw", wire, raw)
	}
	t.Logf("wire bytes: %d for %d raw payload bytes", wire, raw)
}

// TestMuxSingleWorkerStillCorrect pins MuxWorkers: 1 — handler
// execution serializes server-side, but pipelining and reply matching
// must still hold.
func TestMuxSingleWorkerStillCorrect(t *testing.T) {
	tr, err := NewTCPWithOptions(echoHandlers(2), Options{MuxWorkers: 1})
	if err != nil {
		t.Fatal(err)
	}
	defer func() { _ = tr.Close() }()
	var wg sync.WaitGroup
	errs := make(chan error, 8)
	for w := 0; w < 8; w++ {
		wg.Add(1)
		go func(w int) {
			defer wg.Done()
			for i := 0; i < 20; i++ {
				req := fmt.Sprintf("w%d-i%d", w, i)
				got, err := tr.Call(0, 1, []byte(req))
				if err != nil {
					errs <- err
					return
				}
				if want := "n1<-0:" + req; string(got) != want {
					errs <- fmt.Errorf("got %q, want %q", got, want)
					return
				}
			}
		}(w)
	}
	wg.Wait()
	close(errs)
	for err := range errs {
		t.Error(err)
	}
}

// TestMuxChaosSoak is the nightly chaos-soak leg: sustained pipelined
// load over real TCP sockets with seeded drops and delays, sockets
// repeatedly torn down out from under the pipeline, and a FaultBudget
// cap so the tail of the workload is guaranteed to drain fault-free.
// Every call must succeed and every reply must match its request for
// the whole soak. Gated on ACTDSM_SOAK (a duration; "1" means 30s)
// because minutes of wall clock are nightly material, not per-push CI.
func TestMuxChaosSoak(t *testing.T) {
	env := os.Getenv("ACTDSM_SOAK")
	if env == "" {
		t.Skip("set ACTDSM_SOAK to a duration (e.g. 2m) to run the chaos soak")
	}
	dur := 30 * time.Second
	if d, err := time.ParseDuration(env); err == nil {
		dur = d
	}
	const nodes, callers = 4, 24
	base, err := NewTCPWithOptions(echoHandlers(nodes), Options{CompressMin: 256})
	if err != nil {
		t.Fatal(err)
	}
	tr := WithRetry(NewChaos(base, ChaosOptions{
		Seed:            20260808,
		DropRequestProb: 0.02,
		DropReplyProb:   0.02,
		DelayProb:       0.05,
		Delay:           time.Millisecond,
		MaxConsecutive:  3,
		FaultBudget:     5000,
	}), Options{MaxAttempts: 10})
	defer func() { _ = tr.Close() }()

	deadline := time.Now().Add(dur)
	var calls atomic.Int64
	var wg sync.WaitGroup
	errs := make(chan error, callers)
	big := strings.Repeat("actdsm-soak-", 64) // compressible tail past CompressMin
	for w := 0; w < callers; w++ {
		wg.Add(1)
		go func(w int) {
			defer wg.Done()
			to := 1 + w%(nodes-1)
			for i := 0; time.Now().Before(deadline); i++ {
				req := fmt.Sprintf("w%d-i%d-%s", w, i, big)
				got, err := tr.Call(0, to, []byte(req))
				if err != nil {
					errs <- fmt.Errorf("w%d i%d: %v", w, i, err)
					return
				}
				if want := fmt.Sprintf("n%d<-0:%s", to, req); string(got) != want {
					errs <- fmt.Errorf("w%d i%d: cross-matched reply (len %d)", w, i, len(got))
					return
				}
				msg.PutBuf(got)
				calls.Add(1)
			}
		}(w)
	}
	// Reconnect pressure: keep closing live sockets under the pipeline.
	stop := make(chan struct{})
	go func() {
		for {
			select {
			case <-stop:
				return
			case <-time.After(50 * time.Millisecond):
				to := 1 + int(calls.Load())%(nodes-1)
				base.mu.Lock()
				mc := base.muxes[[2]int{0, to}]
				base.mu.Unlock()
				if mc != nil {
					_ = mc.conn.Close()
				}
			}
		}
	}()
	wg.Wait()
	close(stop)
	close(errs)
	for err := range errs {
		t.Error(err)
	}
	t.Logf("soak: %d calls over %v across %d callers", calls.Load(), dur, callers)
}

// TestMuxCallAllocs pins the zero-allocation send path: a sequential
// echo round trip whose reply buffer is recycled must not allocate once
// the pools have converged (gate: < 0.5/op). Skipped under the race
// detector, whose instrumentation allocates.
func TestMuxCallAllocs(t *testing.T) {
	if raceEnabled {
		t.Skip("allocation counts are meaningless under the race detector")
	}
	echo := func(from int, p []byte) ([]byte, error) { return p, nil }
	tr, err := NewTCP([]Handler{echo, echo})
	if err != nil {
		t.Fatal(err)
	}
	defer func() { _ = tr.Close() }()
	payload := make([]byte, 256)
	calls := func(n int) {
		for i := 0; i < n; i++ {
			r, err := tr.Call(0, 1, payload)
			if err != nil {
				t.Fatal(err)
			}
			msg.PutBuf(r)
		}
	}
	calls(2000) // warm-up: let the buffer pools converge
	defer runtime.GOMAXPROCS(runtime.GOMAXPROCS(1))
	const runs = 20000
	var before, after runtime.MemStats
	runtime.GC()
	runtime.ReadMemStats(&before)
	calls(runs)
	runtime.ReadMemStats(&after)
	allocs := float64(after.Mallocs-before.Mallocs) / runs
	t.Logf("mux call: %.3f allocs/op", allocs)
	if allocs >= 0.5 {
		t.Fatalf("steady-state mux call allocates %.3f/op, want ~0", allocs)
	}
}
