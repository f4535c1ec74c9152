package transport

import (
	"fmt"
	"sync"
	"sync/atomic"
	"time"

	"actdsm/internal/sim"
)

// Fault identifies one injected failure mode for a call.
type Fault int

// Fault modes.
const (
	// FaultNone delivers the call normally.
	FaultNone Fault = iota
	// FaultDropRequest fails the call without delivering it: the
	// receiver never sees the request (a lost request).
	FaultDropRequest
	// FaultDropReply delivers the call, discards the reply, and fails:
	// the receiver HAS executed the request while the caller sees an
	// error (a lost reply). Retrying such a call re-executes it, which
	// is exactly the case idempotent protocols must survive.
	FaultDropReply
	// FaultDuplicate delivers the call twice and returns the second
	// reply (a duplicated request, e.g. a spurious network-level
	// retransmit).
	FaultDuplicate
	// FaultDelay sleeps for ChaosOptions.Delay, then delivers normally
	// (a slow peer; trips CallTimeout when configured tighter).
	FaultDelay
)

// String implements fmt.Stringer.
func (f Fault) String() string {
	switch f {
	case FaultNone:
		return "none"
	case FaultDropRequest:
		return "drop-request"
	case FaultDropReply:
		return "drop-reply"
	case FaultDuplicate:
		return "duplicate"
	case FaultDelay:
		return "delay"
	default:
		return fmt.Sprintf("fault(%d)", int(f))
	}
}

// ChaosOptions configures a Chaos wrapper. Probabilities are evaluated in
// the order drop-request, drop-reply, duplicate, delay, by one seeded
// deterministic generator, so a fixed seed and a serial caller produce a
// reproducible fault schedule. When Plan is non-nil it alone decides
// every call's fault and the probabilistic knobs are ignored — the fully
// deterministic mode tests use, which replays under parallel callers too
// (replay.go).
type ChaosOptions struct {
	// Seed seeds the fault generator (sim.RNG). Defaults to 1.
	Seed uint64
	// DropRequestProb is the probability of FaultDropRequest.
	DropRequestProb float64
	// DropReplyProb is the probability of FaultDropReply.
	DropReplyProb float64
	// DuplicateProb is the probability of FaultDuplicate.
	DuplicateProb float64
	// DelayProb is the probability of FaultDelay.
	DelayProb float64
	// Delay is the FaultDelay sleep. Defaults to 1ms.
	Delay time.Duration
	// Partitioned, if non-nil, reports whether the (from, to) pair is
	// currently unreachable; such calls fail with ErrInjected without
	// being delivered. Schedules (heal after N calls, one-way splits,
	// islands) are expressed by closing over mutable state.
	Partitioned func(from, to int) bool
	// Plan, if non-nil, decides the fault for each call and overrides
	// the probabilistic knobs. key names the call by its place on its
	// directed edge: its kind (the payload's first byte, the msg.Kind)
	// and the number of earlier calls of that kind on that edge, retries
	// included (see replay.go). payload is the encoded message, letting
	// plans also target specific message contents.
	Plan func(key sim.CallKey, payload []byte) Fault
	// FaultBudget, when positive, caps the total number of faults the
	// probabilistic knobs may inject; once spent, every later decision
	// is FaultNone. Soak tests use it to guarantee the workload's tail
	// runs fault-free, so a run always terminates regardless of how
	// unlucky the stream was. Plan, Partitioned, and Crashes are exempt
	// (they are deterministic by construction).
	FaultBudget int64
	// MaxConsecutive, when positive, bounds runs of consecutive
	// probabilistic injections: after that many faults in a row the next
	// decision is forced to FaultNone. With MaxConsecutive below the
	// retry budget (Options.MaxAttempts), no single call can have every
	// attempt faulted, which makes randomized soaks deadline-robust
	// without changing their expected fault rate materially.
	MaxConsecutive int
	// Crashes are deterministic fail-stop windows, each armed at the
	// call its schedule's key names (the key Plan sees). The call at
	// s.At fails with ErrNodeDown, and so does every later call on its
	// directed edge; every other call to or from s.Node fails from the
	// join of the outermost fan-out in flight (BeginFanOut, EndFanOut),
	// or at once when none is, and Down reports the node from that same
	// point. The windows last until Revive is called for the node (the
	// DSM layer does so when it runs the node's recovery protocol at
	// s.RestartEpoch). Crash windows compose with Plan, Partitioned, and
	// the probabilistic knobs — they are evaluated first and, like every
	// fault here, consume the call's key.
	Crashes []sim.CrashSchedule
}

// Chaos wraps a Transport with fault injection. It generalizes
// Local.FailCall: it composes over both Local and TCP (and under
// WithRetry, so injected faults exercise the retry path). All injected
// failures carry ErrInjected, which Retryable recognizes.
type Chaos struct {
	inner Transport
	o     ChaosOptions

	calls    atomic.Int64
	injected atomic.Int64

	mu     sync.Mutex // guards rng, budget, streak and edgeCalls
	rng    *sim.RNG
	budget int64 // remaining probabilistic faults (if budgeted)
	streak int   // consecutive probabilistic injections
	// edgeCalls counts the calls made per (from, to, kind), the N of the
	// next call's key; its keys have N 0.
	edgeCalls map[sim.CallKey]int64

	// crashMu guards the crash-window state below. Separate from mu so
	// downAt checks never serialize on the fault generator.
	crashMu sync.Mutex
	// sched holds the configured schedules and state[i] how far
	// schedule i has armed; depth counts the fan-outs in flight.
	sched []sim.CrashSchedule
	state []crashState
	depth int
	// killed holds nodes put down imperatively via Kill, outside any
	// schedule, until revived.
	killed map[int]bool
	// hasCrash short-circuits the per-call crash check when no schedule
	// or Kill has ever been installed (the common, fault-free case).
	hasCrash atomic.Bool
}

// Compile-time interface check.
var _ Transport = (*Chaos)(nil)

// NewChaos wraps inner with fault injection per o.
func NewChaos(inner Transport, o ChaosOptions) *Chaos {
	if o.Seed == 0 {
		o.Seed = 1
	}
	if o.Delay <= 0 {
		o.Delay = time.Millisecond
	}
	c := &Chaos{inner: inner, o: o, rng: sim.NewRNG(o.Seed), budget: o.FaultBudget,
		edgeCalls: make(map[sim.CallKey]int64), killed: make(map[int]bool)}
	c.sched = append(c.sched, o.Crashes...)
	c.state = make([]crashState, len(c.sched))
	if len(c.sched) > 0 {
		c.hasCrash.Store(true)
	}
	return c
}

// Kill puts node down immediately, outside any schedule: every later
// call to or from it fails with ErrNodeDown until Revive. Tests use it
// to crash a node at a precise point in a driven workload without
// computing call keys.
func (c *Chaos) Kill(node int) {
	c.crashMu.Lock()
	c.killed[node] = true
	c.crashMu.Unlock()
	c.hasCrash.Store(true)
}

// crashState is how far one crash schedule has armed.
type crashState uint8

const (
	crashPending crashState = iota // its key's call has not come
	crashEdge                      // its key's directed edge is down
	crashDown                      // the node is down
	crashRevived                   // the node was revived: retired
)

// Revive brings node back up: it retires the node's armed (or pending)
// crash windows and clears any imperative Kill, so calls involving the
// node flow again. The DSM recovery protocol calls this when the node
// rejoins.
func (c *Chaos) Revive(node int) {
	c.crashMu.Lock()
	delete(c.killed, node)
	for i, s := range c.sched {
		if s.Node == node {
			c.state[i] = crashRevived
		}
	}
	c.crashMu.Unlock()
}

// Down reports whether node is currently down. A scheduled crash reads as
// down only once it has taken the whole node down, never while just its
// key's edge is, so a caller's view of the membership cannot change
// inside a fan-out.
func (c *Chaos) Down(node int) bool {
	c.crashMu.Lock()
	defer c.crashMu.Unlock()
	if c.killed[node] {
		return true
	}
	for i, s := range c.sched {
		if s.Node == node && c.state[i] == crashDown {
			return true
		}
	}
	return false
}

// BeginFanOut and EndFanOut bracket a fan-out whose legs run in
// parallel. A crash armed inside one takes down its key's directed edge
// at once — the one edge whose order is fixed — and the rest of the node
// only when the outermost fan-out joins, so every leg sees the same crash
// whichever ran first. Without crash schedules they do nothing.
func (c *Chaos) BeginFanOut() {
	if len(c.sched) == 0 {
		return
	}
	c.crashMu.Lock()
	c.depth++
	c.crashMu.Unlock()
}

// EndFanOut ends the fan-out BeginFanOut began (see there).
func (c *Chaos) EndFanOut() {
	if len(c.sched) == 0 {
		return
	}
	c.crashMu.Lock()
	if c.depth--; c.depth == 0 {
		for i := range c.state {
			if c.state[i] == crashEdge {
				c.state[i] = crashDown
			}
		}
	}
	c.crashMu.Unlock()
}

// crashed reports whether the call at key k fails for a crash, arming
// every schedule whose key it is.
func (c *Chaos) crashed(k sim.CallKey) bool {
	c.crashMu.Lock()
	defer c.crashMu.Unlock()
	down := c.killed[k.From] || c.killed[k.To]
	for i, s := range c.sched {
		switch c.state[i] {
		case crashPending:
			if k == s.At {
				c.state[i] = crashEdge
				if c.depth == 0 {
					c.state[i] = crashDown
				}
				down = true
			}
		case crashEdge:
			down = down || (k.From == s.At.From && k.To == s.At.To)
		case crashDown:
			down = down || k.Touches(s.Node)
		}
	}
	return down
}

// key numbers a call on its directed edge (sim.CallKey).
func (c *Chaos) key(from, to int, payload []byte) sim.CallKey {
	k := sim.CallKey{From: from, To: to}
	if len(payload) > 0 {
		k.Kind = payload[0]
	}
	c.mu.Lock()
	n := c.edgeCalls[k]
	c.edgeCalls[k] = n + 1
	c.mu.Unlock()
	k.N = n
	return k
}

// Calls returns the number of calls observed (including retries).
func (c *Chaos) Calls() int64 { return c.calls.Load() }

// Injected returns the number of calls a fault was injected into.
func (c *Chaos) Injected() int64 { return c.injected.Load() }

// Call implements Transport.
func (c *Chaos) Call(from, to int, payload []byte) ([]byte, error) {
	c.calls.Add(1)
	key := c.key(from, to, payload)
	if c.hasCrash.Load() && c.crashed(key) {
		c.injected.Add(1)
		return nil, fmt.Errorf("transport: crash %d->%d at kind %d call %d: %w", from, to, key.Kind, key.N, ErrNodeDown)
	}
	if c.o.Partitioned != nil && c.o.Partitioned(from, to) {
		c.injected.Add(1)
		return nil, fmt.Errorf("transport: partition %d->%d: %w", from, to, ErrInjected)
	}
	f := c.fault(key, payload)
	if f != FaultNone {
		c.injected.Add(1)
	}
	switch f {
	case FaultDropRequest:
		return nil, fmt.Errorf("transport: chaos dropped request %d->%d: %w", from, to, ErrInjected)
	case FaultDropReply:
		if _, err := c.inner.Call(from, to, payload); err != nil {
			return nil, err
		}
		return nil, fmt.Errorf("transport: chaos dropped reply %d->%d: %w", from, to, ErrInjected)
	case FaultDuplicate:
		if _, err := c.inner.Call(from, to, payload); err != nil {
			return nil, err
		}
	case FaultDelay:
		time.Sleep(c.o.Delay)
	}
	return c.inner.Call(from, to, payload)
}

// fault decides the fault for one call.
func (c *Chaos) fault(key sim.CallKey, payload []byte) Fault {
	if c.o.Plan != nil {
		return c.o.Plan(key, payload)
	}
	c.mu.Lock()
	defer c.mu.Unlock()
	x := c.rng.Float64() // always consume the stream: decisions stay
	// seed-deterministic whether or not the guards below veto them
	if c.o.FaultBudget > 0 && c.budget <= 0 {
		return FaultNone
	}
	if c.o.MaxConsecutive > 0 && c.streak >= c.o.MaxConsecutive {
		c.streak = 0
		return FaultNone
	}
	var f Fault
	switch {
	case x < c.o.DropRequestProb:
		f = FaultDropRequest
	case x < c.o.DropRequestProb+c.o.DropReplyProb:
		f = FaultDropReply
	case x < c.o.DropRequestProb+c.o.DropReplyProb+c.o.DuplicateProb:
		f = FaultDuplicate
	case x < c.o.DropRequestProb+c.o.DropReplyProb+c.o.DuplicateProb+c.o.DelayProb:
		f = FaultDelay
	default:
		c.streak = 0
		return FaultNone
	}
	if c.o.FaultBudget > 0 {
		c.budget--
	}
	c.streak++
	return f
}

// Close implements Transport.
func (c *Chaos) Close() error { return c.inner.Close() }

// Unwrap returns the wrapped transport (see Base).
func (c *Chaos) Unwrap() Transport { return c.inner }
