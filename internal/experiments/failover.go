package experiments

// Crash-recovery comparison: the BENCH_failover.json generator and
// regression gate. Three legs of the same phased lane-write workload on
// a fault-tolerant 4-node cluster, all deterministic (counts that no
// fan-out's leg order moves, imperative kill/restart, no timing):
//
//   - clean: fault tolerance on, nobody dies (the replication-overhead
//     baseline);
//   - crash: the victim dies between the phases and stays dead — the
//     survivors must finish over its ring successor's replicated state;
//   - restart: the victim additionally rejoins mid-run and re-fetches
//     its wiped pages.
//
// The headline invariant is digest equality: all three legs must end
// with byte-identical shared memory. The call counts price the crash:
// failover re-routes, recovery fetches, and replication re-ships push
// the count up while the dead node's ceased participation pulls it
// down, so the net delta can be negative. The gate pins the counts
// exactly — the runs are deterministic, so a drift means the recovery
// protocol changed shape and the baseline must be regenerated
// deliberately.
//
// One leg runs a phased lane-write workload (the same shape as the
// failover acceptance tests): every node writes disjoint words for
// PreRounds barrier rounds; then, in the crash legs, the victim dies
// imperatively; the survivors write for PostRounds more rounds; the
// restart leg additionally rejoins the victim after the first
// post-crash round. The fault-free leg runs the identical survivor-only
// post-phase, so all legs must converge to the same final contents.
//
// See DESIGN.md §12.

import (
	"encoding/json"
	"fmt"
	"hash/fnv"
	"math"
	"strings"
	"sync/atomic"
	"time"

	"actdsm/internal/dsm"
	"actdsm/internal/memlayout"
	"actdsm/internal/msg"
	"actdsm/internal/transport"
	"actdsm/internal/vm"
)

// FailoverReport is the BENCH_failover.json schema.
type FailoverReport struct {
	// Nodes, Pages, PreRounds, PostRounds, Victim describe the shared
	// workload shape.
	Nodes      int `json:"nodes"`
	Pages      int `json:"pages"`
	PreRounds  int `json:"pre_rounds"`
	PostRounds int `json:"post_rounds"`
	Victim     int `json:"victim"`
	// Clean, Crash, Restart are the three measured legs.
	Clean   FailoverLeg `json:"clean"`
	Crash   FailoverLeg `json:"crash"`
	Restart FailoverLeg `json:"restart"`
	// ExtraCallsCrash and ExtraCallsRestart are the legs' transport-
	// call excess over the clean leg — the protocol price of the
	// failure (and of the rejoin).
	ExtraCallsCrash   int64 `json:"extra_calls_crash"`
	ExtraCallsRestart int64 `json:"extra_calls_restart"`
}

// FailoverLeg is one measured leg.
type FailoverLeg struct {
	// Digest is an FNV-1a hash over the final shared segment as read
	// from a fixed survivor. Equal digests across legs mean the crash
	// was invisible to the surviving computation.
	Digest string `json:"digest"`
	// Calls is the total transport-call count of the leg — the crash
	// legs' excess over the fault-free leg is the protocol price of a
	// failure.
	Calls int64 `json:"calls"`
	// Crashes..RecoveryRounds echo the leg's failover counters.
	Crashes         int64 `json:"crashes"`
	Rejoins         int64 `json:"rejoins"`
	Failovers       int64 `json:"failovers"`
	ReplicaDeltas   int64 `json:"replica_deltas"`
	ReplicaBytes    int64 `json:"replica_bytes"`
	RecoveryFetches int64 `json:"recovery_fetches"`
	RecoveryRounds  int64 `json:"recovery_rounds"`
}

// The fixed workload shape all three legs share. The victim is neither
// node 0 nor the digest reader (its ring successor).
const (
	failoverNodes      = 4
	failoverPages      = 4
	failoverPreRounds  = 2
	failoverPostRounds = 3
	failoverVictim     = 2
)

// FailoverComparison measures the three legs and assembles the report.
func FailoverComparison() (FailoverReport, error) {
	rep := FailoverReport{
		Nodes:      failoverNodes,
		Pages:      failoverPages,
		PreRounds:  failoverPreRounds,
		PostRounds: failoverPostRounds,
		Victim:     failoverVictim,
	}
	var err error
	if rep.Clean, err = failoverLeg(false, false); err != nil {
		return rep, fmt.Errorf("failover clean leg: %w", err)
	}
	if rep.Crash, err = failoverLeg(true, false); err != nil {
		return rep, fmt.Errorf("failover crash leg: %w", err)
	}
	if rep.Restart, err = failoverLeg(true, true); err != nil {
		return rep, fmt.Errorf("failover restart leg: %w", err)
	}
	rep.ExtraCallsCrash = rep.Crash.Calls - rep.Clean.Calls
	rep.ExtraCallsRestart = rep.Restart.Calls - rep.Clean.Calls
	return rep, nil
}

// failoverLeg runs one leg: crash kills the victim between the phases,
// restart additionally rejoins it after the first post-crash round.
func failoverLeg(crash, restart bool) (FailoverLeg, error) {
	var res FailoverLeg
	c, err := dsm.New(dsm.Config{
		Nodes:            failoverNodes,
		Pages:            failoverPages,
		FaultTolerance:   true,
		GCThresholdBytes: -1,
		Transport: transport.Options{
			MaxAttempts: 4,
			BackoffBase: time.Microsecond,
		},
		Chaos: &transport.ChaosOptions{},
	})
	if err != nil {
		return res, err
	}
	defer func() { _ = c.Close() }()

	var calls atomic.Int64
	c.SetProbe(&dsm.Probe{
		TransportCall: func(from, to int, kind msg.Kind, bytes int, wall time.Duration, failed bool) {
			calls.Add(1)
		},
	})

	const words = failoverPages * memlayout.PageSize / 4
	write := func(node, round int) error {
		for k := 0; k < 6; k++ {
			w := (node*19 + k*31 + round*57) % words
			w -= w % failoverNodes // disjoint per-node lanes within a round
			w += node
			if w >= words {
				continue
			}
			b, _, err := c.Span(node, node, w*4, 4, vm.Write)
			if err != nil {
				return err
			}
			memlayout.ViewF32(b).Set(0, float32(round*1000+node*100+k))
		}
		return nil
	}
	for round := 0; round < failoverPreRounds; round++ {
		for node := 0; node < failoverNodes; node++ {
			if err := write(node, round); err != nil {
				return res, err
			}
		}
		if _, err := c.Barrier(); err != nil {
			return res, err
		}
	}
	if crash {
		if err := c.Kill(failoverVictim); err != nil {
			return res, err
		}
	}
	for round := failoverPreRounds; round < failoverPreRounds+failoverPostRounds; round++ {
		for node := 0; node < failoverNodes; node++ {
			if node == failoverVictim {
				continue // the fault-free leg idles the victim too
			}
			if err := write(node, round); err != nil {
				return res, err
			}
		}
		if _, err := c.Barrier(); err != nil {
			return res, err
		}
		if restart && round == failoverPreRounds {
			if err := c.Restart(failoverVictim); err != nil {
				return res, err
			}
		}
	}

	// Digest the final image from a fixed survivor, then check global
	// coherence so a digest produced from a broken run cannot pass.
	const reader = (failoverVictim + 1) % failoverNodes
	h := fnv.New64a()
	var word [4]byte
	for w := 0; w < words; w++ {
		b, _, err := c.Span(reader, reader, w*4, 4, vm.Read)
		if err != nil {
			return res, err
		}
		bits := math.Float32bits(memlayout.ViewF32(b).Get(0))
		word[0] = byte(bits)
		word[1] = byte(bits >> 8)
		word[2] = byte(bits >> 16)
		word[3] = byte(bits >> 24)
		_, _ = h.Write(word[:])
	}
	if err := c.CheckCoherence(); err != nil {
		return res, fmt.Errorf("failover leg coherence: %w", err)
	}

	s := c.Stats().Snapshot()
	return FailoverLeg{
		Digest:          fmt.Sprintf("%016x", h.Sum64()),
		Calls:           calls.Load(),
		Crashes:         s.Crashes,
		Rejoins:         s.Rejoins,
		Failovers:       s.Failovers,
		ReplicaDeltas:   s.ReplicaDeltas,
		ReplicaBytes:    s.ReplicaBytes,
		RecoveryFetches: s.RecoveryFetches,
		RecoveryRounds:  s.RecoveryRounds,
	}, nil
}

// FormatFailoverReport renders the comparison for the actbench section.
func FormatFailoverReport(r FailoverReport) string {
	var b strings.Builder
	fmt.Fprintf(&b, "crash recovery, %d nodes, victim %d (%d+%d rounds):\n",
		r.Nodes, r.Victim, r.PreRounds, r.PostRounds)
	fmt.Fprintf(&b, "%-9s %18s %8s %8s %8s %10s %9s %9s\n",
		"leg", "digest", "calls", "crashes", "rejoins", "failovers", "recfetch", "replicas")
	row := func(name string, l FailoverLeg) {
		fmt.Fprintf(&b, "%-9s %18s %8d %8d %8d %10d %9d %9d\n",
			name, l.Digest, l.Calls, l.Crashes, l.Rejoins, l.Failovers,
			l.RecoveryFetches, l.ReplicaDeltas)
	}
	row("clean", r.Clean)
	row("crash", r.Crash)
	row("restart", r.Restart)
	fmt.Fprintf(&b, "extra calls: crash %+d, restart %+d\n",
		r.ExtraCallsCrash, r.ExtraCallsRestart)
	if r.Clean.Digest == r.Crash.Digest && r.Clean.Digest == r.Restart.Digest {
		fmt.Fprintf(&b, "digests identical: the crash is invisible to the surviving computation\n")
	} else {
		fmt.Fprintf(&b, "DIGEST MISMATCH: crash-run memory diverged from the fault-free run\n")
	}
	return b.String()
}

// CompareFailoverReports validates a fresh report against the committed
// baseline. The legs are deterministic, so the gate is strict: the three
// fresh digests must agree with each other (the fault-tolerance claim
// itself), the crash legs must actually exercise the machinery (a crash
// detected, a rejoin completed, failovers and recovery fetches
// performed), and the digests and call counts must equal the committed
// ones — a silent protocol change must regenerate the baseline
// deliberately.
func CompareFailoverReports(baseline, current []byte) (string, error) {
	var base, cur FailoverReport
	if err := json.Unmarshal(baseline, &base); err != nil {
		return "", fmt.Errorf("baseline: %w", err)
	}
	if err := json.Unmarshal(current, &cur); err != nil {
		return "", fmt.Errorf("current: %w", err)
	}
	var b strings.Builder
	fmt.Fprintf(&b, "digest: clean %s, crash %s, restart %s\n",
		cur.Clean.Digest, cur.Crash.Digest, cur.Restart.Digest)
	fmt.Fprintf(&b, "extra calls: crash %+d (baseline %+d), restart %+d (baseline %+d)\n",
		cur.ExtraCallsCrash, base.ExtraCallsCrash,
		cur.ExtraCallsRestart, base.ExtraCallsRestart)
	var failures []string
	if cur.Clean.Digest != cur.Crash.Digest || cur.Clean.Digest != cur.Restart.Digest {
		failures = append(failures,
			"leg digests diverge: a crashed run no longer reproduces the fault-free memory image")
	}
	if cur.Clean.Crashes != 0 || cur.Clean.Failovers != 0 {
		failures = append(failures, fmt.Sprintf(
			"clean leg reports %d crashes / %d failovers, want none (harness drift?)",
			cur.Clean.Crashes, cur.Clean.Failovers))
	}
	if cur.Crash.Crashes != 1 || cur.Crash.Failovers == 0 {
		failures = append(failures, fmt.Sprintf(
			"crash leg reports %d crashes / %d failovers, want exactly 1 crash and some failovers",
			cur.Crash.Crashes, cur.Crash.Failovers))
	}
	if cur.Restart.Rejoins != 1 || cur.Restart.RecoveryFetches == 0 {
		failures = append(failures, fmt.Sprintf(
			"restart leg reports %d rejoins / %d recovery fetches, want exactly 1 rejoin with re-fetches",
			cur.Restart.Rejoins, cur.Restart.RecoveryFetches))
	}
	if cur.Clean.ReplicaDeltas == 0 {
		failures = append(failures,
			"clean leg shipped no replica deltas: ring replication is not running")
	}
	if cur.Clean.Digest != base.Clean.Digest {
		failures = append(failures, fmt.Sprintf(
			"final digest %s differs from committed %s; regenerate BENCH_failover.json if intended",
			cur.Clean.Digest, base.Clean.Digest))
	}
	if cur.Clean.Calls != base.Clean.Calls ||
		cur.Crash.Calls != base.Crash.Calls ||
		cur.Restart.Calls != base.Restart.Calls {
		failures = append(failures, fmt.Sprintf(
			"call counts %d/%d/%d differ from committed %d/%d/%d; regenerate BENCH_failover.json if intended",
			cur.Clean.Calls, cur.Crash.Calls, cur.Restart.Calls,
			base.Clean.Calls, base.Crash.Calls, base.Restart.Calls))
	}
	if len(failures) > 0 {
		return b.String(), fmt.Errorf("failover benchmark regression:\n  %s",
			strings.Join(failures, "\n  "))
	}
	return b.String(), nil
}
