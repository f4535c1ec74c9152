package check

// Unit tests for the oracle's reference model: synthetic probe event
// sequences that exercise each invariant in isolation, without a
// cluster. These pin the oracle's behaviour so the integration sweeps
// (explore_test.go) can trust it.

import (
	"strings"
	"testing"

	"actdsm/internal/dsm"
	"actdsm/internal/msg"
)

// nt builds a notice.
func nt(page, writer, interval, lam int32) msg.Notice {
	return msg.Notice{Page: page, Writer: writer, Interval: interval, Lam: lam}
}

// close1 registers one single-notice interval close.
func close1(o *Oracle, node int, n msg.Notice) {
	o.intervalClosed(node, []msg.Notice{n})
}

func wantViolation(t *testing.T, o *Oracle, invariant string) {
	t.Helper()
	for _, v := range o.Violations() {
		if v.Invariant == invariant {
			return
		}
	}
	t.Fatalf("expected a %q violation, got %v", invariant, o.Violations())
}

func wantClean(t *testing.T, o *Oracle) {
	t.Helper()
	if vs := o.Violations(); len(vs) != 0 {
		t.Fatalf("expected no violations, got %v", vs)
	}
}

func TestOracleMonotoneInterval(t *testing.T) {
	o := NewOracle(2)
	close1(o, 0, nt(0, 0, 1, 1))
	close1(o, 0, nt(0, 0, 3, 2)) // skipped interval 2
	wantViolation(t, o, "monotone-interval")
}

func TestOracleMonotoneLamport(t *testing.T) {
	o := NewOracle(2)
	close1(o, 0, nt(0, 0, 1, 5))
	close1(o, 0, nt(0, 0, 2, 5)) // Lamport did not advance
	wantViolation(t, o, "monotone-lamport")
}

func TestOracleCleanLifecycle(t *testing.T) {
	o := NewOracle(2)
	close1(o, 0, nt(0, 0, 1, 1))
	o.barrierReleased(0, 0)
	o.barrierReleased(1, 0)
	o.noticesDelivered(1, dsm.ViaBarrier, []msg.Notice{nt(0, 0, 1, 1)})
	o.diffApplied(1, dsm.ApplyDemand, nt(0, 0, 1, 1))
	o.pageRead(1, 0)
	wantClean(t, o)
	d, _, _, _ := o.Counts()
	if d != 1 {
		t.Fatalf("demand validations = %d, want 1", d)
	}
}

func TestOracleDoubleApply(t *testing.T) {
	o := NewOracle(2)
	close1(o, 0, nt(0, 0, 1, 1))
	o.barrierReleased(1, 0)
	o.noticesDelivered(1, dsm.ViaBarrier, []msg.Notice{nt(0, 0, 1, 1)})
	o.diffApplied(1, dsm.ApplyDemand, nt(0, 0, 1, 1))
	wantClean(t, o)
	o.diffApplied(1, dsm.ApplyDemand, nt(0, 0, 1, 1))
	wantViolation(t, o, "double-apply")
}

func TestOracleDoubleApplyAfterFetch(t *testing.T) {
	// A diff already reflected by a full-page fetch must not be applied
	// again (the stale-notice filter's job).
	o := NewOracle(2)
	close1(o, 0, nt(0, 0, 1, 1))
	o.barrierReleased(1, 0)
	o.pageFetched(1, 0, dsm.ApplyDemand, []int32{1, 0}) // fetch already reflects writer 0 interval 1
	o.noticesDelivered(1, dsm.ViaBarrier, []msg.Notice{nt(0, 0, 1, 1)})
	o.diffApplied(1, dsm.ApplyDemand, nt(0, 0, 1, 1))
	wantViolation(t, o, "double-apply")
}

func TestOracleApplyGap(t *testing.T) {
	// Applying interval 2 while registered interval 1 is unreflected is
	// an ordering violation (it would write older data over newer on a
	// revert, or newer over missing context here).
	o := NewOracle(2)
	close1(o, 0, nt(0, 0, 1, 1))
	close1(o, 0, nt(0, 0, 2, 2))
	o.barrierReleased(1, 0)
	o.noticesDelivered(1, dsm.ViaBarrier, []msg.Notice{nt(0, 0, 1, 1), nt(0, 0, 2, 2)})
	o.diffApplied(1, dsm.ApplyDemand, nt(0, 0, 2, 2))
	wantViolation(t, o, "apply-gap")
}

func TestOracleApplyUnknown(t *testing.T) {
	o := NewOracle(2)
	o.diffApplied(1, dsm.ApplyDemand, nt(0, 0, 7, 7))
	wantViolation(t, o, "apply-unknown")
}

func TestOracleApplyUndelivered(t *testing.T) {
	o := NewOracle(2)
	close1(o, 0, nt(0, 0, 1, 1))
	o.barrierReleased(1, 0)
	o.diffApplied(1, dsm.ApplyDemand, nt(0, 0, 1, 1)) // never delivered to node 1
	wantViolation(t, o, "apply-undelivered")
}

func TestOracleApplyBeyondFront(t *testing.T) {
	// A demand apply of an interval the node has not been causally told
	// about (no barrier, no lock chain) is an early observation.
	o := NewOracle(2)
	close1(o, 0, nt(0, 0, 1, 1))
	o.noticesDelivered(1, dsm.ViaLockGrant, []msg.Notice{nt(0, 0, 1, 1)})
	o.diffApplied(1, dsm.ApplyDemand, nt(0, 0, 1, 1))
	wantViolation(t, o, "apply-beyond-front")
}

func TestOracleServerPathExemptFromFront(t *testing.T) {
	// The manager consolidating ahead of its own front is protocol-legal.
	o := NewOracle(2)
	close1(o, 0, nt(0, 0, 1, 1))
	o.noticesDelivered(1, dsm.ViaPageRequest, []msg.Notice{nt(0, 0, 1, 1)})
	o.diffApplied(1, dsm.ApplyServer, nt(0, 0, 1, 1))
	wantClean(t, o)
}

func TestOracleLostUpdateAtBarrier(t *testing.T) {
	// The barrier orders writer 0's interval before node 1's next read;
	// if the update never reaches node 1's copy the read loses it.
	o := NewOracle(2)
	close1(o, 0, nt(0, 0, 1, 1))
	o.barrierReleased(0, 0)
	o.barrierReleased(1, 0)
	o.pageRead(1, 0)
	wantViolation(t, o, "lost-update")
}

func TestOracleLostUpdateViaLockChain(t *testing.T) {
	// Transitivity: node 0 releases L0 after writing; node 1 acquires L0
	// (inheriting the front), then releases L1; node 2 acquires L1 — its
	// front now covers node 0's write through the chain. Reading without
	// the update is the lost update MutationNoTransitivity produces.
	o := NewOracle(3)
	close1(o, 0, nt(0, 0, 1, 1))
	o.lockReleased(0, 0)
	o.lockAcquired(1, 0)
	close1(o, 1, nt(1, 1, 1, 2))
	o.lockReleased(1, 1)
	o.lockAcquired(2, 1)
	o.pageRead(2, 0)
	wantViolation(t, o, "lost-update")
}

func TestOracleLockChainCleanWhenDelivered(t *testing.T) {
	o := NewOracle(3)
	close1(o, 0, nt(0, 0, 1, 1))
	o.lockReleased(0, 0)
	o.lockAcquired(1, 0)
	o.noticesDelivered(1, dsm.ViaLockGrant, []msg.Notice{nt(0, 0, 1, 1)})
	o.diffApplied(1, dsm.ApplyDemand, nt(0, 0, 1, 1))
	o.lockReleased(1, 1)
	o.lockAcquired(2, 1)
	o.noticesDelivered(2, dsm.ViaLockGrant, []msg.Notice{nt(0, 0, 1, 1)})
	o.diffApplied(2, dsm.ApplyDemand, nt(0, 0, 1, 1))
	o.pageRead(1, 0)
	o.pageRead(2, 0)
	wantClean(t, o)
}

func TestOraclePartialPushIsLostUpdate(t *testing.T) {
	// The event shape MutationPushPartialApply produces: two writers'
	// updates ordered before the barrier, the push applies only one and
	// the protocol drains the pending set anyway. The next read must
	// trip: the reader's front covers the unapplied writer too.
	o := NewOracle(3)
	close1(o, 0, nt(0, 0, 1, 1))
	close1(o, 1, nt(0, 1, 1, 1))
	for n := 0; n < 3; n++ {
		o.barrierReleased(n, 0)
	}
	o.noticesDelivered(2, dsm.ViaBarrier, []msg.Notice{nt(0, 0, 1, 1), nt(0, 1, 1, 1)})
	o.diffApplied(2, dsm.ApplyPush, nt(0, 0, 1, 1)) // writer 1's diff dropped
	o.pageRead(2, 0)
	wantViolation(t, o, "lost-update")
}

func TestOracleInvalidationResetsReplica(t *testing.T) {
	// After GC invalidates a replica, a fresh fetch and re-delivery of a
	// *new* interval is a fresh history, not a double apply.
	o := NewOracle(2)
	close1(o, 0, nt(0, 0, 1, 1))
	o.barrierReleased(0, 0)
	o.barrierReleased(1, 0)
	o.noticesDelivered(1, dsm.ViaBarrier, []msg.Notice{nt(0, 0, 1, 1)})
	o.diffApplied(1, dsm.ApplyDemand, nt(0, 0, 1, 1))
	o.pageInvalidated(1, 0)
	o.pageFetched(1, 0, dsm.ApplyDemand, []int32{1, 0})
	o.pageRead(1, 0)
	wantClean(t, o)
}

func TestOracleDuplicateDeliveryIsIdempotent(t *testing.T) {
	// Re-delivered notices (transport retries, re-run episodes) must
	// not confuse the model: one apply drains them.
	o := NewOracle(2)
	close1(o, 0, nt(0, 0, 1, 1))
	o.barrierReleased(0, 0)
	o.barrierReleased(1, 0)
	for i := 0; i < 3; i++ {
		o.noticesDelivered(1, dsm.ViaBarrier, []msg.Notice{nt(0, 0, 1, 1)})
	}
	o.diffApplied(1, dsm.ApplyDemand, nt(0, 0, 1, 1))
	o.pageRead(1, 0)
	wantClean(t, o)
	d, _, _, _ := o.Counts()
	if d != 1 {
		t.Fatalf("demand validations = %d, want 1", d)
	}
}

func TestOracleConservation(t *testing.T) {
	o := NewOracle(2)
	close1(o, 0, nt(0, 0, 1, 1))
	o.barrierReleased(0, 0)
	o.barrierReleased(1, 0)
	o.noticesDelivered(1, dsm.ViaBarrier, []msg.Notice{nt(0, 0, 1, 1)})
	o.diffApplied(1, dsm.ApplyDemand, nt(0, 0, 1, 1))
	// Matching snapshot: clean.
	if err := o.Finish(dsm.Snapshot{CounterSet: dsm.Counters{RemoteMisses: 1}}); err != nil {
		t.Fatalf("matching snapshot: %v", err)
	}
	// Mismatched snapshot: conservation trips.
	o2 := NewOracle(2)
	close1(o2, 0, nt(0, 0, 1, 1))
	o2.barrierReleased(1, 0)
	o2.noticesDelivered(1, dsm.ViaBarrier, []msg.Notice{nt(0, 0, 1, 1)})
	o2.diffApplied(1, dsm.ApplyDemand, nt(0, 0, 1, 1))
	err := o2.Finish(dsm.Snapshot{CounterSet: dsm.Counters{RemoteMisses: 2, PrefetchedPages: 1}})
	if err == nil || !strings.Contains(err.Error(), "conservation") {
		t.Fatalf("expected conservation violation, got %v", err)
	}
}

func TestOracleErrSummarizes(t *testing.T) {
	o := NewOracle(2)
	if err := o.Err(); err != nil {
		t.Fatalf("clean oracle: %v", err)
	}
	o.diffApplied(1, dsm.ApplyDemand, nt(0, 0, 9, 9))
	err := o.Err()
	if err == nil || !strings.Contains(err.Error(), "apply-unknown") {
		t.Fatalf("Err() = %v, want apply-unknown summary", err)
	}
}
