package dsm

import (
	"testing"

	"actdsm/internal/memlayout"
	"actdsm/internal/vm"
)

// The allocation gate (make alloc-gate): the engine-side access path's
// allocation counts, shaped like the benchmark ladder's dsm.span_warm,
// dsm.remote_miss and dsm.lock_handoff rungs so that a re-introduced
// escape fails a push instead of waiting for a benchmark run. Skipped
// under the race detector, whose instrumentation allocates.

// Ceilings are what the access path achieves (40 and 19) plus one for
// runtime noise (a sync.Pool refill after a GC cycle).
const (
	remoteMissAllocCeiling  = 41
	lockHandoffAllocCeiling = 20
)

func skipUnderRace(t *testing.T) {
	t.Helper()
	if raceEnabled {
		t.Skip("allocation counts are meaningless under the race detector")
	}
}

func mustSpan(t *testing.T, c *Cluster, node, tid, off, size int, a vm.Access) []byte {
	t.Helper()
	b, _, err := c.Span(node, tid, off, size, a)
	if err != nil {
		t.Fatal(err)
	}
	return b
}

func TestSpanWarmZeroAllocs(t *testing.T) {
	skipUnderRace(t)
	c := newTestCluster(t, 1, 4)
	mustSpan(t, c, 0, 0, 0, 4*memlayout.PageSize, vm.Write)
	for _, tc := range []struct {
		name  string
		pages int
		a     vm.Access
	}{
		{"read-1", 1, vm.Read}, {"read-4", 4, vm.Read},
		{"write-1", 1, vm.Write}, {"write-4", 4, vm.Write},
	} {
		var err error
		allocs := testing.AllocsPerRun(1000, func() {
			_, _, err = c.Span(0, 0, 0, tc.pages*memlayout.PageSize, tc.a)
		})
		if err != nil {
			t.Fatal(err)
		}
		if allocs != 0 {
			t.Errorf("warm %s span: %v allocs/op, want 0", tc.name, allocs)
		}
	}
}

// TestRemoteMissAllocCeiling is the dsm.remote_miss rung: node 1 writes,
// a barrier invalidates node 0, node 0 re-reads (one diff fetch).
func TestRemoteMissAllocCeiling(t *testing.T) {
	skipUnderRace(t)
	c, err := New(Config{Nodes: 2, Pages: 1, GCThresholdBytes: -1})
	if err != nil {
		t.Fatal(err)
	}
	t.Cleanup(func() { _ = c.Close() })
	i := 0
	allocs := testing.AllocsPerRun(2000, func() {
		i++
		mustSpan(t, c, 1, 8, 0, 4, vm.Write)[0] = byte(i)
		barrier(t, c)
		mustSpan(t, c, 0, 0, 0, 4, vm.Read)
	})
	t.Logf("remote miss (write, barrier, read): %v allocs/op", allocs)
	if allocs > remoteMissAllocCeiling {
		t.Errorf("remote miss: %v allocs/op, ceiling %d", allocs, remoteMissAllocCeiling)
	}
}

// TestLockHandoffAllocCeiling is the dsm.lock_handoff rung: two nodes
// alternate acquire, write, release on one lock, with a barrier every 256
// hand-offs bounding the notice history a release ships.
func TestLockHandoffAllocCeiling(t *testing.T) {
	skipUnderRace(t)
	c, err := New(Config{Nodes: 2, Pages: 1, GCThresholdBytes: -1})
	if err != nil {
		t.Fatal(err)
	}
	t.Cleanup(func() { _ = c.Close() })
	i := 0
	allocs := testing.AllocsPerRun(4096, func() {
		n := i & 1
		if _, err := c.AcquireLock(n, n, 1); err != nil {
			t.Fatal(err)
		}
		mustSpan(t, c, n, n, 0, 4, vm.Write)[0] = byte(i)
		if _, err := c.ReleaseLock(n, n, 1); err != nil {
			t.Fatal(err)
		}
		if i&255 == 255 {
			barrier(t, c)
		}
		i++
	})
	t.Logf("lock hand-off (acquire, write, release): %v allocs/op", allocs)
	if allocs > lockHandoffAllocCeiling {
		t.Errorf("lock hand-off: %v allocs/op, ceiling %d", allocs, lockHandoffAllocCeiling)
	}
}
