package serve

import (
	"strings"
	"testing"

	"actdsm/internal/dsm"
	"actdsm/internal/pool"
	"actdsm/internal/sim"
	"actdsm/internal/vm"
)

func TestConfigDefaults(t *testing.T) {
	kv, err := NewKV(Config{})
	if err != nil {
		t.Fatalf("NewKV(zero): %v", err)
	}
	c := kv.Config()
	if c.Clients != 8 || c.Keys != 256 || c.ValueBytes != 64 {
		t.Errorf("size defaults: %+v", c)
	}
	if c.ReadFraction != 0.9 || c.ZipfS != 1.1 {
		t.Errorf("mix defaults: %+v", c)
	}
	if c.RequestsPerWindow != 64 || c.WarmupWindows != 1 || c.Seed != 1 {
		t.Errorf("window defaults: %+v", c)
	}
	if c.LockStripes != 256 {
		t.Errorf("LockStripes = %d, want Keys (256)", c.LockStripes)
	}
	if c.SharedFraction != 0 {
		t.Errorf("SharedFraction defaulted to %v without groups", c.SharedFraction)
	}
	if g, err := NewKV(Config{Groups: 4}); err != nil {
		t.Fatalf("NewKV(groups): %v", err)
	} else if g.Config().SharedFraction != 0.1 {
		t.Errorf("grouped SharedFraction = %v, want 0.1", g.Config().SharedFraction)
	}
}

func TestConfigValidate(t *testing.T) {
	bad := []Config{
		{Clients: -1},
		{ReadFraction: 1.5},
		{Groups: 2, SharedFraction: -0.1},
		{Groups: 300, Keys: 256}, // empty groups
	}
	for i, c := range bad {
		if _, err := NewKV(c); err == nil {
			t.Errorf("config %d (%+v) accepted, want error", i, c)
		}
	}
}

func TestZipfSkew(t *testing.T) {
	z := newZipfTable(100, 1.1)
	rng := sim.NewRNG(42)
	counts := make([]int, 100)
	for i := 0; i < 20000; i++ {
		counts[z.sample(rng)]++
	}
	if counts[0] <= counts[50] || counts[0] <= counts[99] {
		t.Errorf("zipf not skewed: rank0=%d rank50=%d rank99=%d",
			counts[0], counts[50], counts[99])
	}
	// Rank 0 carries weight 1 out of a harmonic-like total ≈ 5.4, so it
	// should absorb well over 10% of draws.
	if counts[0] < 2000 {
		t.Errorf("rank0 drew only %d/20000", counts[0])
	}
}

func TestZipfUniform(t *testing.T) {
	z := newZipfTable(16, 0)
	rng := sim.NewRNG(7)
	counts := make([]int, 16)
	for i := 0; i < 16000; i++ {
		counts[z.sample(rng)]++
	}
	for r, n := range counts {
		if n < 500 || n > 1500 {
			t.Errorf("uniform rank %d drew %d/16000, want ~1000", r, n)
		}
	}
}

func TestLatencyBuckets(t *testing.T) {
	cases := []struct {
		d sim.Time
		b int
	}{
		{0, 0},
		{sim.Microsecond - 1, 0},
		{sim.Microsecond, 0},
		{2 * sim.Microsecond, 1},
		{4*sim.Microsecond - 1, 1},
		{4 * sim.Microsecond, 2},
		{sim.Second, 19},
		{100 * sim.Second, LatencyBuckets - 1},
	}
	for _, c := range cases {
		if got := latencyBucket(c.d); got != c.b {
			t.Errorf("latencyBucket(%v) = %d, want %d", c.d, got, c.b)
		}
	}
	for b := 1; b < LatencyBuckets; b++ {
		if latencyBucket(BucketBound(b)) != b {
			t.Errorf("BucketBound(%d) = %v lands in bucket %d", b, BucketBound(b), latencyBucket(BucketBound(b)))
		}
	}
}

func TestMeasuredWindows(t *testing.T) {
	kv, err := NewKV(Config{WarmupWindows: 2, MeasureWindows: 3})
	if err != nil {
		t.Fatal(err)
	}
	for w, want := range []bool{false, false, true, true, true, false} {
		if kv.measured(w) != want {
			t.Errorf("bounded measured(%d) = %v, want %v", w, kv.measured(w), want)
		}
	}
	open, err := NewKV(Config{WarmupWindows: 2})
	if err != nil {
		t.Fatal(err)
	}
	if open.measured(1) || !open.measured(2) || !open.measured(100) {
		t.Error("open-ended measurement window wrong")
	}
}

func TestSampleKeyGroupLocality(t *testing.T) {
	kv, err := NewKV(Config{Clients: 8, Keys: 256, Groups: 4})
	if err != nil {
		t.Fatal(err)
	}
	rng := sim.NewRNG(99)
	const draws = 10000
	inBlock := 0
	for i := 0; i < draws; i++ {
		k := kv.sampleKey(rng, 1) // group 1 owns keys [64, 128)
		if k < 0 || k >= 256 {
			t.Fatalf("sampled key %d outside key space", k)
		}
		if k >= 64 && k < 128 {
			inBlock++
		}
	}
	// SharedFraction defaults to 0.1, so ~90% of draws stay group-local
	// (plus the global stream's occasional hits inside the block).
	if inBlock < draws*8/10 {
		t.Errorf("only %d/%d draws group-local", inBlock, draws)
	}
}

func TestReportBeforeRun(t *testing.T) {
	kv, err := NewKV(Config{})
	if err != nil {
		t.Fatal(err)
	}
	if _, err := kv.Report(); err == nil {
		t.Fatal("Report before any run succeeded, want error")
	} else if !strings.Contains(err.Error(), "no measured window") {
		t.Errorf("unexpected error: %v", err)
	}
}

// TestWindowEndZeroAllocs: a measured window's end snapshots the
// cluster's counters into the span's kept end snapshot, so once warm it
// allocates nothing, and Report still reads the span from the window the
// span opened at to the last window closed.
func TestWindowEndZeroAllocs(t *testing.T) {
	if pool.Race {
		t.Skip("allocation counts are meaningless under the race detector")
	}
	kv, err := NewKV(Config{WarmupWindows: 1})
	if err != nil {
		t.Fatal(err)
	}
	c, err := dsm.New(dsm.Config{Nodes: 2, Pages: 1, GCThresholdBytes: -1})
	if err != nil {
		t.Fatal(err)
	}
	t.Cleanup(func() { _ = c.Close() })
	miss := func(i int) { // node 1 writes, node 0 misses on the page
		b, _, err := c.Span(1, 1, 0, 4, vm.Write)
		if err != nil {
			t.Fatal(err)
		}
		b[0] = byte(i)
		if _, err := c.Barrier(); err != nil {
			t.Fatal(err)
		}
		if _, _, err := c.Span(0, 0, 0, 4, vm.Read); err != nil {
			t.Fatal(err)
		}
	}
	miss(1)
	var now sim.Time
	elapsed := func() sim.Time { return now }
	snapshot := c.Stats().SnapshotTo
	w := 0
	end := func() {
		now += sim.Millisecond
		kv.windowEnd(w, elapsed, snapshot)
		w++
	}
	end() // window 0, the warmup, opens the span
	miss(2)
	end() // window 1 closes it, growing the end snapshot's lists
	if allocs := testing.AllocsPerRun(100, end); allocs != 0 {
		t.Errorf("measured window end: %v allocs/op, want 0", allocs)
	}
	rep, err := kv.Report()
	if err != nil {
		t.Fatal(err)
	}
	if rep.Windows != w-1 || rep.RemoteMisses != 1 || rep.Elapsed != sim.Time(w-1)*sim.Millisecond {
		t.Errorf("report: %d windows, %d remote misses over %v; want %d, 1, %v",
			rep.Windows, rep.RemoteMisses, rep.Elapsed, w-1, sim.Time(w-1)*sim.Millisecond)
	}
}
