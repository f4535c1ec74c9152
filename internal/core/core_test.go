package core

import (
	"strings"
	"testing"
	"testing/quick"

	"actdsm/internal/dsm"
	"actdsm/internal/memlayout"
	"actdsm/internal/threads"
	"actdsm/internal/vm"
)

func TestMatrixBasics(t *testing.T) {
	m := NewMatrix(3)
	m.Set(0, 1, 5)
	m.Add(1, 2, 3)
	m.Add(1, 2, 1)
	if m.At(0, 1) != 5 || m.At(1, 0) != 5 {
		t.Fatal("Set not symmetric")
	}
	if m.At(1, 2) != 4 || m.At(2, 1) != 4 {
		t.Fatal("Add not symmetric")
	}
	if m.Max() != 5 {
		t.Fatalf("Max = %d", m.Max())
	}
	c := m.Clone()
	c.Set(0, 1, 99)
	if m.At(0, 1) != 5 {
		t.Fatal("Clone shares storage")
	}
	if m.N() != 3 {
		t.Fatalf("N = %d", m.N())
	}
}

func TestMatrixDiagonalNotInMax(t *testing.T) {
	m := NewMatrix(2)
	m.Set(0, 0, 100)
	m.Set(0, 1, 7)
	if m.Max() != 7 {
		t.Fatalf("Max = %d, want 7 (diagonal excluded)", m.Max())
	}
}

func TestFromBitmaps(t *testing.T) {
	a, b, c := vm.NewBitmap(64), vm.NewBitmap(64), vm.NewBitmap(64)
	for i := 0; i < 10; i++ {
		a.Set(vm.PageID(i))
	}
	for i := 5; i < 15; i++ {
		b.Set(vm.PageID(i))
	}
	c.Set(63)
	m := FromBitmaps([]*vm.Bitmap{a, b, c})
	if m.At(0, 1) != 5 {
		t.Fatalf("corr(0,1) = %d, want 5", m.At(0, 1))
	}
	if m.At(0, 2) != 0 || m.At(1, 2) != 0 {
		t.Fatal("expected zero correlation with c")
	}
	if m.At(0, 0) != 10 {
		t.Fatalf("self correlation = %d, want 10", m.At(0, 0))
	}
}

func TestCutCostProperties(t *testing.T) {
	check := func(vals []uint8, seed uint8) bool {
		n := 6
		m := NewMatrix(n)
		k := 0
		for i := 0; i < n; i++ {
			for j := i + 1; j < n; j++ {
				v := int64(0)
				if k < len(vals) {
					v = int64(vals[k])
				}
				m.Set(i, j, v)
				k++
			}
		}
		allSame := make([]int, n) // everyone on node 0
		if m.CutCost(allSame) != 0 {
			return false
		}
		allDiff := []int{0, 1, 2, 3, 4, 5}
		if m.CutCost(allDiff) != m.TotalSharing() {
			return false
		}
		// Any assignment's cut is between those extremes.
		some := []int{0, 1, 0, 1, 0, 1}
		cc := m.CutCost(some)
		if cc < 0 || cc > m.TotalSharing() {
			return false
		}
		// FreeSharing complements the cut fraction.
		fs := m.FreeSharing(some)
		return fs >= 0 && fs <= 1
	}
	if err := quick.Check(check, nil); err != nil {
		t.Fatal(err)
	}
}

func TestValidateAssignment(t *testing.T) {
	if err := ValidateAssignment([]int{0, 1}, 2, 2); err != nil {
		t.Fatal(err)
	}
	if err := ValidateAssignment([]int{0}, 2, 2); err == nil {
		t.Fatal("expected length error")
	}
	if err := ValidateAssignment([]int{0, 5}, 2, 2); err == nil {
		t.Fatal("expected range error")
	}
}

func TestRenderASCIIOrientation(t *testing.T) {
	m := NewMatrix(3)
	m.Set(2, 2, 1)
	m.Set(0, 1, 9) // strongest off-diagonal pair
	s := m.RenderASCII()
	lines := strings.Split(strings.TrimRight(s, "\n"), "\n")
	if len(lines) != 3 {
		t.Fatalf("lines = %d", len(lines))
	}
	for _, l := range lines {
		if len(l) != 3 {
			t.Fatalf("row width = %d", len(l))
		}
	}
	// Row 0 is printed last (origin lower-left): cell (0,1) must be the
	// darkest glyph.
	if lines[2][1] != '@' {
		t.Fatalf("cell (0,1) = %q, want '@'\n%s", lines[2][1], s)
	}
	if lines[2][2] != ' ' {
		t.Fatalf("cell (0,2) = %q, want blank", lines[2][2])
	}
}

func TestRenderPGM(t *testing.T) {
	m := NewMatrix(2)
	m.Set(0, 1, 10)
	s := m.RenderPGM()
	if !strings.HasPrefix(s, "P2\n2 2\n255\n") {
		t.Fatalf("bad header: %q", s)
	}
	// Dark (0) where correlation is max, white (255) elsewhere... the
	// diagonal is 0 so white.
	// Row 1 prints first (lower-left origin): its cell (1,0) has the
	// max correlation → black (0); diagonals are empty → white (255).
	lines := strings.Split(strings.TrimRight(s, "\n"), "\n")
	if lines[3] != "0 255" || lines[4] != "255 0" {
		t.Fatalf("pixels = %v", lines[3:])
	}
}

func TestFreeZoneOverlay(t *testing.T) {
	m := NewMatrix(4)
	m.Set(0, 1, 5)
	m.Set(2, 3, 5)
	m.Set(0, 3, 5)
	s := m.FreeZoneOverlay([]int{0, 0, 1, 1})
	lines := strings.Split(strings.TrimRight(s, "\n"), "\n")
	// Pair (0,1) same node and sharing → 'O'; pair (0,3) cross-node →
	// plain shade '@'; pair (0,2) same... 0 on node0, 2 on node1 → no
	// sharing, cross node → ' '.
	row0 := lines[3]
	if row0[1] != 'O' {
		t.Fatalf("cell (0,1) = %q, want 'O'\n%s", row0[1], s)
	}
	if row0[3] != '@' {
		t.Fatalf("cell (0,3) = %q, want '@'", row0[3])
	}
	if row0[2] != ' ' {
		t.Fatalf("cell (0,2) = %q, want ' '", row0[2])
	}
	if row0[0] != 'O' && row0[0] != '(' {
		t.Fatalf("diagonal cell = %q", row0[0])
	}
}

// ringBody returns a body where each thread writes its own page and reads
// its right neighbour's page every iteration: a nearest-neighbour ring
// with a known correlation structure.
func ringBody(iters, nthreads int) func(tid int) threads.Body {
	return func(tid int) threads.Body {
		return func(ctx *threads.Ctx) error {
			for it := 0; it < iters; it++ {
				own, err := ctx.Span(tid*memlayout.PageSize, 8, vm.Write)
				if err != nil {
					return err
				}
				memlayout.ViewF32(own).Set(0, float32(it))
				right := (tid + 1) % nthreads
				if _, err := ctx.Span(right*memlayout.PageSize, 8, vm.Read); err != nil {
					return err
				}
				ctx.Compute(16)
				ctx.EndIteration()
			}
			return nil
		}
	}
}

func runTracked(t *testing.T, nodes, nthreads, iters, trackIter int) (*ActiveTracker, *threads.Engine) {
	t.Helper()
	cl, err := dsm.New(dsm.Config{Nodes: nodes, Pages: nthreads})
	if err != nil {
		t.Fatal(err)
	}
	t.Cleanup(func() { _ = cl.Close() })
	e, err := threads.NewEngine(cl, threads.Config{Threads: nthreads})
	if err != nil {
		t.Fatal(err)
	}
	tr := NewActiveTracker(e, trackIter)
	e.SetHooks(tr.Hooks(threads.Hooks{}))
	tr.Start()
	if err := e.Run(ringBody(iters, nthreads)); err != nil {
		t.Fatal(err)
	}
	return tr, e
}

func TestActiveTrackerRingPattern(t *testing.T) {
	tr, e := runTracked(t, 2, 8, 3, 1)
	if !tr.Done() {
		t.Fatal("tracker not done")
	}
	if !e.SchedulerEnabled() {
		t.Fatal("scheduler not restored after tracking")
	}
	bm := tr.Bitmaps()
	for tid := 0; tid < 8; tid++ {
		want := map[vm.PageID]bool{
			vm.PageID(tid):           true,
			vm.PageID((tid + 1) % 8): true,
		}
		if bm[tid].Count() != 2 {
			t.Fatalf("thread %d touched %d pages: %v", tid, bm[tid].Count(), bm[tid].Pages())
		}
		for _, p := range bm[tid].Pages() {
			if !want[p] {
				t.Fatalf("thread %d touched unexpected page %d", tid, p)
			}
		}
	}
	m := tr.Matrix()
	// Ring: corr(i, i+1) = 1 (i's own page is read by i-1; i reads
	// i+1's page) — each adjacent pair shares exactly one page.
	for i := 0; i < 8; i++ {
		j := (i + 1) % 8
		if m.At(i, j) != 1 {
			t.Fatalf("corr(%d,%d) = %d, want 1\n%s", i, j, m.At(i, j), m.RenderASCII())
		}
	}
	if m.At(0, 4) != 0 {
		t.Fatalf("corr(0,4) = %d, want 0", m.At(0, 4))
	}
	if tr.TrackingFaults() != 16 {
		t.Fatalf("TrackingFaults = %d, want 16", tr.TrackingFaults())
	}
	// Sharing degree: pages inside a node's block are touched by 2
	// local threads except at block edges.
	sd := tr.SharingDegree()
	if sd < 1.0 || sd > 2.0 {
		t.Fatalf("SharingDegree = %v", sd)
	}
}

func TestActiveTrackerIterationZero(t *testing.T) {
	tr, _ := runTracked(t, 2, 4, 2, 0)
	if !tr.Done() {
		t.Fatal("tracking iteration 0 did not complete")
	}
	if tr.TrackingFaults() == 0 {
		t.Fatal("no tracking faults recorded")
	}
}

func TestActiveTrackerCompleteDespiteSharing(t *testing.T) {
	// The whole point of active tracking (paper §4.2): local threads'
	// accesses to already-valid pages are still observed. All threads
	// read page 0; passive tracking would see only one of them.
	cl, err := dsm.New(dsm.Config{Nodes: 2, Pages: 2})
	if err != nil {
		t.Fatal(err)
	}
	defer func() { _ = cl.Close() }()
	e, err := threads.NewEngine(cl, threads.Config{Threads: 4})
	if err != nil {
		t.Fatal(err)
	}
	tr := NewActiveTracker(e, 0)
	e.SetHooks(tr.Hooks(threads.Hooks{}))
	tr.Start()
	err = e.Run(func(tid int) threads.Body {
		return func(ctx *threads.Ctx) error {
			if _, err := ctx.Span(0, 8, vm.Read); err != nil {
				return err
			}
			ctx.EndIteration()
			return nil
		}
	})
	if err != nil {
		t.Fatal(err)
	}
	for tid := 0; tid < 4; tid++ {
		if !tr.Bitmaps()[tid].Get(0) {
			t.Fatalf("thread %d's access to page 0 not tracked", tid)
		}
	}
	m := tr.Matrix()
	if m.At(0, 1) != 1 || m.At(2, 3) != 1 || m.At(0, 3) != 1 {
		t.Fatalf("all-pairs correlation missing:\n%s", m.RenderASCII())
	}
}

func TestPassiveTrackerPartialInformation(t *testing.T) {
	// Same all-read-page-0 workload: passive tracking sees only the
	// first faulting thread per node, so completeness < 1.
	cl, err := dsm.New(dsm.Config{Nodes: 2, Pages: 2})
	if err != nil {
		t.Fatal(err)
	}
	defer func() { _ = cl.Close() }()
	e, err := threads.NewEngine(cl, threads.Config{Threads: 4})
	if err != nil {
		t.Fatal(err)
	}
	pt := NewPassiveTracker(e)
	err = e.Run(func(tid int) threads.Body {
		return func(ctx *threads.Ctx) error {
			if _, err := ctx.Span(0, 8, vm.Read); err != nil {
				return err
			}
			ctx.EndIteration()
			return nil
		}
	})
	if err != nil {
		t.Fatal(err)
	}
	// Reference: every thread touches page 0.
	ref := make([]*vm.Bitmap, 4)
	for i := range ref {
		ref[i] = vm.NewBitmap(2)
		ref[i].Set(0)
	}
	comp := pt.Completeness(ref)
	if comp >= 1 {
		t.Fatalf("passive completeness = %v, want < 1", comp)
	}
	if comp <= 0 {
		t.Fatalf("passive completeness = %v, want > 0 (node 1's first fault)", comp)
	}
	// Page 0's manager is node 0, whose threads never fault remotely —
	// only a node-1 thread shows up.
	var observed int
	for tid := 0; tid < 4; tid++ {
		if pt.Bitmaps()[tid].Get(0) {
			observed++
			if n := e.NodeOf(tid); n != 1 {
				t.Fatalf("unexpected observation from node %d", n)
			}
		}
	}
	if observed != 1 {
		t.Fatalf("observed %d threads, want exactly 1", observed)
	}
}

func TestPassiveTrackerDisable(t *testing.T) {
	cl, err := dsm.New(dsm.Config{Nodes: 2, Pages: 2})
	if err != nil {
		t.Fatal(err)
	}
	defer func() { _ = cl.Close() }()
	e, err := threads.NewEngine(cl, threads.Config{Threads: 2})
	if err != nil {
		t.Fatal(err)
	}
	pt := NewPassiveTracker(e)
	pt.SetEnabled(false)
	err = e.Run(func(tid int) threads.Body {
		return func(ctx *threads.Ctx) error {
			_, err := ctx.Span(memlayout.PageSize, 4, vm.Read)
			ctx.EndIteration()
			return err
		}
	})
	if err != nil {
		t.Fatal(err)
	}
	for i := range pt.Bitmaps() {
		if pt.Bitmaps()[i].Count() != 0 {
			t.Fatal("disabled tracker recorded accesses")
		}
	}
}

func TestMatrixDistance(t *testing.T) {
	a := NewMatrix(3)
	a.Set(0, 1, 10)
	a.Set(1, 2, 10)
	same := a.Clone()
	if d := a.Distance(same); d != 0 {
		t.Fatalf("identical distance = %v", d)
	}
	disjoint := NewMatrix(3)
	disjoint.Set(0, 2, 20)
	if d := a.Distance(disjoint); d != 1 {
		t.Fatalf("disjoint distance = %v", d)
	}
	half := a.Clone()
	half.Set(1, 2, 0)
	if d := a.Distance(half); d != 0.5 {
		t.Fatalf("half distance = %v", d)
	}
	// Different sizes and empty matrices.
	if d := a.Distance(NewMatrix(4)); d != 1 {
		t.Fatalf("size-mismatch distance = %v", d)
	}
	e := NewMatrix(3)
	if d := e.Distance(NewMatrix(3)); d != 0 {
		t.Fatalf("empty distance = %v", d)
	}
}

func TestMatrixDistanceSymmetricBounded(t *testing.T) {
	check := func(xs, ys []uint8) bool {
		a, b := NewMatrix(5), NewMatrix(5)
		k := 0
		for i := 0; i < 5; i++ {
			for j := i + 1; j < 5; j++ {
				if k < len(xs) {
					a.Set(i, j, int64(xs[k]))
				}
				if k < len(ys) {
					b.Set(i, j, int64(ys[k]))
				}
				k++
			}
		}
		dab, dba := a.Distance(b), b.Distance(a)
		return dab == dba && dab >= 0 && dab <= 1
	}
	if err := quick.Check(check, nil); err != nil {
		t.Fatal(err)
	}
}

func TestActiveTrackerRetrack(t *testing.T) {
	// Track iteration 1, then re-track iteration 3 of a workload whose
	// sharing pattern changes between them: the two matrices must
	// reflect the change (nonzero Distance).
	cl, err := dsm.New(dsm.Config{Nodes: 2, Pages: 8})
	if err != nil {
		t.Fatal(err)
	}
	defer func() { _ = cl.Close() }()
	e, err := threads.NewEngine(cl, threads.Config{Threads: 4})
	if err != nil {
		t.Fatal(err)
	}
	tr := NewActiveTracker(e, 1)
	var first *Matrix
	var dist float64
	e.SetHooks(tr.Hooks(threads.Hooks{OnIteration: func(iter int) {
		if iter == 1 {
			first = tr.Matrix()
			if err := tr.Retrack(3); err != nil {
				t.Errorf("retrack: %v", err)
			}
		}
		if iter == 3 {
			dist = first.Distance(tr.Matrix())
		}
	}}))
	err = e.Run(func(tid int) threads.Body {
		return func(ctx *threads.Ctx) error {
			for iter := 0; iter < 5; iter++ {
				// Phase 0-2: read right neighbour; phase 3+: read
				// the thread two over (pattern drift).
				stride := 1
				if iter >= 3 {
					stride = 2
				}
				own := tid * memlayout.PageSize
				if _, err := ctx.Span(own, 8, vm.Write); err != nil {
					return err
				}
				peer := ((tid + stride) % 4) * memlayout.PageSize
				if _, err := ctx.Span(peer, 8, vm.Read); err != nil {
					return err
				}
				ctx.EndIteration()
			}
			return nil
		}
	})
	if err != nil {
		t.Fatal(err)
	}
	if !tr.Done() {
		t.Fatal("second tracking phase incomplete")
	}
	if first == nil {
		t.Fatal("first matrix never captured")
	}
	if dist == 0 {
		t.Fatalf("drift not detected: distance = %v", dist)
	}
	// Error paths.
	if err := tr.Retrack(1); err == nil {
		t.Fatal("expected error for past iteration")
	}
}
