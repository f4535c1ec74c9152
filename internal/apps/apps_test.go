package apps

import (
	"go/ast"
	"go/parser"
	"go/token"
	"math"
	"math/cmplx"
	"path/filepath"
	"strings"
	"testing"

	"actdsm/internal/dsm"
	"actdsm/internal/memlayout"
	"actdsm/internal/threads"
)

// runApp builds the named app at test scale with verification enabled and
// runs it on a fresh cluster, failing the test on any error.
func runApp(t *testing.T, name string, nthreads, nodes int) {
	t.Helper()
	a, err := New(name, Config{Threads: nthreads, Verify: true, Scale: ScaleTest})
	if err != nil {
		t.Fatal(err)
	}
	l := memlayout.NewLayout()
	if err := a.Setup(l); err != nil {
		t.Fatal(err)
	}
	cl, err := dsm.New(dsm.Config{Nodes: nodes, Pages: l.TotalPages()})
	if err != nil {
		t.Fatal(err)
	}
	defer func() { _ = cl.Close() }()
	e, err := threads.NewEngine(cl, threads.Config{Threads: nthreads})
	if err != nil {
		t.Fatal(err)
	}
	if err := e.Run(a.Body); err != nil {
		t.Fatalf("%s: %v", name, err)
	}
	if e.Iteration() != a.Iterations() {
		t.Fatalf("%s: %d iterations ran, want %d", name, e.Iteration(), a.Iterations())
	}
	if cl.Stats().Snapshot().RemoteMisses == 0 {
		t.Fatalf("%s: no remote misses — not actually distributed?", name)
	}
}

func TestSORRuns(t *testing.T)     { runApp(t, "SOR", 8, 4) }
func TestLU1kRuns(t *testing.T)    { runApp(t, "LU1k", 8, 4) }
func TestLU2kRuns(t *testing.T)    { runApp(t, "LU2k", 8, 4) }
func TestFFT6Runs(t *testing.T)    { runApp(t, "FFT6", 8, 4) }
func TestFFT7Runs(t *testing.T)    { runApp(t, "FFT7", 8, 4) }
func TestFFT8Runs(t *testing.T)    { runApp(t, "FFT8", 8, 4) }
func TestOceanRuns(t *testing.T)   { runApp(t, "Ocean", 8, 4) }
func TestWaterRuns(t *testing.T)   { runApp(t, "Water", 8, 4) }
func TestSpatialRuns(t *testing.T) { runApp(t, "Spatial", 8, 4) }
func TestBarnesRuns(t *testing.T)  { runApp(t, "Barnes", 8, 4) }

func TestAppsOddThreadCounts(t *testing.T) {
	// The paper's 48-thread configurations exercise non-power-of-two
	// imbalance; 6 threads on 4 nodes is the test-scale analogue.
	for _, name := range []string{"SOR", "FFT6", "Water"} {
		runApp(t, name, 6, 4)
	}
}

func TestAppsSingleNode(t *testing.T) {
	// Everything must also run entirely local (no remote misses
	// required there, so bypass runApp).
	a, err := New("SOR", Config{Threads: 4, Verify: true})
	if err != nil {
		t.Fatal(err)
	}
	l := memlayout.NewLayout()
	if err := a.Setup(l); err != nil {
		t.Fatal(err)
	}
	cl, err := dsm.New(dsm.Config{Nodes: 1, Pages: l.TotalPages()})
	if err != nil {
		t.Fatal(err)
	}
	defer func() { _ = cl.Close() }()
	e, err := threads.NewEngine(cl, threads.Config{Threads: 4})
	if err != nil {
		t.Fatal(err)
	}
	if err := e.Run(a.Body); err != nil {
		t.Fatal(err)
	}
}

func TestNewValidation(t *testing.T) {
	if _, err := New("nope", Config{Threads: 4}); err == nil {
		t.Fatal("expected unknown-app error")
	}
	if _, err := New("SOR", Config{Threads: 0}); err == nil {
		t.Fatal("expected thread-count error")
	}
	if _, err := New("SOR", Config{Threads: 10000}); err == nil {
		t.Fatal("expected too-many-threads error")
	}
}

func TestNames(t *testing.T) {
	names := Names()
	want := []string{"Barnes", "FFT6", "FFT7", "FFT8", "LU1k", "LU2k", "Ocean", "SOR", "Spatial", "Water"}
	if len(names) != len(want) {
		t.Fatalf("Names = %v", names)
	}
	for i := range want {
		if names[i] != want[i] {
			t.Fatalf("Names = %v, want %v", names, want)
		}
	}
	if strings.Join(names, ",") == "" {
		t.Fatal("empty names")
	}
}

func TestBlockRange(t *testing.T) {
	cases := []struct {
		n, parts, idx    int
		wantStart, wantN int
	}{
		{10, 2, 0, 0, 5},
		{10, 2, 1, 5, 5},
		{10, 3, 0, 0, 4},
		{10, 3, 1, 4, 3},
		{10, 3, 2, 7, 3},
		{2, 4, 3, 2, 0},
	}
	for _, c := range cases {
		s, n := BlockRange(c.n, c.parts, c.idx)
		if s != c.wantStart || n != c.wantN {
			t.Fatalf("BlockRange(%d,%d,%d) = (%d,%d), want (%d,%d)",
				c.n, c.parts, c.idx, s, n, c.wantStart, c.wantN)
		}
	}
	// Coverage: blocks tile [0,n) exactly.
	for n := 1; n < 50; n++ {
		for parts := 1; parts <= 8; parts++ {
			pos := 0
			for idx := 0; idx < parts; idx++ {
				s, c := BlockRange(n, parts, idx)
				if s != pos {
					t.Fatalf("gap at n=%d parts=%d idx=%d", n, parts, idx)
				}
				pos += c
			}
			if pos != n {
				t.Fatalf("blocks cover %d of %d (parts=%d)", pos, n, parts)
			}
		}
	}
}

func TestThreadGrid(t *testing.T) {
	cases := []struct{ t, pr, pc int }{
		{64, 8, 8}, {48, 6, 8}, {32, 4, 8}, {1, 1, 1}, {7, 1, 7}, {12, 3, 4},
	}
	for _, c := range cases {
		pr, pc := threadGrid(c.t)
		if pr != c.pr || pc != c.pc {
			t.Fatalf("threadGrid(%d) = %d×%d, want %d×%d", c.t, pr, pc, c.pr, c.pc)
		}
	}
}

func TestFFTInPlaceMatchesDirectDFT(t *testing.T) {
	n := 16
	a := make([]complex128, n)
	for i := range a {
		a[i] = complex(float64(i%5)-2, float64(i%3)-1)
	}
	want := make([]complex128, n)
	for k := 0; k < n; k++ {
		for j := 0; j < n; j++ {
			ang := -2 * math.Pi * float64(j*k) / float64(n)
			want[k] += a[j] * cmplx.Exp(complex(0, ang))
		}
	}
	got := append([]complex128(nil), a...)
	fftInPlace(got, -1)
	for k := 0; k < n; k++ {
		if cmplx.Abs(got[k]-want[k]) > 1e-9 {
			t.Fatalf("X[%d] = %v, want %v", k, got[k], want[k])
		}
	}
	// Inverse round trip.
	fftInPlace(got, +1)
	for j := 0; j < n; j++ {
		if cmplx.Abs(got[j]/complex(float64(n), 0)-a[j]) > 1e-9 {
			t.Fatalf("inverse round-trip failed at %d", j)
		}
	}
}

func TestPairForceAntisymmetric(t *testing.T) {
	fx, fy, fz := pairForce(0, 0, 0, 1, 2, 3)
	gx, gy, gz := pairForce(1, 2, 3, 0, 0, 0)
	if fx != -gx || fy != -gy || fz != -gz {
		t.Fatalf("pair force not antisymmetric: (%v,%v,%v) vs (%v,%v,%v)", fx, fy, fz, gx, gy, gz)
	}
}

func TestSharedPagesPaperScale(t *testing.T) {
	// Table 1 comparison: our page counts should be the same order of
	// magnitude as the paper's. Exact matches aren't expected (region
	// padding, record-size approximations).
	paper := map[string]int{
		"Barnes": 251, "FFT6": 1796, "FFT7": 3588, "FFT8": 7172,
		"LU1k": 1032, "LU2k": 4105, "Ocean": 3191, "Spatial": 569,
		"SOR": 4099, "Water": 44,
	}
	for name, want := range paper {
		a, err := New(name, Config{Threads: 64, Scale: ScalePaper})
		if err != nil {
			t.Fatal(err)
		}
		got, err := SharedPages(a)
		if err != nil {
			t.Fatal(err)
		}
		lo, hi := want/4, want*4
		if got < lo || got > hi {
			t.Errorf("%s: %d shared pages, paper has %d (allowing 4x)", name, got, want)
		}
	}
}

func TestSpatialCellOf(t *testing.T) {
	s := &spatial{g: 4}
	if c := s.cellOf(0.5, 0.5, 0.5); c != 0 {
		t.Fatalf("cellOf origin = %d", c)
	}
	if c := s.cellOf(3.9, 3.9, 3.9); c != 63 {
		t.Fatalf("cellOf corner = %d", c)
	}
	// Wrapping.
	if c := s.cellOf(-0.1, 0, 0); c != s.cellOf(3.9, 0, 0) {
		t.Fatal("negative wrap broken")
	}
	if c := s.cellOf(4.0, 0, 0); c != 0 {
		t.Fatalf("overflow wrap = %d", c)
	}
}

func TestSpatialNeighbours(t *testing.T) {
	s := &spatial{g: 4}
	nb := s.neighbours(0)
	if len(nb) != 27 {
		t.Fatalf("neighbours = %d", len(nb))
	}
	seen := map[int]bool{}
	for _, c := range nb {
		if c < 0 || c >= 64 || seen[c] {
			t.Fatalf("bad neighbour set %v", nb)
		}
		seen[c] = true
	}
}

func TestOctantAndChildCenter(t *testing.T) {
	c := [3]float64{0, 0, 0}
	if o := octant(c, [3]float64{1, 1, 1}); o != 7 {
		t.Fatalf("octant = %d", o)
	}
	if o := octant(c, [3]float64{-1, -1, -1}); o != 0 {
		t.Fatalf("octant = %d", o)
	}
	cc := childCenter(c, 2, 7)
	if cc != [3]float64{1, 1, 1} {
		t.Fatalf("childCenter = %v", cc)
	}
}

// TestNoMapInApps keeps maps out of the applications' code. A map's
// iteration order is randomised per run, and an app's private
// bookkeeping (Water's per-thread force scratch) belongs in slices, so
// that what a run measures is the DSM's cost and not a hash table's.
func TestNoMapInApps(t *testing.T) {
	files, err := filepath.Glob("*.go")
	if err != nil {
		t.Fatal(err)
	}
	fset := token.NewFileSet()
	parsed := 0
	for _, name := range files {
		if strings.HasSuffix(name, "_test.go") {
			continue
		}
		f, err := parser.ParseFile(fset, name, nil, 0)
		if err != nil {
			t.Fatal(err)
		}
		parsed++
		ast.Inspect(f, func(n ast.Node) bool {
			if m, ok := n.(*ast.MapType); ok {
				t.Errorf("%s: map type in application code", fset.Position(m.Pos()))
			}
			return true
		})
	}
	if parsed == 0 {
		t.Fatal("no application source files found")
	}
}
