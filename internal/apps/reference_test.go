package apps

import (
	"math"
	"testing"

	"actdsm/internal/dsm"
	"actdsm/internal/memlayout"
	"actdsm/internal/threads"
	"actdsm/internal/vm"
)

// runDSM runs app a with nthreads threads on a fresh cluster of nodes
// nodes and returns the final bytes of region r, read through the DSM
// from node reader. r points into the app, which fills it in at Setup.
func runDSM(t *testing.T, a App, nthreads, nodes, reader int, r *memlayout.Region) []byte {
	t.Helper()
	layout := memlayout.NewLayout()
	if err := a.Setup(layout); err != nil {
		t.Fatal(err)
	}
	cl, err := dsm.New(dsm.Config{Nodes: nodes, Pages: layout.TotalPages()})
	if err != nil {
		t.Fatal(err)
	}
	t.Cleanup(func() { _ = cl.Close() })
	e, err := threads.NewEngine(cl, threads.Config{Threads: nthreads})
	if err != nil {
		t.Fatal(err)
	}
	if err := e.Run(a.Body); err != nil {
		t.Fatal(err)
	}
	b, _, err := cl.Span(reader, 0, r.Off, r.Size, vm.Read)
	if err != nil {
		t.Fatal(err)
	}
	return b
}

// TestSORMatchesSequentialReference runs SOR on a 4-node DSM and compares
// the final grid bit-for-bit against a plain sequential red-black SOR:
// the coherence protocol must be completely invisible to the numerics.
// Red-black ordering makes the parallel and sequential update orders
// produce identical floating-point results.
func TestSORMatchesSequentialReference(t *testing.T) {
	const nthreads, nodes = 8, 4
	a, err := New("SOR", Config{Threads: nthreads})
	if err != nil {
		t.Fatal(err)
	}
	s := a.(*sor)
	rows, cols, iters := s.rows, s.cols, s.iters

	// Sequential reference, mirroring the app's init and relaxation.
	ref := make([]float32, rows*cols)
	for j := 0; j < cols; j++ {
		ref[j] = sorBoundary
	}
	for i := 1; i < rows; i++ {
		for j := 0; j < cols; j++ {
			ref[i*cols+j] = float32((i*37+j*11)%97) * sorBoundary / 97
		}
	}
	for iter := 0; iter < iters; iter++ {
		for phase := 0; phase < 2; phase++ {
			for i := 1; i < rows-1; i++ {
				for j := 1 + (i+phase)%2; j < cols-1; j += 2 {
					v := 0.25 * (ref[(i-1)*cols+j] + ref[(i+1)*cols+j] +
						ref[i*cols+j-1] + ref[i*cols+j+1])
					cur := ref[i*cols+j]
					ref[i*cols+j] = cur + s.omega*(v-cur)
				}
			}
		}
	}

	// DSM run; read the final grid from an arbitrary node.
	got := memlayout.ViewF32(runDSM(t, a, nthreads, nodes, 2, &s.grid))
	for i := 0; i < rows; i++ {
		for j := 0; j < cols; j++ {
			if g := got.Get(i*cols + j); g != ref[i*cols+j] {
				t.Fatalf("cell (%d,%d): dsm %v, reference %v", i, j, g, ref[i*cols+j])
			}
		}
	}
}

// TestLUMatchesSequentialReference factorizes the same matrix with a
// plain sequential blocked LU and compares every element exactly.
func TestLUMatchesSequentialReference(t *testing.T) {
	const nthreads, nodes = 4, 2
	a, err := New("LU1k", Config{Threads: nthreads})
	if err != nil {
		t.Fatal(err)
	}
	l := a.(*lu)
	n, bs, nb := l.n, l.b, l.nb

	// Sequential reference: identical blocked algorithm over a plain
	// array in block-major order.
	ref := make([]float32, n*n)
	at := func(bi, bj, i, j int) *float32 {
		return &ref[l.blockOff(bi, bj)+i*bs+j]
	}
	for bi := 0; bi < nb; bi++ {
		for bj := 0; bj < nb; bj++ {
			for i := 0; i < bs; i++ {
				for j := 0; j < bs; j++ {
					*at(bi, bj, i, j) = l.initial(bi*bs+i, bj*bs+j)
				}
			}
		}
	}
	for k := 0; k < nb; k++ {
		// Diagonal factorization.
		for p := 0; p < bs; p++ {
			piv := *at(k, k, p, p)
			for i := p + 1; i < bs; i++ {
				m := *at(k, k, i, p) / piv
				*at(k, k, i, p) = m
				for j := p + 1; j < bs; j++ {
					*at(k, k, i, j) -= m * *at(k, k, p, j)
				}
			}
		}
		// Panels.
		for bi := k + 1; bi < nb; bi++ {
			for i := 0; i < bs; i++ {
				for p := 0; p < bs; p++ {
					v := *at(bi, k, i, p)
					for q := 0; q < p; q++ {
						v -= *at(bi, k, i, q) * *at(k, k, q, p)
					}
					*at(bi, k, i, p) = v / *at(k, k, p, p)
				}
			}
		}
		for bj := k + 1; bj < nb; bj++ {
			for j := 0; j < bs; j++ {
				for p := 0; p < bs; p++ {
					v := *at(k, bj, p, j)
					for q := 0; q < p; q++ {
						v -= *at(k, k, p, q) * *at(k, bj, q, j)
					}
					*at(k, bj, p, j) = v
				}
			}
		}
		// Interior.
		for bi := k + 1; bi < nb; bi++ {
			for bj := k + 1; bj < nb; bj++ {
				for i := 0; i < bs; i++ {
					for p := 0; p < bs; p++ {
						m := *at(bi, k, i, p)
						if m == 0 {
							continue
						}
						for j := 0; j < bs; j++ {
							*at(bi, bj, i, j) -= m * *at(k, bj, p, j)
						}
					}
				}
			}
		}
	}

	got := memlayout.ViewF32(runDSM(t, a, nthreads, nodes, 1, &l.mat))
	for i := 0; i < n*n; i++ {
		if g := got.Get(i); g != ref[i] {
			t.Fatalf("element %d: dsm %v, reference %v", i, g, ref[i])
		}
	}
}

// TestWaterMatchesSequentialReference runs Water on a 4-node DSM and
// compares every molecule record against a plain-array Water with the
// same initialisation, pair forces, half-window and integration. The
// sequential run sums each molecule's force pair by pair; the DSM run
// sums per thread and then across threads in lock-grant order. So the
// two agree to a relative 1e-12, not bit for bit. 6 threads on 4 nodes
// gives uneven blocks.
func TestWaterMatchesSequentialReference(t *testing.T) {
	const relTol = 1e-12
	for _, tc := range []struct{ threads, nodes int }{{8, 4}, {6, 4}} {
		a, err := New("Water", Config{Threads: tc.threads})
		if err != nil {
			t.Fatal(err)
		}
		w := a.(*water)
		n, window := w.nmol, w.nmol/2

		ref := make([]float64, n*wRec)
		for i := 0; i < n; i++ {
			x, y, z := w.initPos(i)
			for at := 0; at < 3; at++ {
				ref[i*wRec+wPos+3*at] = x + 0.05*float64(at)
				ref[i*wRec+wPos+3*at+1] = y - 0.05*float64(at)
				ref[i*wRec+wPos+3*at+2] = z
			}
		}
		for iter := 0; iter < w.iters; iter++ {
			for i := 0; i < n; i++ {
				pi := ref[i*wRec+wPos:]
				for k := 1; k <= window; k++ {
					j := (i + k) % n
					if k == window && n%2 == 0 && i > j {
						continue
					}
					pj := ref[j*wRec+wPos:]
					fx, fy, fz := pairForce(pi[0], pi[1], pi[2], pj[0], pj[1], pj[2])
					ref[i*wRec+wForce] += fx
					ref[i*wRec+wForce+1] += fy
					ref[i*wRec+wForce+2] += fz
					ref[j*wRec+wForce] -= fx
					ref[j*wRec+wForce+1] -= fy
					ref[j*wRec+wForce+2] -= fz
				}
			}
			for i := 0; i < n; i++ {
				m := ref[i*wRec : (i+1)*wRec]
				for d := 0; d < 3; d++ {
					f := m[wForce+d]
					m[wVel+d] += f * waterDT
					for at := 0; at < 3; at++ {
						m[wPos+3*at+d] += m[wVel+d] * waterDT
					}
					m[wAcc+d], m[wForce+d] = f, 0
				}
			}
		}

		got := memlayout.ViewF64(runDSM(t, a, tc.threads, tc.nodes, 3, &w.mol))
		for s, r := range ref {
			if g := got.Get(s); math.Abs(g-r) > relTol*math.Abs(r) {
				t.Fatalf("%d threads: molecule %d slot %d: dsm %v, reference %v", tc.threads, s/wRec, s%wRec, g, r)
			}
		}
	}
}
