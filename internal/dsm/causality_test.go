package dsm_test

// This external test package exercises the DSM through the thread engine,
// reproducing a transitive-causality hazard that once lost updates: a
// third node receiving causally-ordered diffs of the same word out of
// order would apply an older value over a newer one. Lock releases must
// carry the releaser's full known notice set (transitive causal history),
// not just its own notices. See node.known in the dsm package.

import (
	"fmt"
	"testing"

	"actdsm/internal/dsm"
	"actdsm/internal/memlayout"
	"actdsm/internal/threads"
	"actdsm/internal/vm"
)

func blockRange(n, parts, idx int) (int, int) {
	per, extra := n/parts, n%parts
	s := idx*per + minInt(idx, extra)
	c := per
	if idx < extra {
		c++
	}
	return s, c
}

func minInt(a, b int) int {
	if a < b {
		return a
	}
	return b
}

// runWindowWorkload reproduces the Water merge structure: records of 42
// float64s (straddling page boundaries), threads owning contiguous blocks,
// each thread contributing ±1 to a half-window of molecules under
// per-block locks, then an owner integrate phase. The expected result is
// computed exactly, so any lost or duplicated update fails the test.
func runWindowWorkload(t *testing.T, nthreads, nodes, mols, rounds int) error {
	t.Helper()
	const rec, fOff, vOff = 42, 18, 9
	region := memlayout.Region{Off: 0, Size: mols * rec * 8}
	pages := (region.Size + memlayout.PageSize - 1) / memlayout.PageSize
	cl, err := dsm.New(dsm.Config{Nodes: nodes, Pages: pages})
	if err != nil {
		t.Fatal(err)
	}
	defer func() { _ = cl.Close() }()
	e, err := threads.NewEngine(cl, threads.Config{Threads: nthreads})
	if err != nil {
		t.Fatal(err)
	}
	// Coherence must hold at every barrier, independent of the values.
	e.SetHooks(threads.Hooks{OnBarrier: func() {
		if err := cl.CheckCoherence(); err != nil {
			t.Errorf("coherence: %v", err)
		}
	}})
	window := mols / 2
	expect := make([]float64, mols)
	for i := 0; i < mols; i++ {
		for k := 1; k <= window; k++ {
			j := (i + k) % mols
			if k == window && mols%2 == 0 && i > j {
				continue
			}
			expect[i]++
			expect[j]--
		}
	}
	blockOf := func(m int) int {
		for tt := 0; tt < nthreads; tt++ {
			s, c := blockRange(mols, nthreads, tt)
			if m >= s && m < s+c {
				return tt
			}
		}
		return nthreads - 1
	}
	return e.Run(func(tid int) threads.Body {
		return func(ctx *threads.Ctx) error {
			start, count := blockRange(mols, nthreads, tid)
			for r := 0; r < rounds; r++ {
				contrib := map[int]float64{}
				for i := start; i < start+count; i++ {
					for k := 1; k <= window; k++ {
						j := (i + k) % mols
						if k == window && mols%2 == 0 && i > j {
							continue
						}
						contrib[i]++
						contrib[j]--
					}
				}
				ctx.Barrier()
				byBlock := map[int][]int{}
				for m := range contrib {
					byBlock[blockOf(m)] = append(byBlock[blockOf(m)], m)
				}
				for b := 0; b < nthreads; b++ {
					ms, ok := byBlock[b]
					if !ok {
						continue
					}
					if err := ctx.Lock(int32(7000 + b)); err != nil {
						return err
					}
					for _, m := range ms {
						v, err := ctx.F64(region, m*rec+fOff, 3, vm.Write)
						if err != nil {
							return err
						}
						v.Set(0, v.Get(0)+contrib[m])
					}
					if err := ctx.Unlock(int32(7000 + b)); err != nil {
						return err
					}
				}
				ctx.Barrier()
				v, err := ctx.F64(region, start*rec, count*rec, vm.Write)
				if err != nil {
					return err
				}
				for i := 0; i < count; i++ {
					v.Set(i*rec+vOff, v.Get(i*rec+vOff)+v.Get(i*rec+fOff))
					v.Set(i*rec+fOff, 0)
				}
				ctx.Barrier()
			}
			if tid == 0 {
				v, err := ctx.F64(region, 0, mols*rec, vm.Read)
				if err != nil {
					return err
				}
				for m := 0; m < mols; m++ {
					want := expect[m] * float64(rounds)
					if got := v.Get(m*rec + vOff); got != want {
						return fmt.Errorf("mol %d vel = %v, want %v", m, got, want)
					}
				}
			}
			ctx.EndIteration()
			return nil
		}
	})
}

func TestTransitiveCausality(t *testing.T) {
	// The 6-thread/3-node and 12-thread/4-node shapes are the ones that
	// historically lost updates (≥3 nodes, multiple threads per node,
	// block boundaries mid-page).
	for _, tc := range []struct{ th, nd int }{
		{6, 1}, {6, 3}, {6, 4}, {12, 4}, {8, 4}, {9, 3},
	} {
		tc := tc
		t.Run(fmt.Sprintf("threads=%d/nodes=%d", tc.th, tc.nd), func(t *testing.T) {
			if err := runWindowWorkload(t, tc.th, tc.nd, 64, 3); err != nil {
				t.Fatal(err)
			}
		})
	}
}

func TestTransitiveCausalityWithGC(t *testing.T) {
	// Same workload with an aggressive GC threshold: collection must not
	// reintroduce ordering hazards.
	const rec = 42
	mols := 64
	region := memlayout.Region{Off: 0, Size: mols * rec * 8}
	pages := (region.Size + memlayout.PageSize - 1) / memlayout.PageSize
	cl, err := dsm.New(dsm.Config{Nodes: 3, Pages: pages, GCThresholdBytes: 256})
	if err != nil {
		t.Fatal(err)
	}
	defer func() { _ = cl.Close() }()
	e, err := threads.NewEngine(cl, threads.Config{Threads: 6})
	if err != nil {
		t.Fatal(err)
	}
	err = e.Run(func(tid int) threads.Body {
		return func(ctx *threads.Ctx) error {
			start, count := blockRange(mols, 6, tid)
			for r := 0; r < 4; r++ {
				if err := ctx.Lock(int32(50 + tid%3)); err != nil {
					return err
				}
				v, err := ctx.F64(region, start*rec, count*rec, vm.Write)
				if err != nil {
					return err
				}
				for i := 0; i < count; i++ {
					v.Set(i*rec, v.Get(i*rec)+1)
				}
				if err := ctx.Unlock(int32(50 + tid%3)); err != nil {
					return err
				}
				ctx.EndIteration()
			}
			if tid == 0 {
				v, err := ctx.F64(region, 0, mols*rec, vm.Read)
				if err != nil {
					return err
				}
				for m := 0; m < mols; m++ {
					if got := v.Get(m * rec); got != 4 {
						return fmt.Errorf("mol %d = %v, want 4", m, got)
					}
				}
			}
			return nil
		}
	})
	if err != nil {
		t.Fatal(err)
	}
	if cl.Stats().Snapshot().GCRounds == 0 {
		t.Fatal("GC never triggered despite tiny threshold")
	}
}
