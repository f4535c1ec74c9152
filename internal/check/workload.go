package check

// lockChain is the checker's synthetic lock workload: a causal hand-off
// chain that exercises exactly the transitive-history machinery the
// barrier-structured applications never touch. Thread 0 writes page 0
// under lock 0; thread t waits (by polling under lock t-1) until thread
// t-1's cell advances, then reads every upstream page *without* holding
// any lock — legal precisely because the lock chain ordered those writes
// before its acquire front — and finally writes its own page under lock
// t. A protocol that ships only the releaser's own notices on a release
// (the no-transitivity mutation, testdata/mutations) breaks the chain at
// the second hop: the oracle's front says thread t must observe page
// t-2's update, the notice never arrives, and the read trips
// "lost-update".
//
// Locks and pages are both indexed by thread, so with Threads == Nodes
// each hop crosses nodes and every lock has a distinct manager.

import (
	"fmt"

	"actdsm/internal/memlayout"
	"actdsm/internal/threads"
	"actdsm/internal/vm"
)

type lockChain struct {
	threads int
	iters   int
	data    memlayout.Region
}

func newLockChain(nthreads, iters int) (*lockChain, error) {
	if nthreads < 2 {
		return nil, fmt.Errorf("check: LockChain needs at least 2 threads, got %d", nthreads)
	}
	if iters <= 0 {
		iters = 5
	}
	return &lockChain{threads: nthreads, iters: iters}, nil
}

func (a *lockChain) Name() string    { return "LockChain" }
func (a *lockChain) Threads() int    { return a.threads }
func (a *lockChain) Iterations() int { return a.iters }

func (a *lockChain) Setup(l *memlayout.Layout) error {
	var err error
	a.data, err = l.Alloc("chain.cells", a.threads*memlayout.PageSize)
	if err != nil {
		return fmt.Errorf("check: LockChain setup: %w", err)
	}
	return nil
}

// cell returns the element index of thread t's counter (one per page).
func (a *lockChain) cell(t int) int { return t * memlayout.PageSize / 4 }

func (a *lockChain) Body(tid int) threads.Body {
	return func(ctx *threads.Ctx) error {
		for iter := 0; iter < a.iters; iter++ {
			want := int32(iter + 1)
			if tid > 0 {
				// Poll the predecessor's cell under its lock until it
				// reaches this iteration. Polling yields at each Lock, so
				// the cooperative scheduler keeps every thread runnable.
				const maxSpins = 1 << 16
				for spins := 0; ; spins++ {
					if spins > maxSpins {
						return fmt.Errorf("check: LockChain thread %d stuck waiting for %d at iter %d",
							tid, tid-1, iter)
					}
					if err := ctx.Lock(int32(tid - 1)); err != nil {
						return err
					}
					v, err := ctx.I32(a.data, a.cell(tid-1), 1, vm.Read)
					if err != nil {
						_ = ctx.Unlock(int32(tid - 1))
						return err
					}
					got := v.Get(0)
					if err := ctx.Unlock(int32(tid - 1)); err != nil {
						return err
					}
					if got >= want {
						break
					}
					// Give co-resident threads (the predecessor may share
					// this node after a crash migration) a slice between
					// polls.
					ctx.Yield()
				}
				// Transitive reads: every upstream write is ordered before
				// this thread's acquire front through the lock chain, so
				// reading without a lock is LRC-legal — and is exactly the
				// read a broken transitive notice set loses.
				for up := 0; up < tid-1; up++ {
					if _, err := ctx.I32(a.data, a.cell(up), 1, vm.Read); err != nil {
						return err
					}
				}
			}
			// Advance this thread's own cell under its own lock.
			if err := ctx.Lock(int32(tid)); err != nil {
				return err
			}
			v, err := ctx.I32(a.data, a.cell(tid), 1, vm.Write)
			if err != nil {
				_ = ctx.Unlock(int32(tid))
				return err
			}
			v.Set(0, want)
			if err := ctx.Unlock(int32(tid)); err != nil {
				return err
			}
			ctx.EndIteration()
		}
		return nil
	}
}
