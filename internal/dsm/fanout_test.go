package dsm

import (
	"errors"
	"fmt"
	"runtime"
	"sync"
	"sync/atomic"
	"testing"
	"time"
)

// The fan-out runner: leg 0 on the caller, every other leg on a worker
// parked in runLegs (started when none is idle, never exiting). These
// tests hold the runner to fanOut's contract — every leg runs and has
// returned before fanOut does, the lowest-index error wins — under
// nesting and concurrent callers, and hold the worker set to the peak of
// concurrent legs. Run them under -race: the WaitGroup is the only edge
// from a leg's error store to the caller's read.

// TestFanOutNested runs fan-outs three levels deep, width 4: 4 + 16 + 64
// legs in flight, more than any earlier test left parked, so inner legs
// start workers while outer legs hold theirs.
func TestFanOutNested(t *testing.T) {
	const width, depth = 4, 3
	var leaves atomic.Int64
	var level func(d int) func(int) error
	level = func(d int) func(int) error {
		return func(int) error {
			if d == depth {
				leaves.Add(1)
				return nil
			}
			return fanOut(width, level(d+1))
		}
	}
	if err := fanOut(width, level(1)); err != nil {
		t.Fatal(err)
	}
	if got, want := leaves.Load(), int64(width*width*width); got != want {
		t.Fatalf("%d leaves ran, want %d", got, want)
	}
}

// TestFanOutLowestIndexError fails legs 3, 5 and 7 of 8 and wants leg 3's
// error every time, with every leg run.
func TestFanOutLowestIndexError(t *testing.T) {
	errs := make([]error, 8)
	for _, i := range []int{3, 5, 7} {
		errs[i] = fmt.Errorf("leg %d", i)
	}
	for r := 0; r < 200; r++ {
		var ran atomic.Int64
		err := fanOut(len(errs), func(i int) error {
			ran.Add(1)
			return errs[i]
		})
		if !errors.Is(err, errs[3]) {
			t.Fatalf("run %d: error %v, want %v", r, err, errs[3])
		}
		if got := ran.Load(); got != int64(len(errs)) {
			t.Fatalf("run %d: %d legs ran, want %d", r, got, len(errs))
		}
	}
}

// TestFanOutConcurrentCallers has 16 goroutines fan out at once, so
// callers compete for parked workers; every fan-out must join with all
// of its own legs.
func TestFanOutConcurrentCallers(t *testing.T) {
	const callers, width, rounds = 16, 8, 50
	var wg sync.WaitGroup
	var total atomic.Int64
	for c := 0; c < callers; c++ {
		wg.Add(1)
		go func(c int) {
			defer wg.Done()
			for r := 0; r < rounds; r++ {
				var ran [width]int32
				err := fanOut(width, func(i int) error {
					ran[i]++ // no atomic: fanOut's join orders it before the check
					total.Add(1)
					if i == width-1 {
						return fmt.Errorf("caller %d", c)
					}
					return nil
				})
				if err == nil || err.Error() != fmt.Sprintf("caller %d", c) {
					t.Errorf("caller %d round %d: error %v", c, r, err)
					return
				}
				for i, n := range ran {
					if n != 1 {
						t.Errorf("caller %d round %d: leg %d ran %d times", c, r, i, n)
						return
					}
				}
			}
		}(c)
	}
	wg.Wait()
	if got, want := total.Load(), int64(callers*width*rounds); got != want {
		t.Fatalf("%d legs ran, want %d", got, want)
	}
}

// TestFanOutWorkersBounded holds the worker set to the peak of concurrent
// legs: once warm, sequential fan-outs start no goroutine.
func TestFanOutWorkersBounded(t *testing.T) {
	const width = 8
	f := func(int) error { return nil }
	for i := 0; i < 1000; i++ {
		_ = fanOut(width, f)
	}
	before := runtime.NumGoroutine()
	for i := 0; i < 10000; i++ {
		_ = fanOut(width, f)
	}
	if after := runtime.NumGoroutine(); after > before {
		t.Fatalf("10,000 warm fan-outs of width %d: %d goroutines, %d before", width, after, before)
	}
}

// TestFanOutParkedWorkerDropsLeg checks that an idle worker keeps nothing
// of its last leg: a closure that captured a barrier's state must not
// outlive the barrier because a worker ran it.
func TestFanOutParkedWorkerDropsLeg(t *testing.T) {
	_ = fanOut(2, func(int) error { return nil }) // park a worker
	collected := make(chan struct{})
	fanOutWithCanary(collected)
	for i := 0; i < 50; i++ {
		runtime.GC()
		select {
		case <-collected:
			return
		case <-time.After(10 * time.Millisecond):
		}
	}
	t.Fatal("a parked worker still holds its last leg's closure")
}

// canary is big enough to get its own allocation (the tiny allocator
// batches small pointer-free objects, and their finalizers may never run).
type canary struct{ b [64]byte }

//go:noinline
func fanOutWithCanary(collected chan struct{}) {
	c := new(canary)
	runtime.SetFinalizer(c, func(*canary) { close(collected) })
	_ = fanOut(2, func(i int) error {
		c.b[i]++
		return nil
	})
}
