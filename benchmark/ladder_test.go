package benchmark

// The ladder: one rung per layer on the fault path, each a fixed-count
// loop over one public function on seeded inputs, reporting ns/op and
// allocs/op. The counts are fixed so that a rung does the same work on
// every commit; nothing here uses the harness code ROADMAP item 1 wants
// out of the shipping packages (dsm.HotpathBench, dsm/failoverbench.go,
// dsm/managerbench.go, transport.RunBench / MeasureCallAllocs).

import (
	"fmt"
	"runtime"
	"time"

	"actdsm"
	"actdsm/internal/dsm"
	"actdsm/internal/memlayout"
	"actdsm/internal/msg"
	"actdsm/internal/transport"
	"actdsm/internal/vm"
)

const ladderSeed = 1999

// sink keeps the compiler from discarding a rung's result.
var sink int

// must stops the ladder on a set-up or operation error: a rung that
// cannot run is a broken benchmark, not a measurement.
func must(err error) {
	if err != nil {
		panic(fmt.Sprintf("benchmark ladder: %v", err))
	}
}

// timed returns f's wall time and the heap objects it allocated.
func timed(f func()) (time.Duration, uint64) {
	var before, after runtime.MemStats
	runtime.ReadMemStats(&before)
	start := time.Now()
	f()
	d := time.Since(start)
	runtime.ReadMemStats(&after)
	return d, after.Mallocs - before.Mallocs
}

// ladder measures rungs; div divides every rung's operation count, so
// that the package's tests can walk the whole ladder in milliseconds.
// The benchmark runs it with div 1.
type ladder struct{ div int }

// rung calls op n times three times over, after a tenth of that as
// warm-up, and returns the median repetition's ns/op and the allocs/op
// over all three.
func (l ladder) rung(n int, op func(i int)) (nsPerOp, allocsPerOp float64) {
	n = max(n/l.div, 1)
	for i := 0; i < n/10+1; i++ {
		op(i)
	}
	const reps = 3
	var ns []float64
	var mallocs uint64
	for r := 0; r < reps; r++ {
		d, m := timed(func() {
			for i := 0; i < n; i++ {
				op(i)
			}
		})
		ns = append(ns, float64(d.Nanoseconds())/float64(n))
		mallocs += m
	}
	return median(ns), float64(mallocs) / float64(reps*n)
}

// run measures every rung and returns the ladder's metrics.
func (l ladder) run() map[string]float64 {
	rung := l.rung
	out := map[string]float64{}
	us := func(ns float64) float64 { return ns / 1e3 }

	out["threads.switch_us"], out["threads.switch_allocs"] = l.rungSwitch()

	// vm: Touch on pages whose protection already allows the access.
	as := vm.NewAddressSpace(4096, nil)
	for p := 0; p < as.NumPages(); p++ {
		as.SetProt(vm.PageID(p), vm.ProtRead)
	}
	out["vm.touch_ns"], _ = rung(2_000_000, func(i int) {
		_, _, err := as.Touch(0, vm.PageID(i&4095), vm.Read)
		must(err)
	})

	// dsm: a warm 4-page span, the most frequent operation in the system.
	warm, err := dsm.New(dsm.Config{Nodes: 1, Pages: 4})
	must(err)
	_, _, err = warm.Span(0, 0, 0, 4*memlayout.PageSize, vm.Write)
	must(err)
	out["dsm.span_warm_ns"], out["dsm.span_warm_allocs"] = rung(500_000, func(i int) {
		b, _, err := warm.Span(0, 0, 0, 4*memlayout.PageSize, vm.Read)
		must(err)
		sink += len(b)
	})
	must(warm.Close())

	// dsm: diffs of a page with every word changed (SOR) and with one
	// 512-byte run changed (a ServeKV value).
	twin := make([]byte, memlayout.PageSize)
	dense := make([]byte, memlayout.PageSize)
	sparse := make([]byte, memlayout.PageSize)
	for i := range dense {
		dense[i] = byte(i) | 1
	}
	copy(sparse[1024:1536], dense)
	out["dsm.diff_create_dense_ns"], out["dsm.diff_create_allocs"] = rung(20_000, func(i int) {
		sink += len(dsm.MakeDiff(twin, dense))
	})
	out["dsm.diff_create_sparse_ns"], _ = rung(20_000, func(i int) {
		sink += len(dsm.MakeDiff(twin, sparse))
	})
	diff := dsm.MakeDiff(twin, dense)
	page := make([]byte, memlayout.PageSize)
	out["dsm.diff_apply_ns"], _ = rung(200_000, func(i int) {
		must(dsm.ApplyDiff(page, diff))
	})

	// dsm: node 1 writes, a barrier invalidates node 0, node 0 re-reads.
	miss, err := dsm.New(dsm.Config{Nodes: 2, Pages: 1, GCThresholdBytes: -1})
	must(err)
	ns, allocs := rung(5_000, func(i int) {
		b, _, err := miss.Span(1, 8, 0, 4, vm.Write)
		must(err)
		b[0] = byte(i)
		_, err = miss.Barrier()
		must(err)
		_, _, err = miss.Span(0, 0, 0, 4, vm.Read)
		must(err)
	})
	out["dsm.remote_miss_us"], out["dsm.remote_miss_allocs"] = us(ns), allocs
	must(miss.Close())

	// dsm: one barrier episode on 8 nodes, one dirty page each.
	bar, err := dsm.New(dsm.Config{Nodes: nodes, Pages: nodes, GCThresholdBytes: -1})
	must(err)
	ns, allocs = rung(2_000, func(i int) {
		for n := 0; n < nodes; n++ {
			b, _, err := bar.Span(n, n, n*memlayout.PageSize, 4, vm.Write)
			must(err)
			b[0] = byte(i)
		}
		_, err := bar.Barrier()
		must(err)
	})
	out["dsm.barrier_us"], out["dsm.barrier_allocs"] = us(ns), allocs
	must(bar.Close())

	// dsm: two nodes alternate acquire, write, release on one lock. A
	// barrier every 256 hand-offs bounds the notice history a release
	// ships, as an application's iteration barrier does.
	lk, err := dsm.New(dsm.Config{Nodes: 2, Pages: 1, GCThresholdBytes: -1})
	must(err)
	ns, allocs = rung(4_000, func(i int) {
		n := i & 1
		_, err := lk.AcquireLock(n, n, 1)
		must(err)
		b, _, err := lk.Span(n, n, 0, 4, vm.Write)
		must(err)
		b[0] = byte(i)
		_, err = lk.ReleaseLock(n, n, 1)
		must(err)
		if i&255 == 255 {
			_, err = lk.Barrier()
			must(err)
		}
	})
	out["dsm.lock_handoff_us"], out["dsm.lock_handoff_allocs"] = us(ns), allocs
	must(lk.Close())

	// dsm: a GC round over 256 dirty pages on 8 nodes, as the difference
	// between the same write-all-then-barrier episode with the threshold
	// forced (every barrier collects) and with collection off. The round
	// includes what it causes: replicas it invalidates are fetched again.
	out["dsm.gc_round_ms"] = (l.rungEpisode(1) - l.rungEpisode(-1)) / 1e6

	// msg: the codec over a fixed mix of the three heavy messages.
	rng := actdsm.NewRNG(ladderSeed)
	notices := func(n int) []msg.Notice {
		out := make([]msg.Notice, n)
		for i := range out {
			out[i] = msg.Notice{Page: int32(rng.Intn(4096)), Writer: int32(rng.Intn(nodes)), Interval: int32(i), Lam: int32(i)}
		}
		return out
	}
	mix := []msg.Message{
		&msg.BarrierRelease{Episode: 7, Lam: 9, Notices: notices(512)},
		&msg.DiffReply{Page: 3, Diffs: [][]byte{diff}},
		&msg.LockGrant{Lock: 5, Lam: 9, Pos: 64, Holder: -1, Notices: notices(64)},
	}
	var wire [][]byte
	for _, m := range mix {
		wire = append(wire, msg.Encode(m))
	}
	out["msg.encode_ns"], _ = rung(60_000, func(i int) {
		b := msg.EncodeTo(msg.GetBuf(), mix[i%len(mix)])
		sink += len(b)
		msg.PutBuf(b)
	})
	out["msg.decode_ns"], out["msg.decode_allocs"] = rung(60_000, func(i int) {
		_, err := msg.Decode(wire[i%len(wire)])
		must(err)
	})

	// transport: one caller echoing off a peer, in process and over
	// loopback TCP (the multiplexed stream), at 256 B and 4 KiB.
	echo := []transport.Handler{nil, func(from int, payload []byte) ([]byte, error) { return payload, nil }}
	echo[0] = echo[1]
	small, large := make([]byte, 256), make([]byte, 4096)
	local := transport.NewLocal(echo)
	out["transport.local_call_ns"], _ = rung(2_000_000, func(i int) {
		r, err := local.Call(0, 1, small)
		must(err)
		sink += len(r)
	})
	tcp, err := transport.NewTCPWithOptions(echo, transport.Options{})
	must(err)
	call := func(payload []byte) func(int) {
		return func(int) {
			r, err := tcp.Call(0, 1, payload)
			must(err)
			sink += len(r)
			msg.PutBuf(r) // the reply is a pooled buffer the caller recycles, as Cluster.call does
		}
	}
	ns, allocs = rung(10_000, call(small))
	out["transport.tcp_call_us"], out["transport.tcp_call_allocs"] = us(ns), allocs
	ns, _ = rung(10_000, call(large))
	out["transport.tcp_call_4k_us"] = us(ns)
	must(tcp.Close())

	// core: the correlation matrix from 64 access bitmaps of 4096 pages.
	bitmaps := make([]*actdsm.Bitmap, threads)
	for t := range bitmaps {
		bitmaps[t] = vm.NewBitmap(4096)
		for p := 0; p < 4096; p++ {
			if rng.Intn(8) == 0 {
				bitmaps[t].Set(vm.PageID(p))
			}
		}
	}
	ns, _ = rung(200, func(int) { sink += actdsm.FromBitmaps(bitmaps).N() })
	out["core.from_bitmaps_us"] = us(ns)

	// placement: one min-cost decision for 64 threads on 8 nodes, and the
	// joint cost model over 4096 pages on a fast/slow topology.
	m := actdsm.NewMatrix(threads)
	for i := 0; i < threads; i++ {
		for j := i + 1; j < threads; j++ {
			m.Set(i, j, int64(rng.Intn(100)))
		}
	}
	ns, allocs = rung(200, func(int) { sink += len(actdsm.MinCost(m, nodes)) })
	out["placement.mincost_us"], out["placement.mincost_allocs"] = us(ns), allocs
	in := actdsm.CostInput{
		Matrix:  m,
		Bitmaps: bitmaps,
		Writes:  make([][]int64, 4096),
		Topo:    actdsm.FastSlowTopology(nodes, actdsm.DefaultCosts(), 4, 2, 2),
		Nodes:   nodes,
	}
	homes := make([]int, 4096)
	for p := range homes {
		homes[p] = p % nodes
		in.Writes[p] = make([]int64, nodes)
		in.Writes[p][rng.Intn(nodes)] = int64(rng.Intn(4))
	}
	assign := actdsm.Stretch(threads, nodes)
	ns, _ = rung(20, func(int) { sink += int(actdsm.JointCost(in, assign, homes)) })
	out["placement.jointcost_us"] = us(ns)
	ns, _ = rung(5, func(int) { sink += len(actdsm.BestHomes(in, assign, homes, -1)) })
	out["placement.besthomes_us"] = us(ns)
	return out
}

// rungSwitch measures one thread switch: 64 threads on 8 nodes that do
// nothing but Yield, through the public facade. An engine runs once, so
// each repetition builds its own system.
func (l ladder) rungSwitch() (us, allocs float64) {
	yields := max(1000/l.div, 1)
	var ns []float64
	var mallocs uint64
	const reps = 3
	for r := 0; r < reps; r++ {
		app, err := actdsm.NewCustomApp("yield", threads, 1,
			func(l *actdsm.Layout) error { _, err := l.Alloc("pad", actdsm.PageSize); return err },
			func(tid int) actdsm.Body {
				return func(ctx *actdsm.Ctx) error {
					for i := 0; i < yields; i++ {
						ctx.Yield()
					}
					ctx.EndIteration()
					return nil
				}
			})
		must(err)
		sys, err := actdsm.NewSystem(app, nodes)
		must(err)
		d, m := timed(func() { must(sys.Run()) })
		must(sys.Close())
		ns = append(ns, float64(d.Nanoseconds())/float64(threads*yields))
		mallocs += m
	}
	return median(ns) / 1e3, float64(mallocs) / float64(reps*threads*yields)
}

// rungEpisode returns the ns per episode in which 8 nodes rewrite 256
// pages between them and meet at a barrier, under the given GC threshold.
func (l ladder) rungEpisode(gcThreshold int) float64 {
	const pages = 256
	cl, err := dsm.New(dsm.Config{Nodes: nodes, Pages: pages, GCThresholdBytes: gcThreshold})
	must(err)
	ns, _ := l.rung(10, func(i int) {
		for p := 0; p < pages; p++ {
			n := p * nodes / pages
			b, _, err := cl.Span(n, n, p*memlayout.PageSize, memlayout.PageSize, vm.Write)
			must(err)
			for k := range b {
				b[k] = byte(i + k)
			}
		}
		_, err := cl.Barrier()
		must(err)
	})
	must(cl.Close())
	return ns
}
