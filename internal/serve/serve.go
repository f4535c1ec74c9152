// Package serve is the online serving workload: a key-value store over
// DSM-shared state queried by closed-loop client threads under zipfian
// key popularity, a configurable read/write mix, and per-key locks that
// map onto DSM locks. It is the request-driven counterpart to the batch
// SPLASH-style kernels in internal/apps — the regime the ROADMAP's
// north star (serving heavy skewed traffic) cares about and the one
// where correlation-driven placement should pay off.
//
// Execution shape. KV implements threads.Workload, not EpochWorkload:
// the load generator is structured as *windows*, each window being one
// engine iteration (every client issues its per-window request quota,
// then calls EndIteration). Windows are what make the existing
// machinery work unchanged on serving runs — active correlation
// tracking tracks a window, OnIteration hooks fire at window
// boundaries with all threads parked (so placement migration is safe
// mid-run), and the warmup/measure split falls out of window indices.
//
// Time and determinism. Everything runs on internal/sim virtual time:
// per-request latency is the delta of the thread's Ctx.Charged()
// accumulator around the request (lock acquire stall + fault handling +
// value compute), think-time pacing toward a target QPS is charged via
// Ctx.Wait, and all randomness comes from seeded sim.RNG streams. A KV
// run is therefore a pure function of its Config — the BENCH_serving
// gate depends on that.
package serve

import (
	"errors"
	"fmt"

	"actdsm/internal/dsm"
	"actdsm/internal/memlayout"
	"actdsm/internal/sim"
	"actdsm/internal/threads"
	"actdsm/internal/vm"
)

// Config configures the KV serving workload and its closed-loop load
// generator. The zero value of any field selects the documented default.
type Config struct {
	// Clients is the number of closed-loop client threads (default 8).
	// Each client issues RequestsPerWindow requests per window, one at a
	// time — the next request starts only when the previous one (and its
	// think time) completes.
	Clients int
	// Keys is the key-space size (default 256).
	Keys int
	// ValueBytes is the stored value size per key (default 64; rounded
	// up to 8-byte slots).
	ValueBytes int
	// ReadFraction is the probability a request is a GET (default 0.9);
	// the rest are PUTs that rewrite the value under the key's lock.
	ReadFraction float64
	// ZipfS is the zipfian popularity skew: key rank r is drawn with
	// weight 1/r^s (default 1.1). 0 or negative selects uniform
	// popularity.
	ZipfS float64
	// Groups partitions clients into tenant groups (client c belongs to
	// group c mod Groups), each group owning a contiguous key block it
	// samples with its own zipf stream. Grouping creates the access
	// structure correlation tracking discovers and min-cost placement
	// exploits; 0 or 1 disables it (one global popularity).
	Groups int
	// SharedFraction is the probability a request from a grouped client
	// samples the global key space instead of its group's block
	// (default 0.1 when Groups > 1), keeping some cross-group sharing.
	SharedFraction float64
	// RequestsPerWindow is each active client's request quota per window
	// (default 64).
	RequestsPerWindow int
	// WarmupWindows is the number of initial windows excluded from
	// measurement (minimum and default 1: window 0 carries the store
	// initialization and cold faults).
	WarmupWindows int
	// MeasureWindows is the number of measured windows after warmup.
	// 0 makes the run open-ended: clients serve windows until Stop (or
	// a cancelled RunContext) and measurement covers every completed
	// post-warmup window.
	MeasureWindows int
	// Ramp, when non-nil, sets the active client count per window
	// (entry w for window w; the last entry repeats). Inactive clients
	// still join the window barrier, so a ramp schedules a concurrency
	// sweep within one run.
	Ramp []int
	// TargetQPS paces the closed loop: after each request the client
	// charges think time so the active clients jointly approach this
	// rate in requests per virtual second. 0 disables pacing
	// (saturation: each client issues back-to-back).
	TargetQPS float64
	// LockStripes is the number of per-key locks; key k maps to DSM lock
	// k mod LockStripes (default min(Keys, 1024)).
	LockStripes int
	// LockReads also takes the key's lock for GETs. Off by default:
	// reads are lock-free and see window-boundary (barrier) consistency,
	// the usual serving trade — writers still serialize under the key's
	// lock, so values never tear across a window.
	LockReads bool
	// Seed derives every client's request stream (default 1).
	Seed uint64
}

// withDefaults fills zero fields with their defaults.
func (c Config) withDefaults() Config {
	if c.Clients == 0 {
		c.Clients = 8
	}
	if c.Keys == 0 {
		c.Keys = 256
	}
	if c.ValueBytes == 0 {
		c.ValueBytes = 64
	}
	if c.ReadFraction == 0 {
		c.ReadFraction = 0.9
	}
	if c.ZipfS == 0 {
		c.ZipfS = 1.1
	}
	if c.Groups > 1 && c.SharedFraction == 0 {
		c.SharedFraction = 0.1
	}
	if c.RequestsPerWindow == 0 {
		c.RequestsPerWindow = 64
	}
	if c.WarmupWindows < 1 {
		c.WarmupWindows = 1
	}
	if c.LockStripes == 0 {
		c.LockStripes = c.Keys
		if c.LockStripes > 1024 {
			c.LockStripes = 1024
		}
	}
	if c.Seed == 0 {
		c.Seed = 1
	}
	return c
}

// validate rejects configurations the generator cannot run.
func (c Config) validate() error {
	switch {
	case c.Clients < 0 || c.Keys < 0 || c.ValueBytes < 0 || c.RequestsPerWindow < 0,
		c.MeasureWindows < 0 || c.LockStripes < 0 || c.Groups < 0:
		return errors.New("serve: negative configuration value")
	case c.ReadFraction < 0 || c.ReadFraction > 1:
		return fmt.Errorf("serve: ReadFraction %v outside [0, 1]", c.ReadFraction)
	case c.SharedFraction < 0 || c.SharedFraction > 1:
		return fmt.Errorf("serve: SharedFraction %v outside [0, 1]", c.SharedFraction)
	case c.TargetQPS < 0:
		return fmt.Errorf("serve: TargetQPS %v negative", c.TargetQPS)
	}
	for i, a := range c.Ramp {
		if a < 1 {
			return fmt.Errorf("serve: Ramp[%d] = %d; every window needs at least one active client", i, a)
		}
	}
	return nil
}

// KV is the serving workload: shared key-value slots plus the
// closed-loop clients that query them. Build one with NewKV, run it via
// the engine (or actdsm.NewSystem), then read Report.
//
// KV keeps no internal locking: the cooperative thread engine runs one
// body slice at a time and hands results over channels, so recorder
// state is engine-serialized. The one exception is the stop flag, which
// an external goroutine (context cancellation) may set concurrently.
type KV struct {
	cfg Config

	data memlayout.Region
	// slot is ValueBytes rounded up to 8 bytes; keys*slot = region size.
	slot int

	global *zipfTable
	// perm spreads global zipf ranks over the whole key space.
	perm []int
	// group sampling: group g owns keys [g*groupKeys, (g+1)*groupKeys),
	// permuted within the block by groupPerm[g].
	groupKeys int
	groupTab  *zipfTable
	groupPerm [][]int

	stop atomicFlag

	rec recorder
}

// NewKV builds the serving workload from cfg (zero fields defaulted).
func NewKV(cfg Config) (*KV, error) {
	cfg = cfg.withDefaults()
	if err := cfg.validate(); err != nil {
		return nil, err
	}
	kv := &KV{cfg: cfg, slot: (cfg.ValueBytes + 7) &^ 7}
	rng := sim.NewRNG(cfg.Seed ^ 0x5e12e0a5e12e0a01)
	kv.global = newZipfTable(cfg.Keys, cfg.ZipfS)
	kv.perm = rng.Perm(cfg.Keys)
	if cfg.Groups > 1 {
		kv.groupKeys = cfg.Keys / cfg.Groups
		if kv.groupKeys == 0 {
			return nil, fmt.Errorf("serve: %d groups over %d keys leaves empty groups", cfg.Groups, cfg.Keys)
		}
		kv.groupTab = newZipfTable(kv.groupKeys, cfg.ZipfS)
		kv.groupPerm = make([][]int, cfg.Groups)
		for g := range kv.groupPerm {
			kv.groupPerm[g] = rng.Split().Perm(kv.groupKeys)
		}
	}
	return kv, nil
}

// Name identifies the workload.
func (kv *KV) Name() string { return "ServeKV" }

// Threads is the client count.
func (kv *KV) Threads() int { return kv.cfg.Clients }

// Config returns the effective (defaulted) configuration.
func (kv *KV) Config() Config { return kv.cfg }

// Setup allocates the key-value slots.
func (kv *KV) Setup(l *memlayout.Layout) error {
	var err error
	kv.data, err = l.Alloc("serve.kv", kv.cfg.Keys*kv.slot)
	if err != nil {
		return fmt.Errorf("serve: setup: %w", err)
	}
	return nil
}

// Stop asks the clients to wind down at their next window boundary.
// It is the one KV method safe to call from another goroutine while the
// run is in flight; System.RunContext calls it on context cancellation
// so open-ended runs drain instead of running forever.
func (kv *KV) Stop() { kv.stop.set() }

// openEnded reports whether the run has no fixed window count.
func (kv *KV) openEnded() bool { return kv.cfg.MeasureWindows == 0 }

// totalWindows is the fixed window count of a bounded run.
func (kv *KV) totalWindows() int { return kv.cfg.WarmupWindows + kv.cfg.MeasureWindows }

// activeClients returns how many clients issue requests in window w.
func (kv *KV) activeClients(w int) int {
	n := kv.cfg.Clients
	if len(kv.cfg.Ramp) > 0 {
		i := w
		if i >= len(kv.cfg.Ramp) {
			i = len(kv.cfg.Ramp) - 1
		}
		if a := kv.cfg.Ramp[i]; a < n {
			n = a
		}
	}
	return n
}

// measured reports whether window w falls in the measurement span.
func (kv *KV) measured(w int) bool {
	if w < kv.cfg.WarmupWindows {
		return false
	}
	return kv.openEnded() || w < kv.totalWindows()
}

// thinkTime is the per-request pacing charge in window w: with A active
// clients each in its own closed loop, a joint rate of TargetQPS needs
// one request per client every A/TargetQPS virtual seconds.
func (kv *KV) thinkTime(w int) sim.Time {
	if kv.cfg.TargetQPS <= 0 {
		return 0
	}
	return sim.Time(float64(kv.activeClients(w)) / kv.cfg.TargetQPS * float64(sim.Second))
}

// sampleKey draws one request's key for client tid.
func (kv *KV) sampleKey(rng *sim.RNG, tid int) int {
	if kv.cfg.Groups > 1 && rng.Float64() >= kv.cfg.SharedFraction {
		g := tid % kv.cfg.Groups
		r := kv.groupTab.sample(rng)
		return g*kv.groupKeys + kv.groupPerm[g][r]
	}
	return kv.perm[kv.global.sample(rng)]
}

// Body returns client tid's closed loop.
func (kv *KV) Body(tid int) threads.Body {
	return func(ctx *threads.Ctx) error {
		// Per-client deterministic stream, independent of the schedule.
		rng := sim.NewRNG(kv.cfg.Seed + 0x9e3779b97f4a7c15*uint64(tid+1))
		if tid == 0 {
			if err := kv.initStore(ctx); err != nil {
				return err
			}
		}
		ctx.Barrier()
		for w := 0; kv.openEnded() || w < kv.totalWindows(); w++ {
			if kv.stop.isSet() {
				break
			}
			if tid < kv.activeClients(w) {
				think := kv.thinkTime(w)
				for r := 0; r < kv.cfg.RequestsPerWindow; r++ {
					if err := kv.request(ctx, rng, tid, w); err != nil {
						return err
					}
					ctx.Wait(think)
				}
			}
			ctx.EndIteration()
		}
		return nil
	}
}

// initStore writes every slot once so each key has a defined value (and
// a first writer), page by page.
func (kv *KV) initStore(ctx *threads.Ctx) error {
	total := kv.cfg.Keys * kv.slot
	for off := 0; off < total; off += memlayout.PageSize {
		n := memlayout.PageSize
		if off+n > total {
			n = total - off
		}
		b, err := ctx.SpanRegion(kv.data, off, n, vm.Write)
		if err != nil {
			return fmt.Errorf("serve: init: %w", err)
		}
		for i := range b {
			b[i] = byte(off + i)
		}
	}
	ctx.Compute(total / 8)
	return nil
}

// request issues one GET or PUT: sample a key, take its lock stripe
// (PUTs always, GETs only under LockReads), touch the value, release.
// The request's virtual latency is the delta of the thread's charge
// accumulator around that span — lock-grant stall, coherence faults,
// and value compute included, think time not.
func (kv *KV) request(ctx *threads.Ctx, rng *sim.RNG, tid, w int) error {
	key := kv.sampleKey(rng, tid)
	read := rng.Float64() < kv.cfg.ReadFraction
	lock := int32(key % kv.cfg.LockStripes)
	locked := !read || kv.cfg.LockReads
	start := ctx.Charged().Total()
	if locked {
		if err := ctx.Lock(lock); err != nil {
			return err
		}
	}
	acc := vm.Read
	if !read {
		acc = vm.Write
	}
	b, err := ctx.SpanRegion(kv.data, key*kv.slot, kv.cfg.ValueBytes, acc)
	if err != nil {
		if locked {
			_ = ctx.Unlock(lock)
		}
		return err
	}
	if read {
		var sum byte
		for _, x := range b {
			sum ^= x
		}
		kv.rec.sink += int64(sum)
	} else {
		for i := range b {
			b[i]++
		}
	}
	ctx.Compute(kv.slot / 8)
	if locked {
		if err := ctx.Unlock(lock); err != nil {
			return err
		}
	}
	if kv.measured(w) {
		kv.rec.record(ctx.Charged().Total()-start, read)
	}
	return nil
}

// ServingHooks composes the workload's window accounting onto inner:
// at each window boundary it snapshots elapsed virtual time and the
// cluster's protocol counters (snapshot fills a Snapshot in place, as
// dsm.Stats.SnapshotTo does), bracketing the measurement span the
// Report is computed over. System.Run wires it automatically (the
// facade detects the method structurally); manual engine users call it
// themselves before SetHooks.
func (kv *KV) ServingHooks(inner threads.Hooks, elapsed func() sim.Time, snapshot func(*dsm.Snapshot)) threads.Hooks {
	out := inner
	out.OnIteration = func(w int) {
		kv.windowEnd(w, elapsed, snapshot)
		if inner.OnIteration != nil {
			inner.OnIteration(w)
		}
	}
	return out
}

// windowEnd folds window w's completion into the measurement brackets.
// Every measured window closes the span, so a run cancelled mid-measurement
// reports the windows it completed; the end snapshot is refilled in place.
func (kv *KV) windowEnd(w int, elapsed func() sim.Time, snapshot func(*dsm.Snapshot)) {
	r := &kv.rec
	if w == kv.cfg.WarmupWindows-1 {
		r.spanOpen, r.startT = true, elapsed()
		snapshot(&r.startSnap)
	}
	if kv.measured(w) {
		r.spanClosed, r.windows, r.endT = true, w-kv.cfg.WarmupWindows+1, elapsed()
		snapshot(&r.endSnap)
	}
}
