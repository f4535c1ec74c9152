package benchmark

// The metric tables. BENCHMARK.json lists the same names, units and
// directions (TestSchemaMatchesBenchmarkJSON checks both ways); the
// tables add what the JSON schema has no room for: the definition of
// each end-to-end metric and, for each per-layer metric, the prediction
// of which end-to-end metric it should move on which workload.

// e2eMetric is one end-to-end metric, measured with tracing off.
type e2eMetric struct {
	name, unit, better string
	// bound is the share of the parent's median by which the metric may
	// get worse before a change counts as a regression.
	bound float64
	def   string
}

var endToEnd = []e2eMetric{
	{"setup_s", "s", "lower", 0.25,
		"wall time from before the application is built (NewApp, NewSystem, listeners) to the end of warm-up iteration 3; median over the run's rounds"},
	{"wall_ms_per_iter", "ms", "lower", 0.25,
		"measured-span wall time / measured iterations, a mean because iterations are bimodal (an SOR iteration with a GC round costs 3x one without); median over rounds"},
	{"cpu_ms_per_iter", "ms", "lower", 0.25,
		"process user+sys CPU (getrusage) over the measured span / iterations: wall time bought with parallel burn shows here"},
	{"allocs_per_iter", "count", "lower", 0.02,
		"MemStats.Mallocs delta over the measured span / iterations"},
	{"alloc_kb_per_iter", "KiB", "lower", 0.03,
		"MemStats.TotalAlloc delta over the measured span / iterations"},
	{"heap_peak_mb", "MiB", "lower", 0.12,
		"MemStats.HeapSys at the end of the run: the heap's high-water mark"},
	{"sim_ms_per_iter", "sim_ms", "lower", 0.015,
		"System.Elapsed() delta over the measured span / iterations, in virtual ms; identical for a given seed, so on one seed any movement is a behaviour change, and the bound only has to cover the spread between seeds"},
}

// layerMetric is one per-layer metric, reported by the traced run.
type layerMetric struct {
	name, unit, better string
	// moves names the end-to-end metric and workload the metric should
	// move, and where the prediction is no change.
	moves string
}

// kindMetrics are the request kinds transport.kind_ms_per_iter.<Kind>
// is reported for.
var kindMetrics = []string{
	"PageRequest", "DiffRequest", "DiffBatchRequest", "BarrierEnter",
	"BarrierRelease", "LockAcquire", "LockRelease", "GCCollect",
}

const (
	movesSwitch  = "switch_us x slices_per_iter -> wall_ms_per_iter on water_ctl and servekv_mixed; flat on sor_local"
	movesIter    = "the distribution behind wall_ms_per_iter on every workload; tail and drift -> water_ctl (notice lists grow) and sor_local (GC rounds)"
	movesSpan    = "with dsm.span_warm_ns -> wall_ms_per_iter, cpu_ms_per_iter on sor_local and ocean_tcp"
	movesCount   = "a count change is a protocol change -> sim_ms_per_iter on every workload (sor_local, ocean_tcp, water_ctl, servekv_mixed)"
	movesMiss    = "remote_miss_us x remote_misses_per_iter -> wall_ms_per_iter on sor_local and ocean_tcp"
	movesBarrier = "barrier_us x barriers_per_iter -> wall_ms_per_iter on ocean_tcp (4 barriers an iteration) and sor_local (2)"
	movesContend = "server goroutines waiting on a page shard -> wall_ms_per_iter on ocean_tcp; 0 on sor_local, water_ctl, servekv_mixed"
	movesDense   = "diff_create_dense_ns x diffs_created_per_iter and twin copies -> wall_ms_per_iter, alloc_kb_per_iter on sor_local"
	movesSparse  = "-> wall_ms_per_iter on servekv_mixed (one 512 B run per page)"
	movesAllocs  = "-> allocs_per_iter on sor_local and ocean_tcp"
	movesLock    = "lock_handoff_us x lock_acquires_per_iter -> wall_ms_per_iter on water_ctl and servekv_mixed; flat on sor_local"
	movesGC      = "gc_round_ms x gc_rounds -> wall_ms_per_iter on sor_local, and threads.iter_ms_tail there"
	movesCodec   = "decode_ns/allocs x messages_per_iter -> cpu_ms_per_iter, allocs_per_iter on ocean_tcp and sor_local (Local carries the encoded form too)"
	movesRPC     = "-> wall_ms_per_iter on ocean_tcp; flat on sor_local, water_ctl, servekv_mixed"
	movesLocal   = "-> wall_ms_per_iter on sor_local, water_ctl, servekv_mixed; flat on ocean_tcp"
	movesCore    = "-> wall_ms_per_iter and sim_ms_per_iter on water_ctl; exactly 0 on sor_local, ocean_tcp, servekv_mixed"
	movesPlace   = "decision quality -> sim_ms_per_iter on water_ctl, solve time -> wall_ms_per_iter there; 0 / flat on sor_local, ocean_tcp, servekv_mixed"
	movesServe   = "req_per_wall_s = 8192 / wall_ms_per_iter on servekv_mixed; sim_req_p99_us is ServeReport.P99, bracketed by the p50 and p99.9"
	movesSim     = "decomposes sim_ms_per_iter on every workload (sor_local, ocean_tcp, water_ctl, servekv_mixed); a wall-clock-only change leaves all five identical"
	movesStored  = "with threads.iter_ms_drift -> heap_peak_mb, wall_ms_per_iter on water_ctl"
	movesTrace   = "bounds how far the per-layer wall numbers behind wall_ms_per_iter can be trusted, on every workload (sor_local, ocean_tcp, water_ctl, servekv_mixed)"
	movesMigrate = "-> sim_ms_per_iter on water_ctl; 0 on sor_local, ocean_tcp, servekv_mixed"
)

var perLayer = buildPerLayer()

func buildPerLayer() []layerMetric {
	m := []layerMetric{
		// threads: the engine that runs one application thread at a time.
		{"threads.iter_ms_p50", "ms", "lower", movesIter},
		{"threads.iter_ms_tail", "ms", "lower", movesIter},
		{"threads.iter_ms_drift", "ratio", "lower", movesIter},
		{"threads.slices_per_iter", "count", "lower", movesSwitch},
		{"threads.slice_self_ms_per_iter", "ms", "lower", movesSwitch},
		{"threads.epoch_tail_ms_per_iter", "ms", "lower", movesDense},
		{"threads.migrations", "count", "lower", movesMigrate},
		{"threads.switch_us", "us", "lower", movesSwitch},
		{"threads.switch_allocs", "count", "lower", movesSwitch},
		// vm: the software MMU.
		{"vm.page_touches_per_iter", "count", "lower", movesSpan},
		{"vm.touch_ns", "ns", "lower", movesSpan},
		// dsm counts: Snapshot deltas over the measured span.
		{"dsm.coherence_faults_per_iter", "count", "lower", movesCount},
		{"dsm.remote_misses_per_iter", "count", "lower", movesMiss},
		{"dsm.page_fetches_per_iter", "count", "lower", movesCount},
		{"dsm.diff_fetches_per_iter", "count", "lower", movesCount},
		{"dsm.twins_per_iter", "count", "lower", movesCount},
		{"dsm.diffs_created_per_iter", "count", "lower", movesCount},
		{"dsm.diff_kb_per_iter", "KiB", "lower", movesCount},
		{"dsm.barriers_per_iter", "count", "lower", movesBarrier},
		{"dsm.lock_acquires_per_iter", "count", "lower", movesLock},
		{"dsm.gc_rounds", "count", "lower", movesGC},
		{"dsm.gc_pages_per_iter", "count", "lower", movesGC},
		{"dsm.shard_contention_per_iter", "count", "lower", movesContend},
		{"dsm.stored_diff_mb_end", "MiB", "lower", movesStored},
		// dsm ladder.
		{"dsm.span_warm_ns", "ns", "lower", movesSpan},
		{"dsm.span_warm_allocs", "count", "lower", movesSpan},
		{"dsm.diff_create_dense_ns", "ns", "lower", movesDense},
		{"dsm.diff_create_sparse_ns", "ns", "lower", movesSparse},
		{"dsm.diff_create_allocs", "count", "lower", movesAllocs},
		{"dsm.diff_apply_ns", "ns", "lower", movesDense},
		{"dsm.remote_miss_us", "us", "lower", movesMiss},
		{"dsm.remote_miss_allocs", "count", "lower", movesAllocs},
		{"dsm.barrier_us", "us", "lower", movesBarrier},
		{"dsm.barrier_allocs", "count", "lower", movesAllocs},
		{"dsm.lock_handoff_us", "us", "lower", movesLock},
		{"dsm.lock_handoff_allocs", "count", "lower", movesLock},
		{"dsm.gc_round_ms", "ms", "lower", movesGC},
		// msg: the codec.
		{"msg.messages_per_iter", "count", "lower", movesCodec},
		{"msg.wire_kb_per_iter", "KiB", "lower", movesCodec},
		{"msg.encode_ns", "ns", "lower", movesCodec},
		{"msg.decode_ns", "ns", "lower", movesCodec},
		{"msg.decode_allocs", "count", "lower", movesCodec},
		// transport.
		{"transport.rpc_ms_per_iter", "ms", "lower", movesRPC},
		{"transport.rpc_blocking_share", "share", "lower", movesRPC},
		{"transport.rpc_us_p50", "us", "lower", movesRPC},
		{"transport.rpc_us_p99", "us", "lower", movesRPC},
		{"transport.failed_calls", "count", "lower", movesRPC},
	}
	for _, k := range kindMetrics {
		m = append(m, layerMetric{"transport.kind_ms_per_iter." + k, "ms", "lower", movesRPC})
	}
	return append(m, []layerMetric{
		{"transport.local_call_ns", "ns", "lower", movesLocal},
		{"transport.tcp_call_us", "us", "lower", movesRPC},
		{"transport.tcp_call_4k_us", "us", "lower", movesRPC},
		{"transport.tcp_call_allocs", "count", "lower", movesRPC},
		// core: the active tracker.
		{"core.tracking_faults_per_iter", "count", "lower", movesCore},
		{"core.tracked_iters", "count", "lower", movesCore},
		{"core.from_bitmaps_us", "us", "lower", movesCore},
		// placement: the controller and its solvers.
		{"placement.triggers", "count", "lower", movesPlace},
		{"placement.applied", "count", "lower", movesPlace},
		{"placement.thread_moves", "count", "lower", movesPlace},
		{"placement.home_moves", "count", "lower", movesPlace},
		{"placement.mincost_us", "us", "lower", movesPlace},
		{"placement.mincost_allocs", "count", "lower", movesPlace},
		{"placement.jointcost_us", "us", "lower", movesPlace},
		{"placement.besthomes_us", "us", "lower", movesPlace},
		// serve: servekv_mixed only, 0 elsewhere.
		{"serve.req_per_wall_s", "1/s", "higher", movesServe},
		{"serve.sim_qps", "1/sim_s", "higher", movesServe},
		{"serve.sim_req_p50_us", "sim_us", "lower", movesServe},
		{"sim_req_p99_us", "sim_us", "lower", movesServe},
		{"serve.sim_req_p999_us", "sim_us", "lower", movesServe},
		{"serve.writes_per_iter", "count", "lower", movesServe},
		// sim: where the virtual node time goes; the five sum to 1.
		{"sim.compute_share", "share", "higher", movesSim},
		{"sim.stall_share", "share", "lower", movesSim},
		{"sim.overhead_share", "share", "lower", movesSim},
		{"sim.barrier_share", "share", "lower", movesSim},
		{"sim.wait_share", "share", "lower", movesSim},
		// trace: what tracing itself costs.
		{"trace.overhead_share", "share", "lower", movesTrace},
	}...)
}
