package benchmark

import (
	"encoding/json"
	"fmt"
	"io"
	"math"

	"actdsm"
	"actdsm/internal/dsm"
)

// round is what one round — one application built, set up, run and
// checked — measured. A run makes several; every metric is computed per
// round and the run reports the median over its rounds, so one round
// disturbed by a noisy neighbour does not move the result.
type round struct {
	// iters is the measured iterations planned; iterWallNS has one entry
	// per iteration completed.
	iters int
	// setupNS is the wall time from before the application is built to
	// the end of the last warm-up iteration.
	setupNS int64
	// Deltas over the measured span.
	wallNS, cpuNS       int64
	mallocs, allocBytes uint64
	counts              dsm.Snapshot
	// iterWallNS and iterSimNS are each measured iteration's wall and
	// virtual time; trackedIters counts those with a tracking fault.
	iterWallNS, iterSimNS []int64
	trackedIters          int
	storedDiffBytes       int64
	// Whole-run virtual results: the traced-equals-untraced check compares
	// them, and the controller's counts are reported from them.
	final   dsm.Counters
	elapsed actdsm.Time
	serve   *actdsm.ServeReport
	trace   traceAgg
	// err is the first failure: of the run itself (which includes the
	// application's own verification), of CheckCoherence, or of request
	// conservation.
	err error
}

// med is the median over rounds of a per-round figure.
func med(rs []round, f func(*round) float64) float64 {
	xs := make([]float64, len(rs))
	for i := range rs {
		xs[i] = f(&rs[i])
	}
	return median(xs)
}

// perIter is the median over rounds of a per-round total divided by the
// round's measured iterations.
func perIter(rs []round, f func(*round) float64) float64 {
	return med(rs, func(r *round) float64 { return f(r) / float64(r.iters) })
}

// endToEndValues computes the end-to-end metrics from a run's complete
// untraced rounds. heapSys is MemStats.HeapSys at the end of the run.
func endToEndValues(rs []round, heapSys uint64) map[string]float64 {
	return map[string]float64{
		"setup_s":           med(rs, func(r *round) float64 { return float64(r.setupNS) / 1e9 }),
		"wall_ms_per_iter":  perIter(rs, func(r *round) float64 { return float64(r.wallNS) / 1e6 }),
		"cpu_ms_per_iter":   perIter(rs, func(r *round) float64 { return float64(r.cpuNS) / 1e6 }),
		"allocs_per_iter":   perIter(rs, func(r *round) float64 { return float64(r.mallocs) }),
		"alloc_kb_per_iter": perIter(rs, func(r *round) float64 { return float64(r.allocBytes) / 1024 }),
		"heap_peak_mb":      float64(heapSys) / (1 << 20),
		"sim_ms_per_iter":   perIter(rs, func(r *round) float64 { return float64(sumInt64(r.iterSimNS)) / 1e6 }),
	}
}

// drift is the median of the last third of a round's iteration times
// over the median of the first third: above 1 the run slows as it goes.
func drift(iterNS []int64) float64 {
	third := len(iterNS) / 3
	if third == 0 {
		return 1
	}
	first := median(toFloats(iterNS[:third], 1))
	if first == 0 {
		return 1
	}
	return median(toFloats(iterNS[len(iterNS)-third:], 1)) / first
}

// perLayerValues computes the per-layer metrics of a traced run: spans
// and counts from its traced rounds, tracing overhead against its
// untraced rounds, and the ladder's rungs as measured. notes carries
// what a bare number cannot (which percentile the tail is, of how many).
func perLayerValues(traced, untraced []round, ladder map[string]float64) (vals map[string]float64, notes map[string]string) {
	vals = map[string]float64{}
	notes = map[string]string{}
	for k, v := range ladder {
		vals[k] = v
	}
	count := func(f func(*dsm.Snapshot) int64) func(*round) float64 {
		return func(r *round) float64 { return float64(f(&r.counts)) }
	}

	var iterMS, rpcUS []float64
	for i := range traced {
		iterMS = append(iterMS, toFloats(traced[i].iterWallNS, 1e-6)...)
		rpcUS = append(rpcUS, toFloats(traced[i].trace.rpcNS, 1e-3)...)
	}
	iterMS, rpcUS = sorted(iterMS), sorted(rpcUS)
	tail, pct := tailPercentile(iterMS)
	notes["threads.iter_ms_tail"] = fmt.Sprintf("p%.1f of n=%d iterations", pct, len(iterMS))
	notes["transport.rpc_us_p99"] = fmt.Sprintf("n=%d calls", len(rpcUS))
	vals["threads.iter_ms_p50"] = median(iterMS)
	vals["threads.iter_ms_tail"] = tail
	vals["threads.iter_ms_drift"] = med(traced, func(r *round) float64 { return drift(r.iterWallNS) })
	vals["threads.slices_per_iter"] = perIter(traced, func(r *round) float64 { return float64(r.trace.slices) })
	vals["threads.slice_self_ms_per_iter"] = perIter(traced, func(r *round) float64 { return float64(r.trace.sliceSelfNS) / 1e6 })
	vals["threads.epoch_tail_ms_per_iter"] = perIter(traced, func(r *round) float64 { return float64(r.trace.tailSelfNS) / 1e6 })
	// Migrations and the controller's counts cover the whole round, not
	// the measured span: the first evaluation, the one that acts on the
	// random start, fires at the end of warm-up iteration 1.
	vals["threads.migrations"] = med(traced, func(r *round) float64 { return float64(r.trace.migrations) })

	vals["vm.page_touches_per_iter"] = perIter(traced, func(r *round) float64 { return float64(r.trace.touches) })

	vals["dsm.coherence_faults_per_iter"] = perIter(traced, count(func(s *dsm.Snapshot) int64 { return s.CoherenceFaults }))
	vals["dsm.remote_misses_per_iter"] = perIter(traced, count(func(s *dsm.Snapshot) int64 { return s.RemoteMisses }))
	vals["dsm.page_fetches_per_iter"] = perIter(traced, count(func(s *dsm.Snapshot) int64 { return s.PageFetches }))
	vals["dsm.diff_fetches_per_iter"] = perIter(traced, count(func(s *dsm.Snapshot) int64 { return s.DiffFetches + s.DiffBatchFetches }))
	vals["dsm.twins_per_iter"] = perIter(traced, count(func(s *dsm.Snapshot) int64 { return s.TwinsCreated }))
	vals["dsm.diffs_created_per_iter"] = perIter(traced, count(func(s *dsm.Snapshot) int64 { return s.DiffsCreated }))
	vals["dsm.diff_kb_per_iter"] = perIter(traced, count(func(s *dsm.Snapshot) int64 { return s.BytesDiff })) / 1024
	vals["dsm.barriers_per_iter"] = perIter(traced, count(func(s *dsm.Snapshot) int64 { return s.Barriers }))
	vals["dsm.lock_acquires_per_iter"] = perIter(traced, count(func(s *dsm.Snapshot) int64 { return s.LockAcquires }))
	vals["dsm.gc_rounds"] = med(traced, count(func(s *dsm.Snapshot) int64 { return s.GCRounds }))
	vals["dsm.gc_pages_per_iter"] = perIter(traced, count(func(s *dsm.Snapshot) int64 { return s.GCCollections }))
	vals["dsm.shard_contention_per_iter"] = perIter(traced, count(func(s *dsm.Snapshot) int64 { return s.ShardContention }))
	vals["dsm.stored_diff_mb_end"] = med(traced, func(r *round) float64 { return float64(r.storedDiffBytes) / (1 << 20) })

	vals["msg.messages_per_iter"] = perIter(traced, count(func(s *dsm.Snapshot) int64 { return s.Messages }))
	vals["msg.wire_kb_per_iter"] = perIter(traced, count(func(s *dsm.Snapshot) int64 { return s.BytesTotal })) / 1024

	vals["transport.rpc_ms_per_iter"] = perIter(traced, func(r *round) float64 { return float64(r.trace.rpcSumNS) / 1e6 })
	vals["transport.rpc_blocking_share"] = med(traced, func(r *round) float64 {
		return float64(r.trace.rpcUnionNS) / float64(r.trace.wallNS)
	})
	vals["transport.rpc_us_p50"] = median(rpcUS)
	vals["transport.rpc_us_p99"] = percentile(rpcUS, 99)
	vals["transport.failed_calls"] = med(traced, func(r *round) float64 { return float64(r.trace.failedCalls) })
	for _, k := range kindMetrics {
		vals["transport.kind_ms_per_iter."+k] = perIter(traced, func(r *round) float64 {
			return float64(r.trace.kindTotalNS(k)) / 1e6
		})
	}

	vals["core.tracking_faults_per_iter"] = perIter(traced, count(func(s *dsm.Snapshot) int64 { return s.TrackingFaults }))
	vals["core.tracked_iters"] = med(traced, func(r *round) float64 { return float64(r.trackedIters) })

	vals["placement.triggers"] = med(traced, func(r *round) float64 { return float64(r.final.PlacementTriggers) })
	vals["placement.applied"] = med(traced, func(r *round) float64 { return float64(r.final.PlacementApplied) })
	vals["placement.thread_moves"] = med(traced, func(r *round) float64 { return float64(r.final.PlacementThreadMoves) })
	vals["placement.home_moves"] = med(traced, func(r *round) float64 { return float64(r.final.PlacementHomeMoves) })

	// serve reads the round's ServeReport, and 0 where there is none.
	serve := func(f func(r *round) float64) float64 {
		return med(traced, func(r *round) float64 {
			if r.serve == nil {
				return 0
			}
			return f(r)
		})
	}
	vals["serve.req_per_wall_s"] = serve(func(r *round) float64 { return float64(r.serve.Requests) / (float64(r.wallNS) / 1e9) })
	vals["serve.sim_qps"] = serve(func(r *round) float64 { return r.serve.QPS })
	vals["serve.sim_req_p50_us"] = serve(func(r *round) float64 { return r.serve.P50.Micros() })
	vals["sim_req_p99_us"] = serve(func(r *round) float64 { return r.serve.P99.Micros() })
	vals["serve.sim_req_p999_us"] = serve(func(r *round) float64 { return r.serve.P999.Micros() })
	vals["serve.writes_per_iter"] = serve(func(r *round) float64 { return float64(r.serve.Writes) / float64(r.iters) })

	for i, name := range simShares {
		vals["sim."+name+"_share"] = med(traced, func(r *round) float64 {
			var total float64
			for _, ns := range r.trace.simNS {
				total += ns
			}
			if total == 0 {
				return 0
			}
			return r.trace.simNS[i] / total
		})
	}

	wall := func(r *round) float64 { return float64(r.wallNS) }
	vals["trace.overhead_share"] = 0
	if base := perIter(untraced, wall); base > 0 {
		vals["trace.overhead_share"] = (perIter(traced, wall) - base) / base
	}
	return vals, notes
}

// metricValue is one reported metric.
type metricValue struct {
	Value float64 `json:"value"`
	Unit  string  `json:"unit"`
}

// result is the one JSON object the benchmark prints as its last line.
type result struct {
	Correct   bool                   `json:"correct"`
	Attempted int                    `json:"attempted"`
	Failed    int                    `json:"failed"`
	Metrics   map[string]metricValue `json:"metrics"`
}

// summary is the run's full record, written to the -out file: the result
// plus what is needed to read it later and to compare two sets of runs.
type summary struct {
	Workload      string                 `json:"workload"`
	Seed          uint64                 `json:"seed"`
	Seconds       float64                `json:"seconds"`
	Trace         int                    `json:"trace"`
	NProc         int                    `json:"nproc"`
	GOMAXPROCS    int                    `json:"gomaxprocs"`
	GoVersion     string                 `json:"go_version"`
	Rounds        int                    `json:"rounds"`
	WarmupIters   int                    `json:"warmup_iters"`
	ItersPerRound int                    `json:"iters_per_round"`
	OpsAttempted  int                    `json:"ops_attempted"`
	OpsFailed     int                    `json:"ops_failed"`
	FailShare     float64                `json:"fail_share"`
	Correct       bool                   `json:"correct"`
	Error         string                 `json:"error,omitempty"`
	Metrics       map[string]metricValue `json:"metrics"`
	Notes         map[string]string      `json:"notes,omitempty"`
	// Claim is always null: the benchmark measures, it claims no gain.
	Claim *string `json:"claim"`
}

// withUnits pairs each metric the run's mode reports with its unit, in
// table order, and fails if the harness did not produce one of them.
func withUnits(trace bool, vals map[string]float64) (names []string, out map[string]metricValue, err error) {
	out = map[string]metricValue{}
	add := func(name, unit string) {
		v, ok := vals[name]
		if !ok || math.IsNaN(v) || math.IsInf(v, 0) {
			err = fmt.Errorf("benchmark: metric %s was not measured", name)
		}
		names = append(names, name)
		out[name] = metricValue{Value: v, Unit: unit}
	}
	if trace {
		for _, m := range perLayer {
			add(m.name, m.unit)
		}
	} else {
		for _, m := range endToEnd {
			add(m.name, m.unit)
		}
	}
	if len(out) != len(vals) && err == nil {
		err = fmt.Errorf("benchmark: harness produced %d metrics, the tables list %d", len(vals), len(out))
	}
	return names, out, err
}

// printRun writes the human-readable report followed, as the last line,
// by the result object.
func printRun(w io.Writer, s *summary, names []string) error {
	fmt.Fprintf(w, "workload %s seed %d trace %d: %d rounds of %d+%d iterations, nproc %d, GOMAXPROCS %d, %s\n",
		s.Workload, s.Seed, s.Trace, s.Rounds, s.WarmupIters, s.ItersPerRound, s.NProc, s.GOMAXPROCS, s.GoVersion)
	for _, n := range names {
		m := s.Metrics[n]
		note := ""
		if s.Notes[n] != "" {
			note = "  (" + s.Notes[n] + ")"
		}
		fmt.Fprintf(w, "%-44s %16.6g %s%s\n", n, m.Value, m.Unit, note)
	}
	fmt.Fprintf(w, "%-44s %16.6g share  (ops_attempted %d, ops_failed %d)\n", "fail_share", s.FailShare, s.OpsAttempted, s.OpsFailed)
	if s.Error != "" {
		fmt.Fprintf(w, "FAILED: %s\n", s.Error)
	}
	fmt.Fprintln(w, `"claim": null`)
	line, err := json.Marshal(result{Correct: s.Correct, Attempted: s.OpsAttempted, Failed: s.OpsFailed, Metrics: s.Metrics})
	if err != nil {
		return err
	}
	_, err = fmt.Fprintf(w, "%s\n", line)
	return err
}
