package serve

import (
	"errors"
	"sort"
	"sync/atomic"

	"actdsm/internal/dsm"
	"actdsm/internal/sim"
)

// LatencyBuckets is the number of power-of-two virtual-latency buckets
// in Report.LatencyHist. Bucket b counts requests whose latency fell in
// [1µs<<b, 1µs<<(b+1)); bucket 0 also absorbs sub-microsecond requests
// and the last bucket the tail (≳ 2s of virtual time).
const LatencyBuckets = 22

// latencyBucket maps a virtual duration to its histogram bucket.
func latencyBucket(d sim.Time) int {
	us := int64(d) / int64(sim.Microsecond)
	b := 0
	for us > 1 && b < LatencyBuckets-1 {
		us >>= 1
		b++
	}
	return b
}

// BucketBound returns the inclusive lower bound of latency bucket b.
func BucketBound(b int) sim.Time { return sim.Microsecond << b }

// KindCalls is one message kind's transport call count over the
// measurement span.
type KindCalls struct {
	Kind  string `json:"kind"`
	Count int64  `json:"count"`
}

// Report is the stable result type of a serving run: achieved
// throughput, the per-request virtual-latency distribution, and the
// protocol work the measurement span cost, all deterministic. Exported
// through the facade as actdsm.ServeReport and rendered in Prometheus
// text format by obs.ServeMetricsText, whose coverage test walks these
// fields the same way TestMetricsCoverSnapshot walks dsm.Snapshot.
type Report struct {
	// Workload and the load-generator configuration echo.
	Workload     string  `json:"workload"`
	Clients      int     `json:"clients"`
	Keys         int     `json:"keys"`
	ReadFraction float64 `json:"read_fraction"`
	ZipfS        float64 `json:"zipf_s"`
	// Windows is the number of measured windows.
	Windows int `json:"windows"`

	// Request counts over the measurement span.
	Requests int64 `json:"requests"`
	Reads    int64 `json:"reads"`
	Writes   int64 `json:"writes"`

	// Elapsed is the measurement span's virtual duration; QPS is
	// Requests per virtual second of it.
	Elapsed sim.Time `json:"elapsed"`
	QPS     float64  `json:"qps"`

	// Exact latency quantiles (virtual nanoseconds) over every measured
	// request, plus the bucketed distribution for metrics export.
	P50         sim.Time              `json:"p50"`
	P99         sim.Time              `json:"p99"`
	P999        sim.Time              `json:"p999"`
	MaxLatency  sim.Time              `json:"max_latency"`
	LatencyHist [LatencyBuckets]int64 `json:"latency_hist"`

	// Protocol work over the measurement span.
	RemoteMisses int64       `json:"remote_misses"`
	LockAcquires int64       `json:"lock_acquires"`
	LockForwards int64       `json:"lock_forwards"`
	Calls        []KindCalls `json:"calls"`
}

// atomicFlag is a set-once boolean safe for cross-goroutine signalling.
type atomicFlag struct{ v atomic.Bool }

func (f *atomicFlag) set()        { f.v.Store(true) }
func (f *atomicFlag) isSet() bool { return f.v.Load() }

// recorder accumulates per-request measurements and the window
// snapshots bracketing the measurement span. All access is
// engine-serialized (see KV).
type recorder struct {
	lats   []sim.Time
	reads  int64
	writes int64
	// sink folds read values so GET loops are not dead code.
	sink int64

	spanOpen   bool
	startT     sim.Time
	startSnap  dsm.Snapshot
	endT       sim.Time
	endSnap    dsm.Snapshot
	windows    int
	spanClosed bool
}

func (r *recorder) record(lat sim.Time, read bool) {
	r.lats = append(r.lats, lat)
	if read {
		r.reads++
	} else {
		r.writes++
	}
}

// quantile returns the q-quantile of the sorted latency slice.
func quantile(sorted []sim.Time, q float64) sim.Time {
	if len(sorted) == 0 {
		return 0
	}
	i := int(q * float64(len(sorted)))
	if i >= len(sorted) {
		i = len(sorted) - 1
	}
	return sorted[i]
}

// Report computes the run's serving report. It errors until at least
// one measured window has completed (the run was cancelled inside
// warmup, or never ran under ServingHooks).
func (kv *KV) Report() (*Report, error) {
	r := &kv.rec
	if !r.spanOpen || !r.spanClosed {
		return nil, errors.New("serve: no measured window completed (run cancelled during warmup, or ServingHooks not installed)")
	}
	sorted := append([]sim.Time(nil), r.lats...)
	sort.Slice(sorted, func(i, j int) bool { return sorted[i] < sorted[j] })
	rep := &Report{
		Workload:     kv.Name(),
		Clients:      kv.cfg.Clients,
		Keys:         kv.cfg.Keys,
		ReadFraction: kv.cfg.ReadFraction,
		ZipfS:        kv.cfg.ZipfS,
		Windows:      r.windows,
		Requests:     int64(len(r.lats)),
		Reads:        r.reads,
		Writes:       r.writes,
		Elapsed:      r.endT - r.startT,
		P50:          quantile(sorted, 0.50),
		P99:          quantile(sorted, 0.99),
		P999:         quantile(sorted, 0.999),
	}
	if n := len(sorted); n > 0 {
		rep.MaxLatency = sorted[n-1]
	}
	for _, l := range r.lats {
		rep.LatencyHist[latencyBucket(l)]++
	}
	if sec := rep.Elapsed.Seconds(); sec > 0 {
		rep.QPS = float64(rep.Requests) / sec
	}
	delta := r.endSnap.Sub(r.startSnap)
	rep.RemoteMisses = delta.RemoteMisses
	rep.LockAcquires = delta.LockAcquires
	rep.LockForwards = delta.LockForwards
	for _, c := range delta.Calls {
		if c.Count > 0 {
			rep.Calls = append(rep.Calls, KindCalls{Kind: c.Kind, Count: c.Count})
		}
	}
	return rep, nil
}
