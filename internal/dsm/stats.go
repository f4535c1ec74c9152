package dsm

import (
	"fmt"
	"reflect"
	"sort"
	"strings"
	"sync/atomic"
	"time"

	"actdsm/internal/msg"
)

// LatencyBuckets is the number of power-of-two latency histogram buckets
// per message type. Bucket i counts calls whose wall-clock latency fell
// in [1µs<<i, 1µs<<(i+1)); bucket 0 also absorbs sub-microsecond calls
// and the last bucket absorbs the tail (≳ 131ms).
const LatencyBuckets = 18

// latencyBucket maps a duration to its histogram bucket.
func latencyBucket(d time.Duration) int {
	us := d.Microseconds()
	b := 0
	for us > 1 && b < LatencyBuckets-1 {
		us >>= 1
		b++
	}
	return b
}

// bucketBound returns the inclusive lower bound of bucket b.
func bucketBound(b int) time.Duration {
	return time.Microsecond << b
}

// BatchSizeBuckets is the number of power-of-two buckets in the batched
// diff fetch size histogram. Bucket i counts DiffBatchRequest calls that
// asked for a number of diffs in [1<<i, 1<<(i+1)); the last bucket
// absorbs the tail (≥ 128 diffs).
const BatchSizeBuckets = 8

// batchSizeBucket maps a batch size (number of requested diffs) to its
// histogram bucket.
func batchSizeBucket(n int) int {
	b := 0
	for n > 1 && b < BatchSizeBuckets-1 {
		n >>= 1
		b++
	}
	return b
}

// BatchSizeBound returns the inclusive lower bound of batch-size
// histogram bucket b.
func BatchSizeBound(b int) int { return 1 << b }

// CallStats counts one message type's transport calls. All fields are
// atomic: the parallel barrier/GC fan-out and TCP server goroutines
// report concurrently.
type CallStats struct {
	// Count is the number of completed Call round trips (success or
	// failure), excluding retries of the same logical call.
	Count atomic.Int64
	// Errors counts calls that ultimately failed.
	Errors atomic.Int64
	// Retries counts retry attempts made by the transport's retry
	// wrapper on behalf of this message type.
	Retries atomic.Int64
	// Bytes counts request + reply wire bytes.
	Bytes atomic.Int64
	// Latency is the wall-clock round-trip histogram.
	Latency [LatencyBuckets]atomic.Int64
}

// LinkStat counts one directed (from, to) link's transport traffic. All
// fields are atomic: the parallel fan-outs and TCP server goroutines
// report concurrently. With a heterogeneous Config.Topology the per-link
// volumes show which links the protocol actually loads — the quantity
// placement and prefetch decisions on non-uniform clusters care about.
type LinkStat struct {
	// Calls counts completed round trips charged to the link (success
	// or failure), excluding retries of the same logical call.
	Calls atomic.Int64
	// Bytes counts request + reply wire bytes.
	Bytes atomic.Int64
	// LatencyNS accumulates wall-clock round-trip nanoseconds.
	LatencyNS atomic.Int64
}

// record folds one completed call into the counters.
func (cs *CallStats) record(bytes int, d time.Duration, failed bool) {
	cs.Count.Add(1)
	cs.Bytes.Add(int64(bytes))
	if failed {
		cs.Errors.Add(1)
	}
	cs.Latency[latencyBucket(d)].Add(1)
}

// CounterSet declares every comparable protocol counter once, for both of
// its holders: Stats keeps the set as atomic.Int64 values that the
// protocol paths add to, and Snapshot carries it as plain int64 values
// (the Counters block). A counter added here is counted, snapshotted,
// subtracted, compared and exported (obs.MetricsText) with no further
// declaration. Every field must have type T.
type CounterSet[T any] struct {
	// RemoteMisses counts access faults that required communication
	// with another node (full page fetch or diff fetch) — the quantity
	// regressed against cut cost in the paper's Table 2.
	RemoteMisses T
	// CoherenceFaults counts all coherence faults (including those
	// satisfied locally, e.g. a write fault that only creates a twin).
	CoherenceFaults T
	// TrackingFaults counts correlation faults during active tracking.
	TrackingFaults T
	// Messages counts protocol messages sent (requests and replies).
	Messages T
	// BytesTotal counts all protocol bytes ("Total Mbytes").
	BytesTotal T
	// BytesDiff counts bytes of diff payload ("Diff Mbytes").
	BytesDiff T
	// PageFetches counts full-page fetches.
	PageFetches T
	// DiffFetches counts diff fetch round trips.
	DiffFetches T
	// Barriers counts barrier episodes.
	Barriers T
	// LockAcquires counts lock acquisitions.
	LockAcquires T
	// LockForwards counts acquisitions whose grant was forwarded: the
	// lock's shard manager redirected the acquirer to the previous
	// holder, which served the notices directly (Config.LockForwarding).
	LockForwards T
	// GCCollections counts pages consolidated by garbage collection.
	GCCollections T
	// GCRounds counts garbage-collection episodes. A round re-run after a
	// crash counts once, and its GCCollections are the pages of its first
	// attempt.
	GCRounds T
	// TwinsCreated counts twin creations.
	TwinsCreated T
	// DiffsCreated counts diffs created at interval ends.
	DiffsCreated T
	// DiffBatchFetches counts batched diff fetch round trips
	// (DiffBatchRequest calls), each replacing one or more DiffRequests.
	DiffBatchFetches T
	// BatchedDiffs counts diffs delivered through batched fetches.
	BatchedDiffs T
	// PrefetchRounds counts barrier-release prefetch rounds.
	PrefetchRounds T
	// PrefetchedPages counts pages brought current ahead of demand.
	PrefetchedPages T
	// PrefetchHits counts prefetched pages later touched by a resident
	// thread before being invalidated again — each hit is an avoided
	// demand miss.
	PrefetchHits T
	// PrefetchWasted counts prefetched pages invalidated (by a write
	// notice or a GC consolidation) before any local touch.
	PrefetchWasted T
	// PrefetchLate counts demand misses on pages the predictor selected
	// but the prefetch budget excluded in the preceding round.
	PrefetchLate T
	// Crashes counts node failures detected by the membership view
	// (Config.FaultTolerance).
	Crashes T
	// Rejoins counts crashed nodes that completed the recovery protocol
	// and re-entered the membership view.
	Rejoins T
	// ReplicaDeltas counts interval-state deltas shipped to ring
	// successors — the steady-state replication traffic fault tolerance
	// adds.
	ReplicaDeltas T
	// ReplicaBytes counts the wire bytes of those deltas.
	ReplicaBytes T
	// Failovers counts protocol calls re-routed to a dead node's ring
	// successor (page serves, diff fetches, lock traffic, barrier roles).
	Failovers T
	// RecoveryFetches counts full-page fetches performed by the recovery
	// machinery itself: standby reseeding after a crash or a GC round,
	// and a rejoining node re-fetching its home pages. They are server
	// traffic, not demand misses.
	RecoveryFetches T
	// RecoveryRounds counts standby-reseed sweeps (one per crash epoch
	// and one per GC round under fault tolerance).
	RecoveryRounds T
	// PlacementTriggers counts placement-controller evaluations: each
	// increment is one cost-model pass over the correlation matrix,
	// write history, and topology (placement v2, DESIGN.md §14).
	PlacementTriggers T
	// PlacementApplied counts controller evaluations whose predicted
	// improvement cleared the hysteresis threshold and were acted on.
	PlacementApplied T
	// PlacementSkipped counts controller evaluations suppressed by
	// hysteresis (predicted improvement below the threshold).
	PlacementSkipped T
	// PlacementThreadMoves counts thread migrations issued by the
	// placement controller (engine ApplyPlacement moves).
	PlacementThreadMoves T
	// PlacementHomeMoves counts explicit page-home moves queued by the
	// placement controller and applied at a barrier release.
	PlacementHomeMoves T
	// PlacementHomeSkips counts queued home moves dropped at apply time:
	// the target node was dead or no longer held a copy of the page (a
	// post-GC home must hold a base image to serve it).
	PlacementHomeSkips T
}

// Stats counts protocol events. All fields are updated atomically so the
// TCP transport's server goroutines and the parallel broadcast fan-out
// can report concurrently with the simulation thread.
type Stats struct {
	CounterSet[atomic.Int64]
	// ShardContention counts contended page-shard lock acquisitions:
	// each increment means a service-path operation found its page's
	// shard held by another request and had to wait. A high rate
	// relative to Messages means defaultServiceShards is too small.
	ShardContention atomic.Int64
	// SyncContention counts contended acquisitions of the per-node
	// sync-state mutex (interval counters, notice histories, prefetch
	// windows).
	SyncContention atomic.Int64
	// BatchSizeHist is the histogram of diffs requested per
	// DiffBatchRequest, in power-of-two buckets.
	BatchSizeHist [BatchSizeBuckets]atomic.Int64
	// Calls holds per-message-type call counters and latency
	// histograms, indexed by msg.Kind of the request.
	Calls [msg.KindCount]CallStats

	// links holds per-directed-link counters, row-major from*linkN+to,
	// sized by InitLinks (the cluster constructor calls it). An unsized
	// Stats records nothing, so standalone Stats values in tests keep
	// working.
	linkN int
	links []LinkStat
}

// InitLinks sizes the per-link counter matrix for an n-node cluster.
// Not concurrency-safe; call before any traffic is recorded.
func (s *Stats) InitLinks(n int) {
	s.linkN = n
	s.links = make([]LinkStat, n*n)
}

// Link returns the live counters for the directed (from, to) link, or
// nil when the matrix is unsized or the pair is out of range.
func (s *Stats) Link(from, to int) *LinkStat {
	if from < 0 || to < 0 || from >= s.linkN || to >= s.linkN {
		return nil
	}
	return &s.links[from*s.linkN+to]
}

// recordLink folds one completed round trip into the (from, to) link.
func (s *Stats) recordLink(from, to, bytes int, d time.Duration) {
	if ls := s.Link(from, to); ls != nil {
		ls.Calls.Add(1)
		ls.Bytes.Add(int64(bytes))
		ls.LatencyNS.Add(d.Nanoseconds())
	}
}

// recordCall folds one completed transport round trip into the per-kind
// counters.
func (s *Stats) recordCall(k msg.Kind, bytes int, d time.Duration, failed bool) {
	if int(k) < len(s.Calls) {
		s.Calls[k].record(bytes, d, failed)
	}
}

// recordRetry counts one transport-level retry for the message kind
// encoded in payload (its first byte).
func (s *Stats) recordRetry(payload []byte) {
	if len(payload) == 0 {
		return
	}
	if k := msg.Kind(payload[0]); k.Valid() {
		s.Calls[k].Retries.Add(1)
	}
}

// CallSnapshot is a plain-value copy of one message type's CallStats.
type CallSnapshot struct {
	Kind    string
	Count   int64
	Errors  int64
	Retries int64
	Bytes   int64
	Latency [LatencyBuckets]int64
}

// Quantile returns the approximate q-quantile (0 < q <= 1) of the
// latency histogram: the lower bound of the bucket holding the q-th
// call. Returns 0 when no calls were recorded.
func (c CallSnapshot) Quantile(q float64) time.Duration {
	var total int64
	for _, n := range c.Latency {
		total += n
	}
	if total == 0 {
		return 0
	}
	want := int64(q * float64(total))
	if want >= total {
		want = total - 1
	}
	var seen int64
	for b, n := range c.Latency {
		seen += n
		if seen > want {
			return bucketBound(b)
		}
	}
	return bucketBound(LatencyBuckets - 1)
}

// Counters is the comparable, transport-independent block of a Snapshot:
// every protocol counter, but neither the contention counts nor the
// per-kind call table (whose latency histograms measure wall-clock time
// and therefore differ between transports and runs). Determinism tests
// compare Counters values.
type Counters = CounterSet[int64]

// Snapshot is a plain-value copy of Stats for reporting. The comparable
// counters are promoted from the embedded block (snap.DiffFetches).
type Snapshot struct {
	CounterSet[int64]
	// ShardContention and SyncContention count contended lock
	// acquisitions on the service path (see Stats). They measure
	// wall-clock interleaving, not protocol behaviour, so they are
	// excluded from the determinism-compared Counters block.
	ShardContention int64
	SyncContention  int64
	// BatchSizeHist is the diffs-per-batched-fetch histogram
	// (power-of-two buckets; see BatchSizeBound).
	BatchSizeHist [BatchSizeBuckets]int64
	// Calls holds the per-message-type counters for every kind with
	// activity, ordered by kind.
	Calls []CallSnapshot
	// Links holds the per-directed-link counters for every link with
	// activity, ordered row-major by (From, To). LatencyNS is wall-clock
	// and therefore, like the Calls latency histograms, excluded from
	// the determinism-compared Counters block.
	Links []LinkSnapshot
}

// LinkSnapshot is a plain-value copy of one directed link's LinkStat.
type LinkSnapshot struct {
	From      int
	To        int
	Calls     int64
	Bytes     int64
	LatencyNS int64
}

// Snapshot returns the current counter values.
func (s *Stats) Snapshot() Snapshot {
	var out Snapshot
	s.SnapshotTo(&out)
	return out
}

// SnapshotTo is Snapshot into out, whose Calls and Links keep their
// arrays: a caller snapshotting at every window end allocates nothing.
func (s *Stats) SnapshotTo(out *Snapshot) {
	*out = Snapshot{
		ShardContention: s.ShardContention.Load(),
		SyncContention:  s.SyncContention.Load(),
		Calls:           out.Calls[:0],
		Links:           out.Links[:0],
	}
	// The two instantiations of CounterSet have the same fields in the
	// same order.
	src, dst := reflect.ValueOf(&s.CounterSet).Elem(), reflect.ValueOf(&out.CounterSet).Elem()
	for i := 0; i < src.NumField(); i++ {
		dst.Field(i).SetInt(src.Field(i).Addr().Interface().(*atomic.Int64).Load())
	}
	for b := range s.BatchSizeHist {
		out.BatchSizeHist[b] = s.BatchSizeHist[b].Load()
	}
	for k := range s.Calls {
		cs := &s.Calls[k]
		c := CallSnapshot{
			Count:   cs.Count.Load(),
			Errors:  cs.Errors.Load(),
			Retries: cs.Retries.Load(),
			Bytes:   cs.Bytes.Load(),
		}
		if c.Count == 0 && c.Errors == 0 && c.Retries == 0 {
			continue
		}
		c.Kind = msg.Kind(k).String() // after the skip: kind 0's name is formatted
		for b := range cs.Latency {
			c.Latency[b] = cs.Latency[b].Load()
		}
		out.Calls = append(out.Calls, c)
	}
	for i := range s.links {
		ls := &s.links[i]
		l := LinkSnapshot{
			From:      i / s.linkN,
			To:        i % s.linkN,
			Calls:     ls.Calls.Load(),
			Bytes:     ls.Bytes.Load(),
			LatencyNS: ls.LatencyNS.Load(),
		}
		if l.Calls == 0 && l.Bytes == 0 {
			continue
		}
		out.Links = append(out.Links, l)
	}
}

// Counters returns the snapshot's comparable counter block.
func (s Snapshot) Counters() Counters { return s.CounterSet }

// Sub returns the difference s - o, for measuring a window (e.g. one
// iteration) between two snapshots. Per-kind entries are matched by kind
// name.
func (s Snapshot) Sub(o Snapshot) Snapshot {
	d := Snapshot{
		ShardContention: s.ShardContention - o.ShardContention,
		SyncContention:  s.SyncContention - o.SyncContention,
	}
	sv, ov := reflect.ValueOf(&s.CounterSet).Elem(), reflect.ValueOf(&o.CounterSet).Elem()
	dv := reflect.ValueOf(&d.CounterSet).Elem()
	for i := 0; i < dv.NumField(); i++ {
		dv.Field(i).SetInt(sv.Field(i).Int() - ov.Field(i).Int())
	}
	for b := range d.BatchSizeHist {
		d.BatchSizeHist[b] = s.BatchSizeHist[b] - o.BatchSizeHist[b]
	}
	prev := make(map[string]CallSnapshot, len(o.Calls))
	for _, c := range o.Calls {
		prev[c.Kind] = c
	}
	for _, c := range s.Calls {
		p := prev[c.Kind]
		c.Count -= p.Count
		c.Errors -= p.Errors
		c.Retries -= p.Retries
		c.Bytes -= p.Bytes
		for b := range c.Latency {
			c.Latency[b] -= p.Latency[b]
		}
		if c.Count == 0 && c.Errors == 0 && c.Retries == 0 {
			continue
		}
		d.Calls = append(d.Calls, c)
	}
	prevLinks := make(map[[2]int]LinkSnapshot, len(o.Links))
	for _, l := range o.Links {
		prevLinks[[2]int{l.From, l.To}] = l
	}
	for _, l := range s.Links {
		p := prevLinks[[2]int{l.From, l.To}]
		l.Calls -= p.Calls
		l.Bytes -= p.Bytes
		l.LatencyNS -= p.LatencyNS
		if l.Calls == 0 && l.Bytes == 0 {
			continue
		}
		d.Links = append(d.Links, l)
	}
	return d
}

// FormatCalls renders the per-message-type counters as an aligned table:
// one row per kind with call/error/retry counts, wire bytes, and latency
// quantiles from the histogram.
func (s Snapshot) FormatCalls() string {
	if len(s.Calls) == 0 {
		return "(no transport calls)\n"
	}
	calls := append([]CallSnapshot(nil), s.Calls...)
	sort.Slice(calls, func(i, j int) bool { return calls[i].Count > calls[j].Count })
	var b strings.Builder
	fmt.Fprintf(&b, "%-15s %9s %6s %7s %11s %8s %8s %8s\n",
		"message", "calls", "errs", "retries", "bytes", "p50", "p95", "p99")
	for _, c := range calls {
		fmt.Fprintf(&b, "%-15s %9d %6d %7d %11d %8s %8s %8s\n",
			c.Kind, c.Count, c.Errors, c.Retries, c.Bytes,
			fmtLat(c.Quantile(0.50)), fmtLat(c.Quantile(0.95)), fmtLat(c.Quantile(0.99)))
	}
	return b.String()
}

// DemandCalls returns the total number of remote data-movement round
// trips: PageRequest + DiffRequest + DiffBatchRequest calls. This is the
// quantity the prefetch/batching layer exists to reduce.
func (s Snapshot) DemandCalls() int64 {
	var total int64
	for _, c := range s.Calls {
		switch c.Kind {
		case msg.KindPageRequest.String(), msg.KindDiffRequest.String(), msg.KindDiffBatchRequest.String():
			total += c.Count
		}
	}
	return total
}

// FormatPrefetch renders the prefetch and batching accounting: the
// accuracy counters (hits / wasted / late) and the batch-size histogram.
func (s Snapshot) FormatPrefetch() string {
	var b strings.Builder
	fmt.Fprintf(&b, "prefetch: rounds %d  pages %d  hits %d  wasted %d  late %d\n",
		s.PrefetchRounds, s.PrefetchedPages, s.PrefetchHits, s.PrefetchWasted, s.PrefetchLate)
	fmt.Fprintf(&b, "batching: fetches %d  diffs %d\n", s.DiffBatchFetches, s.BatchedDiffs)
	var total int64
	for _, n := range s.BatchSizeHist {
		total += n
	}
	if total > 0 {
		fmt.Fprintf(&b, "batch size histogram (diffs per fetch):\n")
		for i, n := range s.BatchSizeHist {
			if n == 0 {
				continue
			}
			lo := BatchSizeBound(i)
			label := fmt.Sprintf("%d-%d", lo, BatchSizeBound(i+1)-1)
			if i == BatchSizeBuckets-1 {
				label = fmt.Sprintf("%d+", lo)
			} else if lo == BatchSizeBound(i+1)-1 {
				label = fmt.Sprintf("%d", lo)
			}
			fmt.Fprintf(&b, "  %7s %9d\n", label, n)
		}
	}
	return b.String()
}

// FormatLinks renders the per-directed-link traffic as an aligned
// table, busiest links (by bytes) first.
func (s Snapshot) FormatLinks() string {
	if len(s.Links) == 0 {
		return "(no per-link traffic recorded)\n"
	}
	links := append([]LinkSnapshot(nil), s.Links...)
	sort.Slice(links, func(i, j int) bool { return links[i].Bytes > links[j].Bytes })
	var b strings.Builder
	fmt.Fprintf(&b, "%-9s %9s %12s %10s\n", "link", "calls", "bytes", "mean-rtt")
	for _, l := range links {
		var mean time.Duration
		if l.Calls > 0 {
			mean = time.Duration(l.LatencyNS / l.Calls)
		}
		fmt.Fprintf(&b, "%3d->%-4d %9d %12d %10s\n", l.From, l.To, l.Calls, l.Bytes, fmtLat(mean))
	}
	return b.String()
}

// fmtLat renders a latency bound compactly.
func fmtLat(d time.Duration) string {
	switch {
	case d == 0:
		return "-"
	case d < time.Millisecond:
		return fmt.Sprintf("%dµs", d.Microseconds())
	default:
		return fmt.Sprintf("%.1fms", float64(d.Microseconds())/1000)
	}
}
