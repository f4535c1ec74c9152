package obs

// Prometheus text-exposition metrics dump for dsm.Stats. The dump is
// reflection-driven over dsm.Snapshot so that every counter added to the
// Stats struct automatically appears here with a stable, predictable
// name — the coverage test (TestMetricsCoverSnapshot) walks the same
// struct and fails the build of any PR that adds a counter the dump
// would miss.
//
// Naming. A scalar field FooBar renders as counter `actdsm_foo_bar`
// (with `_total` appended unless the name already ends in `_total`);
// an [N]int64 bucket array FooHist renders as a cumulative histogram
// `actdsm_foo_hist_bucket{le="..."}`; the per-message-type call table
// renders as `actdsm_call_*_total{kind="..."}` plus a cumulative
// wall-clock latency histogram in seconds.

import (
	"fmt"
	"io"
	"reflect"
	"strings"
	"time"

	"actdsm/internal/dsm"
)

// snakeCase converts a Go exported identifier to snake_case:
// RemoteMisses → remote_misses, GCCollections → gc_collections,
// BatchSizeHist → batch_size_hist.
func snakeCase(s string) string {
	var b strings.Builder
	rs := []rune(s)
	for i, r := range rs {
		if r >= 'A' && r <= 'Z' {
			// Break before an uppercase rune when the previous rune is
			// lowercase, or when the next one is (end of an acronym).
			if i > 0 && (isLower(rs[i-1]) || (i+1 < len(rs) && isLower(rs[i+1]))) {
				b.WriteByte('_')
			}
			r += 'a' - 'A'
		}
		b.WriteRune(r)
	}
	return b.String()
}

func isLower(r rune) bool { return r >= 'a' && r <= 'z' }

// MetricName returns the exposition name used for a scalar Snapshot
// field (exported so the coverage test and the dump agree by
// construction).
func MetricName(field string) string {
	n := "actdsm_" + snakeCase(field)
	if !strings.HasSuffix(n, "_total") {
		n += "_total"
	}
	return n
}

// HistName returns the exposition base name used for a bucket-array
// Snapshot field.
func HistName(field string) string {
	return "actdsm_" + snakeCase(field)
}

// MetricsText renders the snapshot in Prometheus text exposition format.
// Output order is Snapshot field order — the embedded counter block's
// promoted fields first — so diffs stay reviewable.
func MetricsText(s dsm.Snapshot, w io.Writer) error {
	v := reflect.ValueOf(s)
	for _, f := range reflect.VisibleFields(v.Type()) {
		if f.Anonymous {
			continue // the block itself; its fields follow
		}
		fv := v.FieldByIndex(f.Index)
		switch {
		case fv.Kind() == reflect.Int64:
			name := MetricName(f.Name)
			if _, err := fmt.Fprintf(w,
				"# HELP %s dsm.Snapshot.%s\n# TYPE %s counter\n%s %d\n",
				name, f.Name, name, name, fv.Int()); err != nil {
				return err
			}
		case fv.Kind() == reflect.Array && fv.Type().Elem().Kind() == reflect.Int64:
			if err := writeBucketArray(w, f.Name, fv); err != nil {
				return err
			}
		case f.Name == "Calls":
			if err := writeCalls(w, s.Calls); err != nil {
				return err
			}
		case f.Name == "Links":
			if err := writeLinks(w, s.Links); err != nil {
				return err
			}
		default:
			// A new Snapshot field of an unhandled shape: emit a marker
			// comment so the coverage test still sees the field name and
			// a human sees the gap.
			if _, err := fmt.Fprintf(w, "# UNHANDLED dsm.Snapshot.%s (%s)\n", f.Name, fv.Kind()); err != nil {
				return err
			}
		}
	}
	return nil
}

// writeBucketArray renders an [N]int64 power-of-two bucket array as a
// cumulative Prometheus histogram with integer upper bounds.
func writeBucketArray(w io.Writer, field string, fv reflect.Value) error {
	name := HistName(field)
	if _, err := fmt.Fprintf(w,
		"# HELP %s dsm.Snapshot.%s (power-of-two buckets)\n# TYPE %s histogram\n",
		name, field, name); err != nil {
		return err
	}
	var cum int64
	n := fv.Len()
	for b := 0; b < n; b++ {
		cum += fv.Index(b).Int()
		le := fmt.Sprintf("%d", (int64(1)<<(b+1))-1)
		if b == n-1 {
			le = "+Inf"
		}
		if _, err := fmt.Fprintf(w, "%s_bucket{le=\"%s\"} %d\n", name, le, cum); err != nil {
			return err
		}
	}
	_, err := fmt.Fprintf(w, "%s_count %d\n", name, cum)
	return err
}

// writeCalls renders the per-message-type call table.
func writeCalls(w io.Writer, calls []dsm.CallSnapshot) error {
	type scalar struct {
		name, help string
		get        func(dsm.CallSnapshot) int64
	}
	scalars := []scalar{
		{"actdsm_call_count_total", "completed transport calls by message kind", func(c dsm.CallSnapshot) int64 { return c.Count }},
		{"actdsm_call_errors_total", "failed transport calls by message kind", func(c dsm.CallSnapshot) int64 { return c.Errors }},
		{"actdsm_call_retries_total", "transport retry attempts by message kind", func(c dsm.CallSnapshot) int64 { return c.Retries }},
		{"actdsm_call_bytes_total", "request+reply wire bytes by message kind", func(c dsm.CallSnapshot) int64 { return c.Bytes }},
	}
	for _, sc := range scalars {
		if _, err := fmt.Fprintf(w, "# HELP %s %s\n# TYPE %s counter\n", sc.name, sc.help, sc.name); err != nil {
			return err
		}
		for _, c := range calls {
			if _, err := fmt.Fprintf(w, "%s{kind=%q} %d\n", sc.name, c.Kind, sc.get(c)); err != nil {
				return err
			}
		}
	}
	const lat = "actdsm_call_latency_seconds"
	if _, err := fmt.Fprintf(w,
		"# HELP %s wall-clock call latency by message kind\n# TYPE %s histogram\n", lat, lat); err != nil {
		return err
	}
	for _, c := range calls {
		var cum int64
		for b, n := range c.Latency {
			cum += n
			le := "+Inf"
			if b < dsm.LatencyBuckets-1 {
				le = fmt.Sprintf("%g", (time.Microsecond << (b + 1)).Seconds())
			}
			if _, err := fmt.Fprintf(w, "%s_bucket{kind=%q,le=\"%s\"} %d\n", lat, c.Kind, le, cum); err != nil {
				return err
			}
		}
		if _, err := fmt.Fprintf(w, "%s_count{kind=%q} %d\n", lat, c.Kind, cum); err != nil {
			return err
		}
	}
	return nil
}

// writeLinks renders the per-directed-link traffic table. Latency is
// exposed as a plain counter of summed round-trip seconds (mean = sum /
// calls), not a histogram: the per-link dimension already multiplies
// the series count by n², so buckets would be excessive.
func writeLinks(w io.Writer, links []dsm.LinkSnapshot) error {
	type scalar struct {
		name, help string
		get        func(dsm.LinkSnapshot) float64
		fmt        string
	}
	scalars := []scalar{
		{"actdsm_link_calls_total", "completed transport calls by directed link",
			func(l dsm.LinkSnapshot) float64 { return float64(l.Calls) }, "%s{from=\"%d\",to=\"%d\"} %.0f\n"},
		{"actdsm_link_bytes_total", "request+reply wire bytes by directed link",
			func(l dsm.LinkSnapshot) float64 { return float64(l.Bytes) }, "%s{from=\"%d\",to=\"%d\"} %.0f\n"},
		{"actdsm_link_latency_seconds_total", "summed wall-clock round-trip seconds by directed link",
			func(l dsm.LinkSnapshot) float64 { return float64(l.LatencyNS) / 1e9 }, "%s{from=\"%d\",to=\"%d\"} %g\n"},
	}
	for _, sc := range scalars {
		if _, err := fmt.Fprintf(w, "# HELP %s %s\n# TYPE %s counter\n", sc.name, sc.help, sc.name); err != nil {
			return err
		}
		for _, l := range links {
			if _, err := fmt.Fprintf(w, sc.fmt, sc.name, l.From, l.To, sc.get(l)); err != nil {
				return err
			}
		}
	}
	return nil
}

// WriteMetrics renders the cluster snapshot plus the recorder's own
// meta-counters (events recorded / dropped).
func (r *Recorder) WriteMetrics(s dsm.Snapshot, w io.Writer) error {
	if err := MetricsText(s, w); err != nil {
		return err
	}
	if !r.Enabled() {
		return nil
	}
	r.mu.Lock()
	total := r.total
	r.mu.Unlock()
	_, err := fmt.Fprintf(w,
		"# HELP actdsm_obs_events_total events recorded by the observability ring\n"+
			"# TYPE actdsm_obs_events_total counter\nactdsm_obs_events_total %d\n"+
			"# HELP actdsm_obs_events_dropped_total events lost to ring wrap-around\n"+
			"# TYPE actdsm_obs_events_dropped_total counter\nactdsm_obs_events_dropped_total %d\n",
		total, r.Dropped())
	return err
}
