package dsm

import (
	"reflect"
	"sync/atomic"
	"testing"
)

// TestEveryCounterRoundTrips names no counter: every atomic.Int64 field of
// Stats, found by reflection, must come out of Snapshot under its own
// name, subtract in Sub, and — when it is declared in the comparable
// CounterSet rather than directly in Stats — be in the Counters block.
// Conversely every int64 a Snapshot carries must be one of those fields.
func TestEveryCounterRoundTrips(t *testing.T) {
	var s Stats
	sv := reflect.ValueOf(&s).Elem()
	type counter struct {
		name       string
		comparable bool // promoted from the embedded CounterSet
		v          *atomic.Int64
	}
	var counters []counter
	for _, f := range reflect.VisibleFields(sv.Type()) {
		if f.Type == reflect.TypeOf(atomic.Int64{}) {
			counters = append(counters, counter{f.Name, len(f.Index) > 1,
				sv.FieldByIndex(f.Index).Addr().Interface().(*atomic.Int64)})
		}
	}
	if len(counters) < 37 {
		t.Fatalf("found %d counters in Stats, want the 35 comparable ones and the 2 contention counts at least", len(counters))
	}

	for i, c := range counters {
		c.v.Store(int64(i + 1))
	}
	before := s.Snapshot()
	for i, c := range counters {
		c.v.Add(int64(1000 * (i + 1)))
	}
	after := s.Snapshot()
	delta := after.Sub(before)

	field := func(v any, name string) (int64, bool) {
		fv := reflect.ValueOf(v).FieldByName(name)
		if !fv.IsValid() || fv.Kind() != reflect.Int64 {
			return 0, false
		}
		return fv.Int(), true
	}
	for i, c := range counters {
		k := int64(i + 1)
		if got, ok := field(before, c.name); !ok || got != k {
			t.Errorf("%s: Snapshot has %d (present %v), want %d", c.name, got, ok, k)
		}
		if got, ok := field(delta, c.name); !ok || got != 1000*k {
			t.Errorf("%s: Sub has %d (present %v), want %d", c.name, got, ok, 1000*k)
		}
		if got, ok := field(after.Counters(), c.name); ok != c.comparable || (ok && got != 1001*k) {
			t.Errorf("%s: Counters has %d (present %v), want %d (present %v)", c.name, got, ok, 1001*k, c.comparable)
		}
	}

	values := 0
	for _, f := range reflect.VisibleFields(reflect.TypeOf(before)) {
		if f.Type.Kind() == reflect.Int64 {
			values++
		}
	}
	if values != len(counters) {
		t.Errorf("Snapshot carries %d int64 values for the %d counters of Stats", values, len(counters))
	}
}
