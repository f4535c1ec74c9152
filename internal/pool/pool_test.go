package pool

import "testing"

type notice struct{ Page, Writer int32 }

// TestSlices pins the pool's contract for a byte and a struct element:
// Put fills the whole capacity with the poison value in race builds and
// leaves it untouched otherwise; Get hands a recycled slice back at length
// zero and returns nil when dry; a slice without capacity is dropped; and
// on a warm pool a Get/Put pair allocates nothing.
func TestSlices(t *testing.T) {
	for _, tc := range []struct {
		name string
		run  func(*testing.T)
	}{
		{"byte", slicesCase(&Slices[byte]{Poison: PoisonByte}, 7)},
		{"struct", slicesCase(&Slices[notice]{Poison: notice{-0x2425, -0x2425}}, notice{3, 1})},
	} {
		t.Run(tc.name, tc.run)
	}
}

func slicesCase[T comparable](p *Slices[T], fill T) func(*testing.T) {
	return func(t *testing.T) {
		if s := p.Get(); s != nil {
			t.Fatalf("dry pool: Get returned %d/%d, want nil", len(s), cap(s))
		}
		p.Put(make([]T, 0))
		if s := p.Get(); s != nil {
			t.Fatalf("a zero-capacity slice was pooled: Get returned cap %d", cap(s))
		}

		s := make([]T, 8, 32)
		full := s[:cap(s)]
		for i := range full {
			full[i] = fill
		}
		p.Put(s)
		want := fill
		if Race {
			want = p.Poison
		}
		for i, v := range full {
			if v != want {
				t.Fatalf("element %d after Put = %v, want %v (Race %v)", i, v, want, Race)
			}
		}
		// Race builds' sync.Pool drops some puts on purpose, so a miss here
		// is allowed; a hit must be the recycled array at length zero.
		if got := p.Get(); got != nil && (len(got) != 0 || cap(got) != cap(s) || &got[:1][0] != &full[0]) {
			t.Fatalf("Get returned %d/%d, want the recycled slice at 0/%d", len(got), cap(got), cap(s))
		}

		if Race {
			return // the instrumentation allocates
		}
		p.Put(make([]T, 0, 16))
		allocs := testing.AllocsPerRun(1000, func() {
			s := p.Get()
			if s == nil {
				s = make([]T, 0, 16)
			}
			p.Put(append(s, fill))
		})
		if allocs != 0 {
			t.Errorf("warm Get/Put: %v allocs/op, want 0", allocs)
		}
	}
}
