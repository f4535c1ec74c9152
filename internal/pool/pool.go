// Package pool recycles slices without allocating and holds the build's
// one race switch.
//
// Slices is the pool behind every recycled slice the protocol moves: msg's
// wire frames, dsm's page buffers and pin lists. Poison fills storage
// recycled another way, such as a released message's lists. Race
// builds fill what a pool takes back with its poison value, so a read
// through a stale alias returns a deterministic wrong value — a malformed
// diff, an impossible page, an oracle violation — instead of whatever the
// slice's next user happened to write. The other builds pay nothing for it.
package pool

import "sync"

// PoisonByte is what a race build fills a recycled byte buffer with.
const PoisonByte = 0xDB

// Slices recycles slices of one element type. Putting a slice in a
// sync.Pool boxes its header, a 24-byte allocation per recycle, so full
// entries travel as *[]T and the emptied headers cycle through a second
// pool: a Get/Put pair moves pointers only. The zero value is ready to use
// and poisons with T's zero value.
type Slices[T any] struct {
	full, empty sync.Pool
	// Poison is what a race build's Put fills a recycled slice with.
	Poison T
}

// Get returns a pooled zero-length slice, or nil when the pool is dry.
func (p *Slices[T]) Get() []T {
	h, ok := p.full.Get().(*[]T)
	if !ok {
		return nil
	}
	s := (*h)[:0]
	*h = nil
	p.empty.Put(h)
	return s
}

// Put recycles s, which nothing may reference afterwards, directly or
// through a sub-slice. A slice without capacity is dropped. Race builds
// fill s's whole capacity with p.Poison first.
func (p *Slices[T]) Put(s []T) {
	if cap(s) == 0 {
		return
	}
	Poison(s, p.Poison)
	h, _ := p.empty.Get().(*[]T)
	if h == nil {
		h = new([]T)
	}
	*h = s
	p.full.Put(h)
}

// Poison fills s's whole capacity with v in a race build and does nothing
// otherwise. It is for storage recycled outside a Slices, such as a pooled
// object's buffer.
func Poison[T any](s []T, v T) {
	if Race {
		s = s[:cap(s)]
		for i := range s {
			s[i] = v
		}
	}
}
