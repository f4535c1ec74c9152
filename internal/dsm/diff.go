package dsm

import (
	"encoding/binary"
	"errors"
	"fmt"

	"actdsm/internal/memlayout"
)

// Diffs are the core of the multi-writer protocol: when a node first
// writes a page in an interval it saves a twin (a copy of the page); at
// the end of the interval the twin is compared against the current page
// and the changed words are encoded as a diff. Concurrent writers of the
// same page produce diffs for disjoint words (the program is data-race
// free), so applying all diffs in happens-before order reconstructs the
// page.
//
// Wire format: a sequence of runs, each [u16 byte-offset][u16 byte-length]
// followed by length payload bytes. Runs are word-aligned (4 bytes), in
// increasing offset order. A diff is never longer than PageSize + 4: k
// runs cover at most 1024 - (k - 1) words and cost 4 header bytes each.

const diffWord = 4

// ErrBadDiff reports a malformed diff.
var ErrBadDiff = errors.New("dsm: malformed diff")

// maxDiffLen bounds an encoded diff (see the wire format above).
const maxDiffLen = memlayout.PageSize + 4

// MakeDiff encodes the word-granularity differences between twin and cur.
// Both must be memlayout.PageSize bytes. The result is nil when the page
// is unchanged, and otherwise one allocation sized to the diff.
func MakeDiff(twin, cur []byte) []byte {
	return AppendDiff(nil, twin, cur)
}

// AppendDiff appends the encoded differences between twin and cur to dst
// and returns the extended slice (dst itself when the page is unchanged).
// The diff is encoded on the stack first (encodeDiff) and appended once,
// so dst grows at most once, to fit, with no doubling slack.
func AppendDiff(dst, twin, cur []byte) []byte {
	var scratch [maxDiffLen]byte
	return append(dst, scratch[:encodeDiff(&scratch, twin, cur)]...)
}

// encodeDiff encodes the differences between twin and cur into scratch
// and returns their length, which the diff store needs before it places
// them. The scan takes two words per step: the XOR of eight bytes of twin
// and cur says which of the pair changed, and a run opens, extends or
// closes accordingly, encoded as it closes.
func encodeDiff(scratch *[maxDiffLen]byte, twin, cur []byte) int {
	const size = memlayout.PageSize
	t, c := (*[size]byte)(twin), (*[size]byte)(cur)
	n := 0
	emit := func(start, end int) {
		// The header as it goes on the wire, read as one little-endian
		// word: byte offset in the low half, length above.
		le.PutUint32(scratch[n:], uint32(start)|uint32(end-start)<<16)
		if end-start == diffWord {
			// One-word runs are SOR's red/black pattern, 512 to the
			// page: a word store each, not a memmove call.
			le.PutUint32(scratch[n+4:], le.Uint32(c[start:]))
		} else {
			copy(scratch[n+4:], c[start:end])
		}
		n += 4 + end - start
	}
	start := -1 // offset the open run began at, or -1 between runs
	for i := 0; i < size; i += 2 * diffWord {
		x := le.Uint64(t[i:i+8]) ^ le.Uint64(c[i:i+8])
		first, second := uint32(x) != 0, x>>32 != 0
		if first && second {
			if start < 0 {
				start = i
			}
			continue
		}
		// The open run, if any, ends before this pair or on its first
		// word; the second word, if it changed, opens the next.
		end := i
		if first {
			end += diffWord
			if start < 0 {
				start = i
			}
		}
		if start >= 0 {
			emit(start, end)
			start = -1
		}
		if second {
			start = i + diffWord
		}
	}
	if start >= 0 {
		emit(start, size)
	}
	return n
}

// le is the byte order of the diff format and of the scan's word loads
// (any order would do for the compares; this one is a plain load on the
// machines this runs on).
var le = binary.LittleEndian

// ApplyDiff applies a diff produced by MakeDiff to page (which must be
// memlayout.PageSize bytes).
func ApplyDiff(page, diff []byte) error {
	i := 0
	for i < len(diff) {
		if i+4 > len(diff) {
			return fmt.Errorf("%w: truncated run header", ErrBadDiff)
		}
		off := int(diff[i]) | int(diff[i+1])<<8
		n := int(diff[i+2]) | int(diff[i+3])<<8
		i += 4
		if n == 0 || off+n > memlayout.PageSize || i+n > len(diff) {
			return fmt.Errorf("%w: run off=%d len=%d", ErrBadDiff, off, n)
		}
		copy(page[off:off+n], diff[i:i+n])
		i += n
	}
	return nil
}
