package dsm

import (
	"bytes"
	"testing"

	"actdsm/internal/memlayout"
)

// FuzzApplyDiff checks the diff applier never panics or writes outside
// the page for arbitrary diff bytes.
func FuzzApplyDiff(f *testing.F) {
	twin := make([]byte, memlayout.PageSize)
	cur := make([]byte, memlayout.PageSize)
	cur[0], cur[100], cur[4095] = 1, 2, 3
	f.Add(MakeDiff(twin, cur))
	f.Add([]byte{})
	f.Add([]byte{0, 0, 4, 0, 1, 2, 3, 4})
	f.Add([]byte{0xff, 0xff, 0xff, 0xff})

	f.Fuzz(func(t *testing.T, diff []byte) {
		buf := make([]byte, memlayout.PageSize+64)
		for i := range buf {
			buf[i] = 0xAA
		}
		page := buf[32 : 32+memlayout.PageSize]
		_ = ApplyDiff(page, diff)
		// Guard bytes on either side must be untouched.
		for i := 0; i < 32; i++ {
			if buf[i] != 0xAA || buf[len(buf)-1-i] != 0xAA {
				t.Fatalf("ApplyDiff wrote outside the page")
			}
		}
	})
}

// FuzzDiffRoundTrip checks MakeDiff/ApplyDiff reconstruct arbitrary page
// mutations exactly, and that the encoder agrees with the byte-wise
// reference. a seeds the twin, b is a sparse mutation pattern and mask a
// dense one (XORed over the page from offset 0), so the corpus can hold
// run structures b's 256 offsets cannot reach.
func FuzzDiffRoundTrip(f *testing.F) {
	f.Add([]byte{1, 2, 3}, []byte{4, 5, 6}, []byte{})
	// Alternating words (SOR's red/black pattern: 512 one-word runs).
	alternating := make([]byte, memlayout.PageSize)
	for w := 0; w < memlayout.PageSize/diffWord; w += 2 {
		alternating[w*diffWord] = 1
	}
	f.Add([]byte{}, []byte{}, alternating)
	// A run ending in the page's last word.
	lastWord := make([]byte, memlayout.PageSize)
	copy(lastWord[memlayout.PageSize-2*diffWord:], []byte{1, 0, 0, 0, 0, 0, 0, 1})
	f.Add([]byte{9}, []byte{}, lastWord)
	f.Fuzz(func(t *testing.T, a, b, mask []byte) {
		twin := make([]byte, memlayout.PageSize)
		cur := make([]byte, memlayout.PageSize)
		copy(twin, a)
		copy(cur, twin)
		// Apply b as a sparse mutation pattern.
		for i := 0; i+1 < len(b); i += 2 {
			off := (int(b[i]) * 17) % memlayout.PageSize
			cur[off] = b[i+1]
		}
		for i := 0; i < len(mask) && i < len(cur); i++ {
			cur[i] ^= mask[i]
		}
		diff := MakeDiff(twin, cur)
		if want := referenceAppendDiff(nil, twin, cur); !bytes.Equal(diff, want) {
			t.Fatalf("diff differs from the reference encoder (%d vs %d bytes)", len(diff), len(want))
		}
		got := make([]byte, memlayout.PageSize)
		copy(got, twin)
		if err := ApplyDiff(got, diff); err != nil {
			t.Fatalf("apply own diff: %v", err)
		}
		if !bytes.Equal(got, cur) {
			t.Fatal("round trip mismatch")
		}
	})
}
