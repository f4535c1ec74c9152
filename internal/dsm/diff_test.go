package dsm

import (
	"bytes"
	"errors"
	"fmt"
	"testing"
	"testing/quick"

	"actdsm/internal/memlayout"
	"actdsm/internal/sim"
	"actdsm/internal/vm"
)

func page() []byte { return make([]byte, memlayout.PageSize) }

func TestMakeDiffEmpty(t *testing.T) {
	a, b := page(), page()
	copy(a, []byte{1, 2, 3})
	copy(b, []byte{1, 2, 3})
	if d := MakeDiff(a, b); d != nil {
		t.Fatalf("diff of identical pages = %d bytes, want nil", len(d))
	}
}

func TestMakeDiffSingleWord(t *testing.T) {
	twin, cur := page(), page()
	cur[100] = 0xff // inside word at offset 100
	d := MakeDiff(twin, cur)
	// One run: 4-byte header + 4-byte payload.
	if len(d) != 8 {
		t.Fatalf("diff = %d bytes, want 8", len(d))
	}
	out := page()
	if err := ApplyDiff(out, d); err != nil {
		t.Fatal(err)
	}
	if !bytes.Equal(out, cur) {
		t.Fatal("apply did not reproduce page")
	}
}

func TestDiffRoundTripProperty(t *testing.T) {
	check := func(edits []struct {
		Off uint16
		Val byte
	}) bool {
		twin, cur := page(), page()
		for i := range twin {
			twin[i] = byte(i * 7)
			cur[i] = twin[i]
		}
		for _, e := range edits {
			cur[int(e.Off)%memlayout.PageSize] = e.Val
		}
		d := MakeDiff(twin, cur)
		got := page()
		copy(got, twin)
		if err := ApplyDiff(got, d); err != nil {
			return false
		}
		return bytes.Equal(got, cur)
	}
	if err := quick.Check(check, &quick.Config{MaxCount: 200}); err != nil {
		t.Fatal(err)
	}
}

func TestDiffConcurrentWritersDisjointWords(t *testing.T) {
	// Two writers modify disjoint words of the same page; applying both
	// diffs in either order yields the merged page.
	base := page()
	for i := range base {
		base[i] = byte(i)
	}
	curA, curB := page(), page()
	copy(curA, base)
	copy(curB, base)
	memlayout.ViewF32(curA).Set(0, 1.5)   // word 0
	memlayout.ViewF32(curB).Set(100, 2.5) // word 100
	dA := MakeDiff(base, curA)
	dB := MakeDiff(base, curB)

	want := page()
	copy(want, base)
	memlayout.ViewF32(want).Set(0, 1.5)
	memlayout.ViewF32(want).Set(100, 2.5)

	for _, order := range [][2][]byte{{dA, dB}, {dB, dA}} {
		got := page()
		copy(got, base)
		if err := ApplyDiff(got, order[0]); err != nil {
			t.Fatal(err)
		}
		if err := ApplyDiff(got, order[1]); err != nil {
			t.Fatal(err)
		}
		if !bytes.Equal(got, want) {
			t.Fatal("merge mismatch")
		}
	}
}

func TestApplyDiffMalformed(t *testing.T) {
	cases := [][]byte{
		{1},                   // truncated header
		{0, 0, 0, 0},          // zero-length run
		{0xfc, 0x0f, 8, 0},    // run beyond page end (off 4092 len 8)
		{0, 0, 8, 0, 1, 2, 3}, // payload shorter than run length
	}
	for i, d := range cases {
		if err := ApplyDiff(page(), d); !errors.Is(err, ErrBadDiff) {
			t.Errorf("case %d: err = %v, want ErrBadDiff", i, err)
		}
	}
}

func TestDiffAdjacentRunsCoalesce(t *testing.T) {
	twin, cur := page(), page()
	// Change words 10..13 contiguously: one run expected.
	for w := 10; w < 14; w++ {
		cur[w*4] = 1
	}
	d := MakeDiff(twin, cur)
	if len(d) != 4+16 {
		t.Fatalf("diff = %d bytes, want one 16-byte run", len(d))
	}
}

// referenceAppendDiff is the byte-wise encoder AppendDiff replaced, kept
// as the definition of the wire image: every word compared a byte at a
// time, every run appended as it closes.
func referenceAppendDiff(dst, twin, cur []byte) []byte {
	wordsEqual := func(i int) bool {
		return twin[i] == cur[i] && twin[i+1] == cur[i+1] && twin[i+2] == cur[i+2] && twin[i+3] == cur[i+3]
	}
	out := dst
	i := 0
	for i < memlayout.PageSize {
		for i < memlayout.PageSize && wordsEqual(i) {
			i += diffWord
		}
		if i >= memlayout.PageSize {
			break
		}
		start := i
		for i < memlayout.PageSize && !wordsEqual(i) {
			i += diffWord
		}
		runLen := i - start
		out = append(out,
			byte(start), byte(start>>8),
			byte(runLen), byte(runLen>>8))
		out = append(out, cur[start:start+runLen]...)
	}
	return out
}

// checkAgainstReference holds AppendDiff to the reference on one page
// pair: the same bytes, within the format's length bound, an exact round
// trip, and dst's prefix left alone.
func checkAgainstReference(t *testing.T, name string, twin, cur []byte) {
	t.Helper()
	want := referenceAppendDiff(nil, twin, cur)
	got := MakeDiff(twin, cur)
	if !bytes.Equal(got, want) {
		t.Fatalf("%s: diff differs from the reference (%d vs %d bytes)", name, len(got), len(want))
	}
	if (got == nil) != (len(want) == 0) {
		t.Fatalf("%s: MakeDiff nil-ness: got %v for a %d-byte diff", name, got == nil, len(want))
	}
	if len(got) > maxDiffLen {
		t.Fatalf("%s: %d-byte diff exceeds the bound %d", name, len(got), maxDiffLen)
	}
	page := append([]byte(nil), twin...)
	if err := ApplyDiff(page, got); err != nil {
		t.Fatalf("%s: apply: %v", name, err)
	}
	if !bytes.Equal(page, cur) {
		t.Fatalf("%s: twin + diff != cur", name)
	}
	// Appending: a prefix with spare capacity and one without.
	for _, spare := range []int{0, 2 * memlayout.PageSize} {
		prefix := append(make([]byte, 0, 5+spare), "keep!"...)
		out := AppendDiff(prefix, twin, cur)
		if !bytes.Equal(out[:5], []byte("keep!")) || !bytes.Equal(out[5:], want) {
			t.Fatalf("%s: AppendDiff onto a prefix (spare %d) mangled it or the diff", name, spare)
		}
	}
}

func TestAppendDiffMatchesReference(t *testing.T) {
	base := page()
	for i := range base {
		base[i] = byte(i*13 + i>>8)
	}
	mutate := func(words ...int) []byte {
		cur := append([]byte(nil), base...)
		for _, w := range words {
			cur[w*diffWord+w%diffWord] ^= 0x5a // one byte of the word, not always the first
		}
		return cur
	}
	const words = memlayout.PageSize / diffWord
	var all, even, odd []int
	for w := 0; w < words; w++ {
		all = append(all, w)
		if w%2 == 0 {
			even = append(even, w)
		} else {
			odd = append(odd, w)
		}
	}
	checkAgainstReference(t, "equal pages", base, mutate())
	checkAgainstReference(t, "all words changed", base, mutate(all...))
	// SOR's red/black pattern: 512 one-word runs, in both phases.
	checkAgainstReference(t, "alternating words, even", base, mutate(even...))
	checkAgainstReference(t, "alternating words, odd", base, mutate(odd...))
	checkAgainstReference(t, "run ending in the last word", base, mutate(words-3, words-2, words-1))
	for _, off := range []int{0, 4, 8, 4092} {
		checkAgainstReference(t, fmt.Sprintf("single word at %d", off), base, mutate(off/diffWord))
	}

	// Seeded random pages with random run structure: runs and gaps of
	// random lengths (1..maxLen words), over a random twin.
	rng := sim.NewRNG(17)
	for trial := 0; trial < 1000; trial++ {
		twin := page()
		for i := range twin {
			twin[i] = byte(rng.Intn(256))
		}
		cur := append([]byte(nil), twin...)
		maxLen := 1 + rng.Intn(40)
		for w := rng.Intn(maxLen); w < words; {
			for n := 1 + rng.Intn(maxLen); n > 0 && w < words; n, w = n-1, w+1 {
				cur[w*diffWord+rng.Intn(diffWord)] ^= byte(1 + rng.Intn(255))
			}
			w += 1 + rng.Intn(maxLen)
		}
		checkAgainstReference(t, fmt.Sprintf("random page %d", trial), twin, cur)
	}
}

// BenchmarkCloseInterval measures the write-fault + interval-close cycle
// on one node: a Span write dirties a page (creating a pooled twin), and
// closeInterval diffs it against the twin, stores the diff, and recycles
// the twin. This is the diff-pipeline allocation path the page-buffer
// pool exists for.
func BenchmarkCloseInterval(b *testing.B) {
	c, err := New(Config{Nodes: 2, Pages: 64, GCThresholdBytes: -1})
	if err != nil {
		b.Fatal(err)
	}
	defer func() { _ = c.Close() }()
	b.ResetTimer()
	for i := 0; i < b.N; i++ {
		p := i % 32
		if _, _, err := c.Span(0, 0, p*memlayout.PageSize, 8, vm.Write); err != nil {
			b.Fatal(err)
		}
		c.nodes[0].closeInterval()
	}
}
