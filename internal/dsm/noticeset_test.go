package dsm

import (
	"slices"
	"testing"

	"actdsm/internal/msg"
	"actdsm/internal/sim"
)

// noticeRef is the reference the notice set is checked against: the
// (page, writer, interval) hash set the known history and the barrier fold
// each kept before, which admits notice by notice.
type noticeRef map[[3]int32]bool

func (r noticeRef) add(dst, ns []msg.Notice) []msg.Notice {
	for _, nt := range ns {
		k := [3]int32{nt.Page, nt.Writer, nt.Interval}
		if !r[k] {
			r[k] = true
			dst = append(dst, nt)
		}
	}
	return dst
}

// TestNoticeSetMatchesMap drives seeded batch streams through a noticeSet
// and through the reference hash set side by side, and requires the two
// lists they build to be identical after every batch. The batches are
// shaped the way the protocol's lists are — whole intervals, each in
// ascending page order — and cover every shape the three users receive:
//
//   - "in order": each writer's next intervals, as closeInterval emits
//     them and a release ships them;
//   - "suffix": a suffix of an earlier batch sent again, as a retried or
//     overlapping release or grant re-sends history;
//   - "older": a writer's interval after a newer one of the same writer,
//     as a standby mirror receives copies in another order than its
//     primary's releases;
//   - "twice": one history concatenated with itself in one batch, as a
//     barrier enter carries a dead node's replicated history that was
//     shipped twice (contributeDead).
//
// A barrier clears both sets now and then. A per-writer prefix vector
// fails the "older" streams, and the run rule without its page check
// fails the "twice" streams whose history is one new interval.
func TestNoticeSetMatchesMap(t *testing.T) {
	for seed := uint64(1); seed <= 40; seed++ {
		runNoticeStream(t, seed)
	}
}

func runNoticeStream(t *testing.T, seed uint64) {
	t.Helper()
	const writers, intervals, pages, steps = 4, 12, 6, 300
	rng := sim.NewRNG(seed)
	// iv[w][i] is writer w's interval i: its notices in ascending page
	// order, a random non-empty page set.
	iv := make([][][]msg.Notice, writers)
	for w := range iv {
		iv[w] = make([][]msg.Notice, intervals+1)
		for i := 1; i <= intervals; i++ {
			for p := 0; p < pages; p++ {
				if rng.Intn(3) == 0 || (p == pages-1 && len(iv[w][i]) == 0) {
					iv[w][i] = append(iv[w][i], msg.Notice{Page: int32(p), Writer: int32(w), Interval: int32(i), Lam: int32(i)})
				}
			}
		}
	}
	// history appends whole intervals (writer, interval) to dst.
	history := func(dst []msg.Notice, ids ...[2]int) []msg.Notice {
		for _, id := range ids {
			dst = append(dst, iv[id[0]][id[1]]...)
		}
		return dst
	}
	// pick draws k distinct intervals at random.
	pick := func(k int) [][2]int {
		var ids [][2]int
		for len(ids) < k {
			id := [2]int{rng.Intn(writers), 1 + rng.Intn(intervals)}
			if !slices.Contains(ids, id) {
				ids = append(ids, id)
			}
		}
		return ids
	}

	var set noticeSet
	ref := noticeRef{}
	var got, want, last []msg.Notice
	next := make([]int, writers) // each writer's last interval sent in order
	shapes := map[string]int{}   // batches of each shape the reference skipped some of
	for step := 0; step < steps; step++ {
		var op string
		var batch []msg.Notice
		switch r := rng.Intn(20); {
		case r == 0:
			set.clear()
			clear(ref)
			got, want = got[:0], want[:0]
			clear(next)
			continue
		case r < 7:
			op = "in order"
			for k := 1 + rng.Intn(3); k > 0; k-- {
				w := rng.Intn(writers)
				if next[w] < intervals {
					next[w]++
					batch = history(batch, [2]int{w, next[w]})
				}
			}
		case r < 11:
			op = "suffix"
			// The cut moves back to where its interval's notices start,
			// so the suffix holds whole intervals.
			cut := len(last)
			if cut > 0 {
				cut = rng.Intn(cut)
				for cut > 0 && last[cut-1].Writer == last[cut].Writer && last[cut-1].Interval == last[cut].Interval {
					cut--
				}
			}
			batch = append(batch, last[cut:]...)
			if w := rng.Intn(writers); next[w] < intervals && rng.Intn(2) == 0 {
				next[w]++ // and what the sender closed since
				batch = history(batch, [2]int{w, next[w]})
			}
		case r < 15:
			op = "older"
			w, j := rng.Intn(writers), 2+rng.Intn(intervals-1)
			i := 1 + rng.Intn(j-1)
			if rng.Intn(2) == 0 {
				batch = history(batch, [2]int{w, j}, [2]int{w, i})
			} else { // the newer one in its own batch first
				want = ref.add(want, iv[w][j])
				got = set.add(got, iv[w][j])
				batch = history(batch, [2]int{w, i})
			}
		default:
			op = "twice"
			h := history(nil, pick(1+rng.Intn(3))...)
			if rng.Intn(2) == 0 {
				h = history(nil, pick(1)...)
			}
			batch = append(h, h...)
		}
		before := len(want)
		want = ref.add(want, batch)
		got = set.add(got, batch)
		if !slices.Equal(got, want) {
			t.Fatalf("seed %d step %d (%s): batch %v\nnoticeSet holds %v\nreference holds %v",
				seed, step, op, batch, got, want)
		}
		if len(want)-before < len(batch) {
			shapes[op]++
		}
		last = batch
	}
	for _, op := range []string{"suffix", "older", "twice"} {
		if shapes[op] == 0 {
			t.Fatalf("seed %d: no %q batch had a notice to skip", seed, op)
		}
	}
}
