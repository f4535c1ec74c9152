package dsm

import (
	"bytes"
	"fmt"
	"maps"
	"slices"
	"testing"

	"actdsm/internal/memlayout"
	"actdsm/internal/sim"
	"actdsm/internal/vm"
)

// TestDiffRunMatchesMap drives node 0 through seeded random sequences of
// interval closes (some pages written back to the values they held, which
// store nothing), GC drops (collectPage), rejoin wipes (resetForRejoin)
// and readDiffs lookups of held and missing intervals, beside the
// page → interval → diff map the store used to be. After every step each
// page's run must hold the model's intervals in ascending order with their
// bytes, every lookup must answer what the model holds (nil where it holds
// nothing), and a GC round's page set (storedPages) must be the model's
// non-empty pages. The one-shard run puts all eight pages in one shard,
// so their runs grow into blocks of one pool side by side and take back
// the blocks their neighbours outgrew: a block handed to two runs fails
// here by name.
func TestDiffRunMatchesMap(t *testing.T) {
	for _, tc := range []struct {
		name   string
		shards int
	}{{"none", defaultServiceShards}, {"one-shard", 1}} {
		t.Run(tc.name, func(t *testing.T) {
			for seed := uint64(1); seed <= 40; seed++ {
				runDiffRun(t, seed, tc.shards)
			}
		})
	}
}

func runDiffRun(t *testing.T, seed uint64, shards int) {
	t.Helper()
	const pages, steps = 8, 300
	rng := sim.NewRNG(seed)
	c, err := newCluster(Config{Nodes: 2, Pages: pages, GCThresholdBytes: -1}, shards)
	if err != nil {
		t.Fatal(err)
	}
	defer c.Close()
	n := c.nodes[0]
	model := map[vm.PageID]map[int32][]byte{}
	maxIv := int32(0) // the highest interval closed so far
	var hits, misses, silent int

	for step := 0; step < steps; step++ {
		var op string
		switch r := rng.Intn(20); {
		case r < 12:
			op = "closeInterval"
			// Write a random page subset under twins, as write faults
			// would; a page written back to what it held stores nothing.
			want := map[vm.PageID][]byte{}
			for p := vm.PageID(0); p < pages; p++ {
				if rng.Intn(3) != 0 {
					continue
				}
				sh := n.lockShard(p)
				st := &n.pages[p]
				st.twin = append(getPageBuf()[:0], n.pageData(p)...)
				st.dirty = true
				if rng.Intn(4) != 0 {
					w := 4 * rng.Intn(memlayout.PageSize/4)
					n.pageData(p)[w]++
				}
				want[p] = MakeDiff(st.twin, n.pageData(p))
				n.unlockShard(sh)
			}
			closed, _ := n.closeInterval()
			var gotPages []vm.PageID
			for _, nt := range closed {
				p := vm.PageID(nt.Page)
				gotPages = append(gotPages, p)
				if model[p] == nil {
					model[p] = map[int32][]byte{}
				}
				model[p][nt.Interval] = want[p]
				maxIv = max(maxIv, nt.Interval)
			}
			var wantPages []vm.PageID
			for _, p := range slices.Sorted(maps.Keys(want)) {
				if len(want[p]) > 0 {
					wantPages = append(wantPages, p)
				} else {
					silent++
				}
			}
			if !slices.Equal(gotPages, wantPages) {
				t.Fatalf("seed %d step %d: closed pages %v, want %v", seed, step, gotPages, wantPages)
			}
		case r < 15:
			op = "collectPage"
			p := vm.PageID(rng.Intn(pages))
			if err := n.collectPage(p); err != nil {
				t.Fatalf("seed %d step %d: %v", seed, step, err)
			}
			delete(model, p)
		case r < 16:
			op = "resetForRejoin"
			n.resetForRejoin()
			clear(model)
		default:
			op = "readDiffs"
			p := vm.PageID(rng.Intn(pages))
			ivs := make([]int32, 1+rng.Intn(4))
			for i := range ivs {
				ivs[i] = int32(rng.Intn(int(maxIv) + 2))
			}
			out := make([][]byte, len(ivs))
			pinned := n.readDiffs(int32(n.id), int32(p), ivs, out, pins.Get())
			for i, iv := range ivs {
				if want := model[p][iv]; !bytes.Equal(out[i], want) || (out[i] == nil) != (want == nil) {
					t.Fatalf("seed %d step %d: readDiffs page %d interval %d: %x, want %x", seed, step, p, iv, out[i], want)
				}
				if out[i] != nil {
					hits++
				} else {
					misses++
				}
			}
			pinned.release()
		}
		if err := checkDiffRuns(c, n, model); err != nil {
			t.Fatalf("seed %d step %d after %s: %v", seed, step, op, err)
		}
	}
	if hits == 0 || misses == 0 || silent == 0 {
		t.Fatalf("seed %d: run not exercised: %d lookups held, %d missing, %d silent stores", seed, hits, misses, silent)
	}
}

// checkDiffRuns compares n's runs and the cluster's GC page set with the
// model.
func checkDiffRuns(c *Cluster, n *node, model map[vm.PageID]map[int32][]byte) error {
	var held int64
	for p := range n.pages {
		run := n.pages[p].diffs
		want := slices.Sorted(maps.Keys(model[vm.PageID(p)]))
		if len(run) != len(want) {
			return fmt.Errorf("page %d: run holds %d diffs, model %d", p, len(run), len(want))
		}
		for i, d := range run {
			if d.iv != want[i] || !bytes.Equal(d.bytes(), model[vm.PageID(p)][d.iv]) {
				return fmt.Errorf("page %d: run entry %d is interval %d (%d bytes), model interval %d", p, i, d.iv, d.n, want[i])
			}
			held += int64(d.n)
		}
	}
	if got := n.diffBytes.Load(); got != held {
		return fmt.Errorf("diffBytes %d, runs hold %d", got, held)
	}
	stored := c.storedPages(c.aliveList())
	for p := range n.pages {
		if got, want := stored.Get(vm.PageID(p)), len(model[vm.PageID(p)]) > 0; got != want {
			return fmt.Errorf("GC page set has page %d: %v, model %v", p, got, want)
		}
	}
	return nil
}
