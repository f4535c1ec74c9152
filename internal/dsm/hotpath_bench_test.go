package dsm

// Hot-path microbenchmarks. BenchmarkNodeService is the headline number
// for the sharded-locking work: one node served by many peers, compared
// across shard counts (shards=1 is the pre-sharding single-lock
// baseline). BENCH_hotpath.json pins the same workload's throughput in
// CI through the actbench "hotpath" section.
//
// Run with:
//
//	go test -bench 'NodeService|ParallelDiffServe|CloseInterval' -benchmem ./internal/dsm

import (
	"fmt"
	"sync/atomic"
	"testing"

	"actdsm/internal/memlayout"
	"actdsm/internal/msg"
	"actdsm/internal/vm"
)

// BenchmarkNodeService measures the aggregate serve throughput of one
// node hammered by concurrent peers with the mixed hot-path workload
// (3:1 diff serves to full-page serves), across shard counts.
func BenchmarkNodeService(b *testing.B) {
	for _, shards := range []int{1, 4, 16} {
		b.Run(fmt.Sprintf("shards=%d", shards), func(b *testing.B) {
			o := HotpathOptions{ServiceShards: shards}.withDefaults()
			c, err := newHotpathCluster(o)
			if err != nil {
				b.Fatal(err)
			}
			defer func() { _ = c.Close() }()
			var idx atomic.Int64
			b.ResetTimer()
			b.RunParallel(func(pb *testing.PB) {
				w := int(idx.Add(1)) - 1
				i := 0
				for pb.Next() {
					if err := c.hotpathOp(o, w, i); err != nil {
						b.Error(err)
						return
					}
					i++
				}
			})
		})
	}
}

// BenchmarkParallelDiffServe isolates the read side: every request is a
// DiffRequest, served under the shard's read lock. With one shard the
// read lock is still shared, so this measures RWMutex read-side overhead
// and the pooled encode/decode path rather than serialization.
func BenchmarkParallelDiffServe(b *testing.B) {
	o := HotpathOptions{PageReqEvery: -1}.withDefaults()
	c, err := newHotpathCluster(o)
	if err != nil {
		b.Fatal(err)
	}
	defer func() { _ = c.Close() }()
	var idx atomic.Int64
	b.ResetTimer()
	b.RunParallel(func(pb *testing.PB) {
		w := int(idx.Add(1)) - 1
		i := 0
		for pb.Next() {
			if err := c.hotpathOp(o, w, i); err != nil {
				b.Error(err)
				return
			}
			i++
		}
	})
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

// TestHotpathBenchSmoke keeps the harness honest under plain `go test`:
// a tiny run must complete without error for both the single-lock
// baseline and the sharded default, and report a sane throughput.
func TestHotpathBenchSmoke(t *testing.T) {
	for _, shards := range []int{1, 0} {
		r, err := HotpathBench(HotpathOptions{Ops: 512, ServiceShards: shards})
		if err != nil {
			t.Fatalf("shards=%d: %v", shards, err)
		}
		if r.Ops != 512 || r.OpsPerSec <= 0 {
			t.Fatalf("shards=%d: implausible result %+v", shards, r)
		}
		want := 16
		if shards == 1 {
			want = 1
		}
		if r.Shards != want {
			t.Fatalf("shards=%d: effective shard count %d, want %d", shards, r.Shards, want)
		}
	}
}

// TestHotpathServesMatch pins the harness's protocol behaviour: a diff
// serve through the harness returns the seeded diff, and a page serve
// returns a full page image.
func TestHotpathServesMatch(t *testing.T) {
	o := HotpathOptions{}.withDefaults()
	c, err := newHotpathCluster(o)
	if err != nil {
		t.Fatal(err)
	}
	defer func() { _ = c.Close() }()
	reply, frame, _, err := c.callFrame(1, 0, &msg.DiffRequest{From: 1, Page: 7, Intervals: []int32{1, 2}})
	if err != nil {
		t.Fatal(err)
	}
	dr := reply.(*msg.DiffReply)
	if len(dr.Diffs) != 2 || dr.Diffs[0] == nil || dr.Diffs[1] != nil {
		t.Fatalf("diff serve: want seeded interval 1 only, got %v", dr.Diffs)
	}
	msg.PutBuf(frame)
	pr, frame, _, err := c.callPage(1, 0, &msg.PageRequest{From: 1, Page: int32(o.Nodes)}, vm.PageID(o.Nodes), false)
	if err != nil {
		t.Fatal(err)
	}
	if len(pr.Data) != len(c.nodes[0].pageData(vm.PageID(o.Nodes))) {
		t.Fatalf("page serve: got %d bytes", len(pr.Data))
	}
	msg.PutBuf(frame)
}
