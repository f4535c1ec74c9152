package dsm

// Hot-path service benchmark harness: many peers hammering one node with
// the request mix the sharded locking exists to parallelize. This is a
// wall-clock benchmark, not a virtual-time experiment: it measures how
// fast a node's serve path runs on real hardware, which is exactly the
// overhead the paper's "tracking is cheap online" argument depends on.
//
// The harness lives in the dsm package (not a _test file) so both the Go
// benchmarks (hotpath_bench_test.go) and the actbench "hotpath" section
// (internal/experiments/hotpath.go, emitting BENCH_hotpath.json) drive
// the identical workload. The interesting comparison is
// ServiceShards: 1 — a single node-wide page lock, the pre-sharding
// behaviour — against the sharded default.

import (
	"fmt"
	"sync"
	"sync/atomic"
	"time"

	"actdsm/internal/memlayout"
	"actdsm/internal/msg"
	"actdsm/internal/vm"
)

// HotpathOptions configures one HotpathBench run. The zero value of any
// field selects a default sized for a sub-second run.
type HotpathOptions struct {
	// Nodes is the cluster size (default 4; minimum 2 — the serving
	// node plus at least one peer).
	Nodes int
	// Pages is the shared segment size in pages (default 256; rounded
	// up to a multiple of Nodes so every node manages the same number
	// of pages).
	Pages int
	// Peers is the number of hammer goroutines issuing requests
	// against node 0 (default 8). Peers rotate over the requester
	// node ids 1..Nodes-1.
	Peers int
	// Ops is the total number of requests across all peers
	// (default 20000).
	Ops int
	// PageReqEvery makes every k-th request a full PageRequest (which
	// write-locks the page's shard and copies a page image) instead of
	// a DiffRequest (a read-locked serve). Default 4; negative
	// disables page requests entirely.
	PageReqEvery int
	// ServiceShards is passed through to Config.ServiceShards: 1 is
	// the single-lock baseline, 0 the sharded default.
	ServiceShards int
	// ServiceHoldUS, when positive, makes every serve hold its page's
	// shard lock for this many extra microseconds, modeling the
	// per-request protocol work (mprotect syscalls, page copies) a real
	// node performs under the lock. With the hold, the measured
	// throughput ratio reflects how much of the service schedule the
	// locking scheme lets overlap — the property sharding exists for —
	// rather than the benchmark host's core count, so the BENCH gate is
	// stable on single-core CI runners. 0 disables the hold (pure
	// wall-clock ns/op, used by the Go benchmarks).
	ServiceHoldUS int
}

func (o HotpathOptions) withDefaults() HotpathOptions {
	if o.Nodes == 0 {
		o.Nodes = 4
	}
	if o.Pages == 0 {
		o.Pages = 256
	}
	if r := o.Pages % o.Nodes; r != 0 {
		o.Pages += o.Nodes - r
	}
	if o.Peers == 0 {
		o.Peers = 8
	}
	if o.Ops == 0 {
		o.Ops = 20000
	}
	if o.PageReqEvery == 0 {
		o.PageReqEvery = 4
	}
	return o
}

// HotpathResult is one HotpathBench measurement.
type HotpathResult struct {
	// Shards is the effective shard count (after rounding).
	Shards int `json:"shards"`
	// Peers and Ops echo the workload shape.
	Peers int `json:"peers"`
	Ops   int `json:"ops"`
	// ElapsedMS is the wall-clock time of the hammer phase.
	ElapsedMS float64 `json:"elapsed_ms"`
	// OpsPerSec is the aggregate serve throughput.
	OpsPerSec float64 `json:"ops_per_sec"`
	// ShardContention and SyncContention are the node-side contended
	// lock acquisition counts for the run (see Stats).
	ShardContention int64 `json:"shard_contention"`
	SyncContention  int64 `json:"sync_contention"`
}

// newHotpathCluster builds a cluster for the hot-path workload and seeds
// node 0's diff store: one stored diff (interval 1) for every page, so
// DiffRequests always hit. GC is disabled so the store survives the run.
func newHotpathCluster(o HotpathOptions) (*Cluster, error) {
	c, err := New(Config{
		Nodes:            o.Nodes,
		Pages:            o.Pages,
		ServiceShards:    o.ServiceShards,
		GCThresholdBytes: -1,
	})
	if err != nil {
		return nil, err
	}
	c.serviceHold = time.Duration(o.ServiceHoldUS) * time.Microsecond
	// Build one representative diff: a page with a few dirty words.
	twin := make([]byte, memlayout.PageSize)
	cur := make([]byte, memlayout.PageSize)
	for w := 0; w < 16; w++ {
		cur[w*128] = byte(w + 1)
	}
	df := MakeDiff(twin, cur)
	n := c.nodes[0]
	for p := 0; p < o.Pages; p++ {
		sh := n.shard(vm.PageID(p))
		sh.diffs[vm.PageID(p)] = map[int32]*diffRef{1: newDiffRef(append([]byte(nil), df...))}
	}
	return c, nil
}

// holdForBench parks the calling goroutine for the cluster's configured
// service hold; the caller keeps its shard lock held across the park.
// Production clusters have serviceHold == 0, so this is one predictable
// branch on the serve path.
func (n *node) holdForBench() {
	if d := n.c.serviceHold; d > 0 {
		time.Sleep(d)
	}
}

// hotpathOp issues the i-th request of worker w against node 0: a
// DiffRequest for a page striding across shards, or (every
// PageReqEvery-th op) a PageRequest for a page node 0 manages.
func (c *Cluster) hotpathOp(o HotpathOptions, w, i int) error {
	from := 1 + w%(c.cfg.Nodes-1)
	if o.PageReqEvery > 0 && i%o.PageReqEvery == 0 {
		// Pages is a multiple of Nodes, so p is always manager-0 owned.
		p := c.cfg.Nodes * (i % (c.cfg.Pages / c.cfg.Nodes))
		return c.discardReply(from, &msg.PageRequest{From: int32(from), Page: int32(p)})
	}
	p := (w*37 + i) % c.cfg.Pages
	return c.discardReply(from, &msg.DiffRequest{From: int32(from), Page: int32(p), Intervals: []int32{1}})
}

// discardReply runs one payload-carrying round trip against node 0 and
// drops the reply unread, recycling its frame as a real requester would
// after applying it.
func (c *Cluster) discardReply(from int, m msg.Message) error {
	_, frame, _, err := c.callFrame(from, 0, m)
	if err == nil {
		msg.PutBuf(frame)
	}
	return err
}

// HotpathBench runs the multi-peer hammer workload once and reports the
// aggregate throughput. Peers pull op indices from a shared counter, so
// the load stays balanced regardless of scheduling.
func HotpathBench(o HotpathOptions) (HotpathResult, error) {
	o = o.withDefaults()
	if o.Nodes < 2 {
		return HotpathResult{}, fmt.Errorf("dsm: hotpath needs at least 2 nodes, got %d", o.Nodes)
	}
	c, err := newHotpathCluster(o)
	if err != nil {
		return HotpathResult{}, err
	}
	defer func() { _ = c.Close() }()

	// Short warm-up primes the buffer pools and the scheduler.
	for i := 0; i < 128; i++ {
		if err := c.hotpathOp(o, i%o.Peers, i); err != nil {
			return HotpathResult{}, err
		}
	}

	var (
		next    atomic.Int64
		wg      sync.WaitGroup
		errOnce sync.Once
		runErr  error
	)
	start := time.Now()
	for w := 0; w < o.Peers; w++ {
		wg.Add(1)
		go func(w int) {
			defer wg.Done()
			for {
				i := int(next.Add(1)) - 1
				if i >= o.Ops {
					return
				}
				if err := c.hotpathOp(o, w, i); err != nil {
					errOnce.Do(func() { runErr = err })
					return
				}
			}
		}(w)
	}
	wg.Wait()
	elapsed := time.Since(start)
	if runErr != nil {
		return HotpathResult{}, runErr
	}
	return HotpathResult{
		Shards:          c.shardCount,
		Peers:           o.Peers,
		Ops:             o.Ops,
		ElapsedMS:       float64(elapsed.Nanoseconds()) / 1e6,
		OpsPerSec:       float64(o.Ops) / elapsed.Seconds(),
		ShardContention: c.stats.ShardContention.Load(),
		SyncContention:  c.stats.SyncContention.Load(),
	}, nil
}
