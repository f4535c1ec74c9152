package dsm

import (
	"bytes"
	"errors"
	"fmt"
	"sync"
	"testing"

	"actdsm/internal/memlayout"
	"actdsm/internal/msg"
	"actdsm/internal/transport"
	"actdsm/internal/vm"
)

// Buffer-ownership tests: msg.Decode borrows, so a decoded page image or
// diff is a view of a wire frame that goes back to the buffer pool. These
// tests hold the protocol to the two rules that makes safe — the frame
// outlives every read of the payload, and whatever is kept longer is a
// copy — without relying on what the pool happens to hand out next.

// frameTap sits where Cluster.tr was and remembers every frame that
// crosses it: the request buffers handlers decode from and the reply
// buffers requesters decode from. scribble then overwrites them all, as
// the next users of those pooled buffers eventually would.
type frameTap struct {
	transport.Transport
	mu     sync.Mutex
	frames [][]byte
}

func tapFrames(c *Cluster) *frameTap {
	tap := &frameTap{Transport: c.tr}
	c.tr = tap
	return tap
}

func (t *frameTap) Call(from, to int, payload []byte) ([]byte, error) {
	reply, err := t.Transport.Call(from, to, payload)
	t.mu.Lock()
	t.frames = append(t.frames, payload[:cap(payload)], reply[:cap(reply)])
	t.mu.Unlock()
	return reply, err
}

// scribble overwrites every frame seen so far and forgets them. Only
// call it while the cluster is idle: the frames are back in the pool.
func (t *frameTap) scribble() {
	t.mu.Lock()
	defer t.mu.Unlock()
	for _, f := range t.frames {
		for i := range f {
			f[i] = 0xDB
		}
	}
	t.frames = nil
}

// dirtyPage has node write a recognizable pattern over every word of
// page p and returns the page as written.
func dirtyPage(t *testing.T, c *Cluster, node int, p vm.PageID, salt byte) []byte {
	t.Helper()
	b := mustSpan(t, c, node, node, int(p)*memlayout.PageSize, memlayout.PageSize, vm.Write)
	for i := range b {
		b[i] = byte(i)*3 + salt
	}
	return append([]byte(nil), b...)
}

func TestRetainedPayloadsSurviveFrameReuse(t *testing.T) {
	t.Run("replica delta", func(t *testing.T) {
		c, err := New(Config{Nodes: 3, Pages: 3, FaultTolerance: true, Chaos: &transport.ChaosOptions{}})
		if err != nil {
			t.Fatal(err)
		}
		t.Cleanup(func() { _ = c.Close() })
		tap := tapFrames(c)
		dirtyPage(t, c, 1, 0, 7)
		dirtyPage(t, c, 1, 2, 9)
		barrier(t, c) // closes node 1's interval and ships the delta to node 2
		tap.scribble()

		writer, standby := c.nodes[1], c.nodes[2]
		checked := 0
		for _, p := range []vm.PageID{0, 2} {
			for iv, ref := range writer.shard(p).diffs[p] {
				got := standby.replDiffs[1][p][iv]
				if !bytes.Equal(got, ref.b) {
					t.Errorf("page %d interval %d: replica store holds %d bytes that differ from the writer's %d-byte diff",
						p, iv, len(got), len(ref.b))
				}
				checked++
			}
		}
		if checked != 2 {
			t.Fatalf("checked %d replicated diffs, want 2", checked)
		}
	})

	// A dead writer's diffs come out of that replica store through the
	// same serve body as any others: over the wire in the standby's reply
	// frame to a third node, and by a local read to the standby itself.
	for _, batch := range []bool{false, true} {
		t.Run(fmt.Sprintf("replica serve/batch=%v", batch), func(t *testing.T) {
			c, err := New(Config{Nodes: 3, Pages: 3, FaultTolerance: true, BatchDiffs: batch, Chaos: &transport.ChaosOptions{}})
			if err != nil {
				t.Fatal(err)
			}
			t.Cleanup(func() { _ = c.Close() })
			tap := tapFrames(c)
			// Page 1 is homed at the writer, node 1, so its standby, node 2,
			// starts with a copy; node 0 fetches one.
			mustSpan(t, c, 0, 0, memlayout.PageSize, 4, vm.Read)
			barrier(t, c)
			written := dirtyPage(t, c, 1, 1, 3)
			barrier(t, c) // the notices are out, the diffs replicated
			if err := c.Kill(1); err != nil {
				t.Fatal(err)
			}
			for _, reader := range []int{0, 2} {
				got := append([]byte(nil), mustSpan(t, c, reader, reader, memlayout.PageSize, memlayout.PageSize, vm.Read)...)
				tap.scribble()
				if !bytes.Equal(got, written) {
					t.Fatalf("node %d read a page that differs from what the dead writer wrote", reader)
				}
				if !bytes.Equal(mustSpan(t, c, reader, reader, memlayout.PageSize, memlayout.PageSize, vm.Read), written) {
					t.Fatalf("node %d's page changed when the frames it was fetched in were overwritten", reader)
				}
			}
			if s := c.stats.Snapshot(); s.PageFetches != 1 || s.DiffFetches+s.DiffBatchFetches != 2 {
				t.Fatalf("%d page fetches and %d diff fetches, want node 0's first copy and one diff fetch per reader",
					s.PageFetches, s.DiffFetches+s.DiffBatchFetches)
			}
		})
	}

	t.Run("push collection", func(t *testing.T) {
		c, err := New(Config{Nodes: 3, Pages: 3, PrefetchBudget: -1, BatchDiffs: true})
		if err != nil {
			t.Fatal(err)
		}
		t.Cleanup(func() { _ = c.Close() })
		tap := tapFrames(c)
		// Node 1 writes page 1 (fetched over the wire by the root) and
		// the root writes page 0 (read from its own store).
		dirtyPage(t, c, 1, 1, 1)
		dirtyPage(t, c, 0, 0, 2)
		var notices []msg.Notice
		for _, n := range c.nodes[:2] {
			closed, _ := n.closeInterval()
			notices = append(notices, closed...)
		}
		hot := map[int32][]int32{0: {1}, 2: {0, 1}}
		push, _, err := c.collectPushDiffs(0, hot, notices)
		if err != nil {
			t.Fatal(err)
		}
		tap.scribble()

		want := func(nt msg.Notice) []byte {
			p := vm.PageID(nt.Page)
			return c.nodes[nt.Writer].shard(p).diffs[p][nt.Interval].b
		}
		seen := 0
		for dest, list := range push {
			for _, pd := range list {
				stored := want(msg.Notice{Page: pd.Page, Writer: pd.Writer, Interval: pd.Interval})
				if !bytes.Equal(pd.Diff, stored) {
					t.Errorf("push to %d, page %d writer %d: diff changed with the frame it came in", dest, pd.Page, pd.Writer)
				}
				seen++
			}
		}
		if seen != 3 {
			t.Fatalf("collected %d pushed diffs, want 3 (%v)", seen, push)
		}
	})

	t.Run("relayed release", func(t *testing.T) {
		c, err := New(Config{Nodes: 4, Pages: 4, BarrierArity: 2, PrefetchBudget: -1, BatchDiffs: true})
		if err != nil {
			t.Fatal(err)
		}
		t.Cleanup(func() { _ = c.Close() })
		diff := MakeDiff(page(), bytes.Repeat([]byte{1, 2, 3, 4}, memlayout.PageSize/4))
		// Node 1 (tree position 1, parent of 3) receives a release whose
		// relay table holds node 3's push; the frame is this test's.
		frame := msg.Encode(&msg.BarrierRelease{
			Relay: []msg.NodePush{{Node: 3, Push: []msg.PushedDiff{{Page: 2, Writer: 0, Interval: 1, Diff: diff}}}},
		})
		if _, err := c.tr.Call(0, 1, frame); err != nil {
			t.Fatal(err)
		}
		for i := range frame {
			frame[i] = 0xDB
		}
		rel, err := c.buildChildRelease([]int{0, 1, 2, 3}, 2, 1, 3, 0)
		if err != nil {
			t.Fatal(err)
		}
		if len(rel.Push) != 1 || !bytes.Equal(rel.Push[0].Diff, diff) {
			t.Fatal("relayed push changed with the frame the release arrived in")
		}
	})

	t.Run("single-writer forward", func(t *testing.T) {
		c, err := New(Config{Nodes: 3, Pages: 3, Protocol: SingleWriter})
		if err != nil {
			t.Fatal(err)
		}
		t.Cleanup(func() { _ = c.Close() })
		tap := tapFrames(c)
		written := dirtyPage(t, c, 1, 0, 5) // node 1 takes page 0 from its manager, node 0
		for _, req := range []msg.Message{
			&msg.SWRead{From: 2, Page: 0},  // manager downgrades the owner
			&msg.SWWrite{From: 2, Page: 0}, // manager flushes the owner
		} {
			reply, _, err := c.nodes[0].serve(2, req)
			if err != nil {
				t.Fatal(err)
			}
			tap.scribble()
			pr := reply.(*msg.PageReply)
			if !bytes.Equal(pr.Data, written) {
				t.Errorf("%T: forwarded image changed with the owner's reply frame", req)
			}
			recycle(reply)
		}
	})
}

// TestCallRefusesPayloadReplies: call recycles the reply frame before it
// returns, so it must not hand out a reply that lives in that frame.
func TestCallRefusesPayloadReplies(t *testing.T) {
	c := newTestCluster(t, 2, 2)
	for _, req := range []msg.Message{
		&msg.PageRequest{From: 1, Page: 0},
		&msg.DiffRequest{From: 1, Page: 0, Writer: 0, Intervals: []int32{1}},
		&msg.DiffBatchRequest{From: 1, Writer: 0, Pages: []msg.PageIntervals{{Page: 0, Intervals: []int32{1}}}},
	} {
		reply, _, err := c.call(1, 0, req)
		if !errors.Is(err, errPayloadReply) || reply != nil {
			t.Errorf("%T through call: reply %v, err %v; want errPayloadReply", req, reply, err)
		}
	}
	if _, _, err := c.call(1, 0, &msg.GCCollect{Pages: []int32{1}}); err != nil {
		t.Errorf("control reply through call: %v", err)
	}
}

// cannedTransport answers every call by encoding whatever reply builds
// from the decoded request: a hand-built peer for the malformed-reply
// table below.
type cannedTransport struct {
	reply func(req msg.Message) msg.Message
}

func (ct cannedTransport) Call(_, _ int, payload []byte) ([]byte, error) {
	req, err := msg.Decode(payload)
	if err != nil {
		return nil, err
	}
	return msg.EncodeTo(msg.GetBuf(), ct.reply(req)), nil
}

func (cannedTransport) Close() error { return nil }

// TestMalformedBulkRepliesRejected: a short image, a reply for another
// page, a diff count that does not match the request and — on the batched
// kind — a page list of the wrong length are each refused by name, before
// the requester's state or counters move.
func TestMalformedBulkRepliesRejected(t *testing.T) {
	image := func(n int) []byte { return bytes.Repeat([]byte{0xEE}, n) }
	batch := func(pages ...msg.PageDiffs) msg.Message { return &msg.DiffBatchReply{Pages: pages} }
	// Node 1 asks for page 0, whose home and only writer is node 0.
	pending := []msg.Notice{{Page: 0, Writer: 0, Interval: 1, Lam: 1}, {Page: 0, Writer: 0, Interval: 2, Lam: 2}}
	const (
		viaPage  = iota // through fetchFullPage
		viaDiffs        // through fetchAndApplyDiffs, one DiffRequest per writer
		viaBatch        // the same with Config.BatchDiffs: one DiffBatchRequest per writer
	)
	for _, tc := range []struct {
		name  string
		via   int
		reply msg.Message
		want  error
	}{
		{"short image", viaPage, &msg.PageReply{Page: 0, Data: image(memlayout.PageSize - 4)}, errPageImage},
		{"long image", viaPage, &msg.PageReply{Page: 0, Data: image(memlayout.PageSize + 4)}, errPageImage},
		{"no image", viaPage, &msg.PageReply{Page: 0}, errPageImage},
		{"image of another page", viaPage, &msg.PageReply{Page: 1, Data: image(memlayout.PageSize)}, errReplyPage},
		{"not a page reply", viaPage, &msg.Ack{}, errReplyShape},
		{"diffs of another page", viaDiffs, &msg.DiffReply{Page: 1, Diffs: make([][]byte, 2)}, errReplyPage},
		{"too few diffs", viaDiffs, &msg.DiffReply{Page: 0, Diffs: make([][]byte, 1)}, errDiffCount},
		{"too many diffs", viaDiffs, &msg.DiffReply{Page: 0, Diffs: make([][]byte, 3)}, errDiffCount},
		{"not a diff reply", viaDiffs, &msg.Ack{}, errReplyShape},
		{"batch: not a batch reply", viaBatch, &msg.DiffReply{Page: 0, Diffs: make([][]byte, 2)}, errReplyShape},
		{"batch: no pages", viaBatch, batch(), errPageCount},
		{"batch: too many pages", viaBatch,
			batch(msg.PageDiffs{Page: 0, Diffs: make([][]byte, 2)}, msg.PageDiffs{Page: 1}), errPageCount},
		{"batch: diffs of another page", viaBatch, batch(msg.PageDiffs{Page: 1, Diffs: make([][]byte, 2)}), errReplyPage},
		{"batch: too few diffs", viaBatch, batch(msg.PageDiffs{Page: 0, Diffs: [][]byte{{1}}}), errDiffCount},
		{"batch: too many diffs", viaBatch, batch(msg.PageDiffs{Page: 0, Diffs: [][]byte{{1}, {2}, {3}}}), errDiffCount},
	} {
		t.Run(tc.name, func(t *testing.T) {
			c, err := New(Config{Nodes: 2, Pages: 2, BatchDiffs: tc.via == viaBatch})
			if err != nil {
				t.Fatal(err)
			}
			t.Cleanup(func() { _ = c.Close() })
			c.tr = cannedTransport{reply: func(msg.Message) msg.Message { return tc.reply }}
			n := c.nodes[1]
			st := &n.pages[0]
			before := append([]byte(nil), n.pageData(0)...)

			if tc.via == viaPage {
				err = n.fetchFullPage(nil, -1, 0, ApplyDemand)
				if st.hasCopy {
					t.Error("hasCopy set from a rejected reply")
				}
			} else {
				// The node holds a copy with two notices pending.
				st.hasCopy = true
				st.pending = append([]msg.Notice(nil), pending...)
				var ok bool
				ok, err = n.fetchAndApplyDiffs(nil, -1, 0, append([]msg.Notice(nil), pending...), ApplyDemand)
				if ok {
					t.Error("fetchAndApplyDiffs reported success")
				}
				if len(st.pending) != 2 {
					t.Errorf("pending set changed: %v", st.pending)
				}
			}
			if !errors.Is(err, tc.want) {
				t.Fatalf("err = %v, want %v", err, tc.want)
			}
			if !bytes.Equal(n.pageData(0), before) {
				t.Error("page bytes changed")
			}
			s := c.stats.Snapshot()
			moved := s.Counters()
			moved.Messages, moved.BytesTotal = 0, 0 // the round trip itself is traffic
			if moved != (Counters{}) || s.BatchSizeHist != [BatchSizeBuckets]int64{} {
				t.Errorf("counters moved: %+v, batch sizes %v", moved, s.BatchSizeHist)
			}
		})
	}
}

// TestFetchReleasesFramesOnEveryPath drives the fetch paths through their
// early exits (a garbage-collected diff, a failed apply) under the tap
// and checks that what they return is still right once every frame they
// saw has been overwritten — i.e. nothing read a frame after letting go
// of it, whichever way the fetch ended.
func TestFetchReleasesFramesOnEveryPath(t *testing.T) {
	for _, batch := range []bool{false, true} {
		t.Run(fmt.Sprintf("batch=%v", batch), func(t *testing.T) {
			c, err := New(Config{Nodes: 3, Pages: 3, BatchDiffs: batch, GCThresholdBytes: -1})
			if err != nil {
				t.Fatal(err)
			}
			t.Cleanup(func() { _ = c.Close() })
			tap := tapFrames(c)
			// Node 2 holds page 0; nodes 0 and 1 then write disjoint
			// halves of it, so node 2's next read needs a diff from each.
			mustSpan(t, c, 2, 2, 0, 4, vm.Read)
			barrier(t, c)
			for round := 0; round < 3; round++ {
				lo := mustSpan(t, c, 0, 0, 0, 2048, vm.Write)
				hi := mustSpan(t, c, 1, 1, 2048, 2048, vm.Write)
				for i := range lo {
					lo[i], hi[i] = byte(i+round), byte(2*i+round)
				}
				want := append(append([]byte(nil), lo...), hi...)
				barrier(t, c)
				if round == 1 {
					// Writer 1 loses its diffs once the home (node 0) has
					// applied them: node 2's fetch from writer 0 succeeds,
					// the one from writer 1 comes back empty, and the read
					// falls back to a full page.
					mustSpan(t, c, 0, 0, 0, memlayout.PageSize, vm.Read)
					sh := c.nodes[1].lockShard(0)
					for _, d := range sh.diffs[0] {
						d.release()
					}
					delete(sh.diffs, 0)
					c.nodes[1].unlockShard(sh)
				}
				got := append([]byte(nil), mustSpan(t, c, 2, 2, 0, memlayout.PageSize, vm.Read)...)
				tap.scribble()
				if !bytes.Equal(got, want) {
					t.Fatalf("round %d: node 2 read a page that differs from what 0 and 1 wrote", round)
				}
				if !bytes.Equal(mustSpan(t, c, 2, 2, 0, memlayout.PageSize, vm.Read), want) {
					t.Fatalf("round %d: node 2's page changed when the frames it was fetched in were overwritten", round)
				}
			}
		})
	}
}
