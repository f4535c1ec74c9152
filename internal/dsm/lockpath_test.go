package dsm

import (
	"errors"
	"fmt"
	"hash/fnv"
	"math"
	"sync"
	"testing"

	"actdsm/internal/memlayout"
	"actdsm/internal/msg"
	"actdsm/internal/sim"
	"actdsm/internal/transport"
)

// The lock chain TestLockVariantsEquivalent drives: blocks of chainNodes
// turns on one lock, the locks in turn, every node taking one turn per
// block in an order that rotates by one each block. A turn reads and
// increments the lock's counter (word lock of page 0) and writes a word of
// its own in the lock's data page (page 1+lock); it also reads the word its
// lock's previous holder wrote on that node's turn before, under another
// lock. The rotation makes some of those writes reach the reader only
// transitively, through the previous holder's release. Node chainVictim
// takes no turns from step chainBoundary on, in every cell, so a cell that
// kills it computes what the others compute. The last turn before the
// boundary is the victim's, on lock 1, whose manager under LockShards 2 and
// chainNodes is node 1: the victim's ring standby.
const (
	chainNodes    = 4
	chainLocks    = 3
	chainSteps    = 36
	chainBoundary = 17
	chainVictim   = 0
	chainBarrier  = 12 // a barrier after every chainBarrier steps
)

// chainTurn returns who takes step and under which lock.
func chainTurn(step int) (node, lock int) {
	block := step / chainNodes
	return (step + block) % chainNodes, block % chainLocks
}

// lockCell is one configuration of the lock path.
type lockCell struct {
	shards  int  // Config.LockShards
	forward bool // Config.LockForwarding: grants name the holder to pull from
	ft      bool
	crash   string // "", or whom the crash leg kills: "primary" or "holder"
}

func (lc lockCell) String() string {
	return fmt.Sprintf("shards=%d/forward=%v/ft=%v/crash=%q", lc.shards, lc.forward, lc.ft, lc.crash)
}

// lockRun is what one cell produced.
type lockRun struct {
	digest uint64
	// toPrimaries is the cell's lock traffic minus the standby copies:
	// every LockAcquire and LockPull, and each LockRelease sent to the
	// lock's primary manager.
	toPrimaries []wireCall
	// records and boundary are the full call log and its length when the
	// chain reached chainBoundary, for placing a crash leg's crash.
	records  []transport.CallRecord
	boundary int
	snap     Snapshot
}

// runLockChain drives the chain under cell; crashAt, when non-nil, kills
// the victim at that transport call. It returns the New error of a
// configuration New refuses.
func runLockChain(t *testing.T, cell lockCell, crashAt *sim.CallKey) (lockRun, error) {
	t.Helper()
	const npages = 1 + chainLocks
	const wordsPerPage = memlayout.PageSize / 4
	var out lockRun
	log := &transport.CallLog{}
	var mu sync.Mutex                       // barrier fan-outs classify calls in parallel
	released := make(map[sim.CallKey]int32) // the lock each LockRelease names
	tag := func(key sim.CallKey, payload []byte) transport.Fault {
		if m, err := msg.Decode(payload); err == nil {
			if rel, ok := m.(*msg.LockRelease); ok {
				mu.Lock()
				released[key] = rel.Lock
				mu.Unlock()
			}
		}
		return transport.FaultNone
	}
	chaos := &transport.ChaosOptions{Plan: transport.RecordingPlan(tag, log)}
	if crashAt != nil {
		chaos.Crashes = []sim.CrashSchedule{{Node: chainVictim, At: *crashAt}}
	}
	c, err := New(Config{
		Nodes:            chainNodes,
		Pages:            npages,
		LockShards:       cell.shards,
		LockForwarding:   cell.forward,
		FaultTolerance:   cell.ft,
		GCThresholdBytes: -1,
		Chaos:            chaos,
	})
	if err != nil {
		return out, err
	}
	defer func() { _ = c.Close() }()

	takes := func(step int) bool {
		node, _ := chainTurn(step)
		return node != chainVictim || step < chainBoundary
	}
	own := func(step int) int { // the word a turn writes besides the counter
		_, lock := chainTurn(step)
		return (1+lock)*wordsPerPage + step*7%wordsPerPage
	}
	var want [chainLocks]float32
	for step := 0; step < chainSteps; step++ {
		if step == chainBoundary {
			out.boundary = log.Len()
		}
		node, lock := chainTurn(step)
		if takes(step) {
			if _, err := c.AcquireLock(node, node, int32(lock)); err != nil {
				t.Fatalf("%v step %d: %v", cell, step, err)
			}
			if got := rf32(t, c, node, node, lock); got != want[lock] {
				t.Fatalf("%v step %d: node %d reads %v under lock %d, the previous holder wrote %v",
					cell, step, node, got, lock, want[lock])
			}
			if step%chainNodes != 0 && takes(step-1) {
				// The previous holder's turn before this lock's.
				prevNode, _ := chainTurn(step - 1)
				for prev := step - 2; prev >= 0; prev-- {
					if n, _ := chainTurn(prev); n != prevNode || !takes(prev) {
						continue
					}
					if got := rf32(t, c, node, node, own(prev)); got != float32(prev) {
						t.Fatalf("%v step %d: node %d reads %v where node %d wrote %v on step %d, before it released lock %d to it",
							cell, step, node, got, prevNode, prev, prev, lock)
					}
					break
				}
			}
			want[lock]++
			wf32(t, c, node, node, lock, want[lock])
			wf32(t, c, node, node, own(step), float32(step))
			if _, err := c.ReleaseLock(node, node, int32(lock)); err != nil {
				t.Fatalf("%v step %d: %v", cell, step, err)
			}
		}
		if (step+1)%chainBarrier == 0 {
			barrier(t, c)
		}
	}

	out.records = log.Records()
	for _, r := range out.records {
		switch msg.Kind(r.Kind) {
		case msg.KindLockAcquire, msg.KindLockPull:
		case msg.KindLockRelease:
			if r.To != c.lockManager(released[r.CallKey]) {
				continue
			}
		default:
			continue
		}
		out.toPrimaries = append(out.toPrimaries, wireCall{r.From, r.To, msg.Kind(r.Kind), 0})
	}
	out.snap = c.Stats().Snapshot()
	for node := 0; node < chainNodes; node++ {
		if node == chainVictim {
			continue // dead in the crash legs
		}
		h := fnv.New64a()
		for w := 0; w < npages*wordsPerPage; w++ {
			bits := math.Float32bits(rf32(t, c, node, node, w))
			h.Write([]byte{byte(bits), byte(bits >> 8), byte(bits >> 16), byte(bits >> 24)})
		}
		if out.digest == 0 {
			out.digest = h.Sum64()
		} else if h.Sum64() != out.digest {
			t.Fatalf("%v: node %d memory digest %x differs from the first survivor's %x", cell, node, h.Sum64(), out.digest)
		}
	}
	if err := c.CheckCoherence(); err != nil {
		t.Fatalf("%v: %v", cell, err)
	}
	return out, nil
}

// crashCallFor places a crash leg's crash from the fault-free run of the
// same configuration: the first call to the victim after the boundary that
// reaches it as the lock's primary manager (an acquire), or as the holder
// of the lock it released last (the pull, or the fetch of its diffs or
// pages).
func crashCallFor(crash string, cal lockRun) *sim.CallKey {
	for _, r := range cal.records[cal.boundary:] {
		if r.To != chainVictim {
			continue
		}
		switch msg.Kind(r.Kind) {
		case msg.KindLockAcquire:
			if crash == "primary" {
				return &r.CallKey
			}
		case msg.KindLockPull, msg.KindDiffRequest, msg.KindPageRequest:
			if crash == "holder" {
				return &r.CallKey
			}
		}
	}
	return nil
}

// TestLockVariantsEquivalent is the proof that the lock path is one
// mechanism whichever node serves it. One lock chain runs in every cell of
// {LockShards 1, 2, one per node} x {grant forwarding off, on} x {fault
// tolerance off, on} x {no crash, kill the lock's primary, kill the last
// holder}: every acquire must read the value the previous holder wrote, and
// every cell must end with the same memory. With nothing crashing, fault
// tolerance may only add the standby copies: the lock traffic to primaries
// is the same call sequence with it off and on. New refuses the crash legs
// without fault tolerance, by name.
func TestLockVariantsEquivalent(t *testing.T) {
	var ref uint64
	for _, shards := range []int{1, 2, chainNodes} {
		for _, forward := range []bool{false, true} {
			var plain, cal lockRun
			for _, ft := range []bool{false, true} {
				for _, crash := range []string{"", "primary", "holder"} {
					cell := lockCell{shards, forward, ft, crash}
					t.Run(cell.String(), func(t *testing.T) {
						var crashAt *sim.CallKey
						switch {
						case crash != "" && !ft:
							crashAt = &sim.CallKey{To: chainVictim} // any schedule: New refuses it
						case crash != "":
							if crashAt = crashCallFor(crash, cal); crashAt == nil {
								t.Fatal("calibration saw no call to place the crash at")
							}
						}
						r, err := runLockChain(t, cell, crashAt)
						if errors.Is(err, errCrashNeedsFT) {
							t.Skip(err)
						}
						if err != nil {
							t.Fatal(err)
						}
						if ref == 0 {
							ref = r.digest
						}
						if r.digest != ref {
							t.Fatalf("memory digest %x, want %x", r.digest, ref)
						}
						switch {
						case crash != "":
							if r.snap.Crashes != 1 || r.snap.Failovers == 0 {
								t.Fatalf("Crashes/Failovers = %d/%d, want 1 and some", r.snap.Crashes, r.snap.Failovers)
							}
						case !ft:
							plain = r
						default:
							cal = r
							if fmt.Sprint(r.toPrimaries) != fmt.Sprint(plain.toPrimaries) {
								t.Fatalf("lock traffic to primaries differs with fault tolerance on:\noff: %v\non:  %v",
									plain.toPrimaries, r.toPrimaries)
							}
						}
					})
				}
			}
		}
	}
}
