package dsm

import (
	"fmt"

	"actdsm/internal/msg"
	"actdsm/internal/vm"
)

// Single-writer protocol: the classic ownership-based coherence of
// sequentially-consistent DSMs (Ivy/Mirage lineage). Exactly one node owns
// a page at a time; readers hold replicas that a write invalidates, and
// every transfer ships the whole page. There are no twins, diffs, or
// write notices — and correspondingly no tolerance for concurrent
// writers: two nodes writing disjoint words of one page ping-pong the
// whole page back and forth (false sharing).
//
// The paper's §6 argues this is why suspension-scheduling-style fixes are
// obsolete once a relaxed-consistency multi-writer protocol is used; the
// AblationProtocol experiment makes that argument measurable. Ownership
// is tracked at each page's manager; requester-side virtual time charges
// cover the requester's round trip (manager-side fan-out latency is
// reflected in message counts but not charged — a documented
// simplification).
//
// Locking: the manager-side ownership table (n.sw) lives under its own
// leaf mutex (n.swMu); page data, protections, and hasCopy live under
// the page's shard lock, exactly as in the multi-writer protocol, and
// the fault path charges the span in progress (n.spanCharge) directly. No
// path holds both at once, and neither is held across a transport call.
// Serve-side full-page images come from the page-buffer pool and are
// recycled by the transport handler after encoding (recycleReply); an
// image the manager forwards from the owner is copied into one first
// (swOwnerImage). Requester-side images are views of the reply frame,
// which is recycled once they have been copied into the segment.

// Protocol selects the coherence protocol.
type Protocol uint8

// Protocols.
const (
	// MultiWriter is the CVM-like lazy-release-consistency protocol
	// (default).
	MultiWriter Protocol = iota + 1
	// SingleWriter is the ownership/invalidation protocol.
	SingleWriter
)

// swState is the manager-side ownership record of one page.
type swState struct {
	owner int32
	// copyset is a bitmask of nodes holding read replicas (bit per
	// node; owner included).
	copyset uint64
}

// initSingleWriter seeds ownership at the managers.
func (n *node) initSingleWriter() {
	n.sw = make([]swState, len(n.pages))
	for p := range n.sw {
		if n.c.staticHome(vm.PageID(p)) == n.id {
			n.sw[p] = swState{owner: int32(n.id), copyset: 1 << uint(n.id)}
		}
	}
}

// swGet reads one page's ownership record under the ownership mutex.
func (n *node) swGet(p vm.PageID) swState {
	n.swMu.Lock()
	st := n.sw[p]
	n.swMu.Unlock()
	return st
}

// resolveFaultSW is the single-writer fault path.
func (n *node) resolveFaultSW(tid int, p vm.PageID, a vm.Access) error {
	c := n.c
	c.stats.CoherenceFaults.Add(1)
	n.spanCharge.Overhead += c.costs.SoftFault
	mgr := c.staticHome(p)

	var remote bool
	var err error
	if mgr == n.id {
		remote, err = n.swManagerLocalFault(p, a)
	} else {
		remote, err = n.swRemoteFault(mgr, p, a)
	}
	if err != nil {
		return err
	}
	if remote {
		c.stats.RemoteMisses.Add(1)
		c.notifyRemoteFault(n.id, tid, p)
	}
	return nil
}

// swRemoteFault handles a fault on a node that does not manage the page:
// one round trip to the manager resolves everything.
func (n *node) swRemoteFault(mgr int, p vm.PageID, a vm.Access) (bool, error) {
	c := n.c
	var req msg.Message
	if a == vm.Write {
		req = &msg.SWWrite{From: int32(n.id), Page: int32(p)}
	} else {
		req = &msg.SWRead{From: int32(n.id), Page: int32(p)}
	}
	pr, frame, wire, err := c.callPage(n.id, mgr, req, p, true)
	if err != nil {
		return false, fmt.Errorf("dsm: node %d sw fault page %d: %w", n.id, p, err)
	}
	c.stats.PageFetches.Add(1)
	n.spanCharge.Stall += wire

	sh := n.lockShard(p)
	st := &n.pages[p]
	copy(n.pageData(p), pr.Data) // no image: this node already held the data
	st.hasCopy = true
	if a == vm.Write {
		n.as.SetProt(p, vm.ProtReadWrite)
	} else {
		n.as.SetProt(p, vm.ProtRead)
	}
	n.unlockShard(sh)
	msg.PutBuf(frame) // pr.Data was a view of it
	return true, nil
}

// swManagerLocalFault handles the manager's own access to a page it
// manages.
func (n *node) swManagerLocalFault(p vm.PageID, a vm.Access) (bool, error) {
	st := n.swGet(p)
	remote := false

	if int(st.owner) != n.id {
		// Fetch (and for writes, take) the page from the owner.
		var req msg.Message
		if a == vm.Write {
			req = &msg.SWFlush{Page: int32(p)}
		} else {
			req = &msg.SWDowngrade{Page: int32(p)}
		}
		pr, frame, wire, err := n.c.callPage(n.id, int(st.owner), req, p, false)
		if err != nil {
			return false, fmt.Errorf("dsm: manager %d sw fetch page %d: %w", n.id, p, err)
		}
		n.c.stats.PageFetches.Add(1)
		n.spanCharge.Stall += wire
		sh := n.lockShard(p)
		copy(n.pageData(p), pr.Data)
		n.pages[p].hasCopy = true
		n.unlockShard(sh)
		msg.PutBuf(frame) // pr.Data was a view of it
		remote = true
	}

	if a == vm.Write {
		if rem, err := n.swInvalidateOthers(p, n.id, int(st.owner)); err != nil {
			return false, err
		} else if rem {
			remote = true
		}
		n.swMu.Lock()
		n.sw[p] = swState{owner: int32(n.id), copyset: 1 << uint(n.id)}
		n.swMu.Unlock()
		sh := n.lockShard(p)
		n.as.SetProt(p, vm.ProtReadWrite)
		n.unlockShard(sh)
	} else {
		n.swMu.Lock()
		n.sw[p].copyset |= 1 << uint(n.id)
		if int(n.sw[p].owner) != n.id {
			// The old owner keeps a read replica after downgrade.
			n.sw[p].copyset |= 1 << uint(st.owner)
		}
		n.swMu.Unlock()
		sh := n.lockShard(p)
		n.as.SetProt(p, vm.ProtRead)
		n.unlockShard(sh)
	}
	return remote, nil
}

// swInvalidateOthers drops every replica except keep1/keep2; returns
// whether any remote message was sent.
func (n *node) swInvalidateOthers(p vm.PageID, keep1, keep2 int) (bool, error) {
	cs := n.swGet(p).copyset
	sent := false
	for node := 0; node < n.c.cfg.Nodes; node++ {
		if cs&(1<<uint(node)) == 0 || node == keep1 || node == keep2 {
			continue
		}
		if node == n.id {
			n.swDropLocal(p)
			continue
		}
		if _, _, err := n.c.call(n.id, node, &msg.SWInvalidate{Page: int32(p)}); err != nil {
			return sent, fmt.Errorf("dsm: invalidate page %d at node %d: %w", p, node, err)
		}
		sent = true
	}
	return sent, nil
}

func (n *node) swDropLocal(p vm.PageID) {
	sh := n.lockShard(p)
	n.pages[p].hasCopy = false
	n.as.SetProt(p, vm.ProtNone)
	n.unlockShard(sh)
}

// serveSWRead runs at the manager: join the copyset and return current
// data (downgrading the owner to read-only).
func (n *node) serveSWRead(req *msg.SWRead) (msg.Message, error) {
	p := vm.PageID(req.Page)
	if n.c.staticHome(p) != n.id {
		return nil, fmt.Errorf("dsm: node %d is not manager of page %d", n.id, p)
	}
	st := n.swGet(p)

	var data []byte
	switch int(st.owner) {
	case n.id:
		sh := n.lockShard(p)
		data = getPageBuf()
		copy(data, n.pageData(p))
		if n.as.Prot(p) == vm.ProtReadWrite {
			n.as.SetProt(p, vm.ProtRead)
		}
		n.unlockShard(sh)
	case int(req.From):
		// Requester is the owner asking to read — should not fault,
		// but answer benignly with no data.
	default:
		var err error
		if data, err = n.swOwnerImage(int(st.owner), &msg.SWDowngrade{Page: req.Page}, p); err != nil {
			return nil, fmt.Errorf("dsm: sw read page %d: %w", p, err)
		}
	}
	n.swMu.Lock()
	n.sw[p].copyset |= 1 << uint(req.From)
	n.swMu.Unlock()
	return &msg.PageReply{Page: req.Page, Data: data}, nil
}

// swOwnerImage has the manager fetch page p from its owner (req is the
// downgrade or the flush) on a requester's behalf and returns the image
// in a page-pool buffer. Retain site: the image rides the manager's own
// reply, which is encoded after the serve returns, so it is copied out of
// the owner's reply frame — into a getPageBuf buffer, which is what
// recycleReply expects to take back.
func (n *node) swOwnerImage(owner int, req msg.Message, p vm.PageID) ([]byte, error) {
	pr, frame, _, err := n.c.callPage(n.id, owner, req, p, false)
	if err != nil {
		return nil, err
	}
	data := getPageBuf()
	copy(data, pr.Data)
	msg.PutBuf(frame)
	return data, nil
}

// serveSWWrite runs at the manager: flush the owner, invalidate replicas,
// and transfer ownership to the requester.
func (n *node) serveSWWrite(req *msg.SWWrite) (msg.Message, error) {
	p := vm.PageID(req.Page)
	if n.c.staticHome(p) != n.id {
		return nil, fmt.Errorf("dsm: node %d is not manager of page %d", n.id, p)
	}
	st := n.swGet(p)

	var data []byte
	switch int(st.owner) {
	case int(req.From):
		// Ownership upgrade: requester already has current data.
	case n.id:
		sh := n.lockShard(p)
		data = getPageBuf()
		copy(data, n.pageData(p))
		n.unlockShard(sh)
		n.swDropLocal(p)
	default:
		var err error
		if data, err = n.swOwnerImage(int(st.owner), &msg.SWFlush{Page: req.Page}, p); err != nil {
			return nil, fmt.Errorf("dsm: sw write page %d: %w", p, err)
		}
	}
	if _, err := n.swInvalidateOthers(p, int(req.From), int(st.owner)); err != nil {
		return nil, err
	}
	// The old owner surrendered its copy above (flush); ensure it is
	// not left in the copyset.
	n.swMu.Lock()
	n.sw[p] = swState{owner: req.From, copyset: 1 << uint(req.From)}
	n.swMu.Unlock()
	return &msg.PageReply{Page: req.Page, Data: data}, nil
}

// serveSWDowngrade runs at the owner: keep a read-only replica and return
// the data.
func (n *node) serveSWDowngrade(req *msg.SWDowngrade) (msg.Message, error) {
	p := vm.PageID(req.Page)
	sh := n.lockShard(p)
	data := getPageBuf()
	copy(data, n.pageData(p))
	if n.as.Prot(p) == vm.ProtReadWrite {
		n.as.SetProt(p, vm.ProtRead)
	}
	n.unlockShard(sh)
	return &msg.PageReply{Page: req.Page, Data: data}, nil
}

// serveSWFlush runs at the owner: surrender the page entirely.
func (n *node) serveSWFlush(req *msg.SWFlush) (msg.Message, error) {
	p := vm.PageID(req.Page)
	sh := n.lockShard(p)
	data := getPageBuf()
	copy(data, n.pageData(p))
	n.pages[p].hasCopy = false
	n.as.SetProt(p, vm.ProtNone)
	n.unlockShard(sh)
	return &msg.PageReply{Page: req.Page, Data: data}, nil
}

// serveSWInvalidate drops a read replica.
func (n *node) serveSWInvalidate(req *msg.SWInvalidate) (msg.Message, error) {
	n.swDropLocal(vm.PageID(req.Page))
	return &msg.Ack{}, nil
}
