package transport

import (
	"encoding/binary"
	"fmt"
	"io"
	"net"
	"sync"
	"sync/atomic"
	"time"

	"actdsm/internal/msg"
)

// The wire discipline is one pipelined stream per (from, to) pair:
//
//   - every call is tagged with a connection-local request ID, so many
//     callers send concurrently and replies match out of order through a
//     pending-call table;
//   - a dedicated writer goroutine batches ready frames into one
//     vectored write (net.Buffers → writev), so bursts of small control
//     messages share syscalls;
//   - frames live in pooled msg buffers end to end, so the steady-state
//     send path allocates nothing.
//
// Wire format after the 4-byte "ACTM" dial preamble:
//
//	request: [u32 plen][u32 id][u32 meta][payload]   meta = from | 1<<31 (deflated)
//	reply:   [u32 plen][u32 id][u8 status][payload]  status |= 0x80 (deflated)
//
// The status low bits are the tcpOK/tcpErr* values, so sentinel errors
// survive the wire.

// muxPreamble is the magic a dialed connection opens with; the accept
// loop closes a peer that sends anything else.
var muxPreamble = [4]byte{'A', 'C', 'T', 'M'}

const (
	// muxCompressed flags a deflated reply payload in the status byte.
	muxCompressed = byte(0x80)
	// muxCompressed32 flags a deflated request payload in the meta word.
	muxCompressed32 = uint32(1) << 31
)

// timeoutError marks a call that exceeded Options.CallTimeout. It
// implements net.Error with Timeout() true so Retryable treats it like
// a socket deadline error.
type timeoutError struct{}

func (timeoutError) Error() string   { return "transport: call timeout" }
func (timeoutError) Timeout() bool   { return true }
func (timeoutError) Temporary() bool { return true }

var errCallTimeout net.Error = timeoutError{}

// getFrameBuf returns a pooled buffer resliced to exactly n bytes,
// allocating only when the pooled capacity is too small. The fresh
// allocation carries headroom past n: an exact-fit buffer would be
// recycled, picked up by a sender, and outgrown by the 12-byte frame
// header around an equal-sized payload — the growth re-allocates and
// leaks the pooled array, so the pool never converges and every call
// allocates. With slack, circulating buffers converge on capacities
// that fit both the bare payload and its framed copy.
func getFrameBuf(n int) []byte {
	b := msg.GetBuf()
	if cap(b) < n {
		// Drop the small buffer to the GC rather than re-pooling it: a
		// re-Put parks it at the pool's LIFO front, where every later
		// Get pops it, rejects it, and re-Puts it — one undersized
		// buffer then costs an allocation on every call forever.
		b = make([]byte, 0, n+n/4+64)
	}
	return b[:n]
}

// sameBase reports whether two slices share the same first element —
// the aliasing an echo handler creates by returning the request payload
// verbatim. Such a reply must be recycled once, not twice.
func sameBase(a, b []byte) bool {
	return len(a) > 0 && len(b) > 0 && &a[0] == &b[0]
}

// appendMuxReqHdr appends a 12-byte multiplexed request header.
func appendMuxReqHdr(b []byte, n, id, meta uint32) []byte {
	var hdr [12]byte
	binary.LittleEndian.PutUint32(hdr[0:], n)
	binary.LittleEndian.PutUint32(hdr[4:], id)
	binary.LittleEndian.PutUint32(hdr[8:], meta)
	return append(b, hdr[:]...)
}

// appendMuxReplyHdr appends a 9-byte multiplexed reply header.
func appendMuxReplyHdr(b []byte, n, id uint32, status byte) []byte {
	var hdr [9]byte
	binary.LittleEndian.PutUint32(hdr[0:], n)
	binary.LittleEndian.PutUint32(hdr[4:], id)
	hdr[8] = status
	return append(b, hdr[:]...)
}

// frameWriter batches ready frames into one vectored write (writev via
// net.Buffers), recycling each frame after the syscall. One instance
// serves one connection; the scratch vector is a reused field so the
// steady state allocates nothing.
type frameWriter struct {
	conn  net.Conn
	wire  *atomic.Int64
	queue [][]byte
	// scratch/vec are the writev view of queue. net.Buffers.WriteTo
	// consumes its receiver — it nils each fully written entry in the
	// backing array — so it must operate on a copy, never on queue
	// itself, or the frames could not be recycled afterwards.
	scratch [][]byte
	vec     net.Buffers
}

func newFrameWriter(conn net.Conn, wire *atomic.Int64) *frameWriter {
	return &frameWriter{
		conn:    conn,
		wire:    wire,
		queue:   make([][]byte, 0, 64),
		scratch: make([][]byte, 0, 64),
	}
}

// drain writes frames arriving on ch until ch closes or down (may be
// nil) closes, returning nil; a failed write returns its error with the
// channel left undrained — the caller owns cleanup.
func (w *frameWriter) drain(ch chan []byte, down chan struct{}) error {
	for {
		var f []byte
		var ok bool
		select {
		case f, ok = <-ch:
		case <-down:
			return nil
		}
		if !ok {
			return nil
		}
		w.queue = append(w.queue[:0], f)
		// Batch whatever else is already queued into the same writev.
	gather:
		for len(w.queue) < cap(w.queue) {
			select {
			case f, ok = <-ch:
				if !ok {
					break gather
				}
				w.queue = append(w.queue, f)
			default:
				break gather
			}
		}
		if err := w.flush(); err != nil {
			return err
		}
		if !ok { // ch closed during the gather; all of it is flushed
			return nil
		}
	}
}

// flush writes the queued frames with one vectored write and recycles
// them. On error the frames are released to the GC instead: a short
// write advances buffer headers in place, which would poison the pool.
func (w *frameWriter) flush() error {
	var nbytes int64
	for _, f := range w.queue {
		nbytes += int64(len(f))
	}
	w.scratch = append(w.scratch[:0], w.queue...)
	w.vec = net.Buffers(w.scratch)
	_, err := w.vec.WriteTo(w.conn)
	w.wire.Add(nbytes)
	if err != nil {
		w.queue = w.queue[:0]
		return err
	}
	for i, f := range w.queue {
		msg.PutBuf(f)
		w.queue[i] = nil
	}
	w.queue = w.queue[:0]
	return nil
}

// muxResult is what the reader (or a connection failure) delivers to a
// pending call.
type muxResult struct {
	status byte
	body   []byte
	err    error
}

// muxPending is one outstanding call's rendezvous. The struct is pooled;
// the cap-1 channel and the lazily created timer are reused across calls.
type muxPending struct {
	ch    chan muxResult
	timer *time.Timer
}

var muxPendingPool = sync.Pool{New: func() any {
	return &muxPending{ch: make(chan muxResult, 1)}
}}

// muxConn is the client half of one (from, to) multiplexed stream.
type muxConn struct {
	t    *TCP
	from int
	to   int
	conn net.Conn

	mu      sync.Mutex // guards nextID, pending, dead
	nextID  uint32
	pending map[uint32]*muxPending
	dead    bool

	wch   chan []byte
	down  chan struct{}
	fOnce sync.Once
}

// roundTrip performs one pipelined call: register a pending entry, hand
// the frame to the writer, wait for the reader to match the reply ID.
//
// Delivery invariant: once the call is registered, exactly one actor —
// the reader matching the reply, fail tearing the connection down, or
// this call's own timeout (which routes through fail) — removes the
// pending entry and sends on p.ch. Every exit path below therefore ends
// in one receive from p.ch, and the pooled entry is never left armed.
func (m *muxConn) roundTrip(payload []byte) ([]byte, error) {
	meta := uint32(m.from)
	body := payload
	if min := m.t.opts.CompressMin; min > 0 && len(payload) >= min {
		if c, ok := deflateFrame(payload); ok {
			body = c
			meta |= muxCompressed32
		}
	}
	frame := msg.GetBuf()
	frame = appendMuxReqHdr(frame, uint32(len(body)), 0, meta) // id patched below
	frame = append(frame, body...)
	if meta&muxCompressed32 != 0 {
		msg.PutBuf(body) // compression scratch, now copied into the frame
	}
	p := muxPendingPool.Get().(*muxPending)
	m.mu.Lock()
	if m.dead {
		m.mu.Unlock()
		msg.PutBuf(frame)
		muxPendingPool.Put(p)
		return nil, errConnStale
	}
	id := m.nextID
	m.nextID++
	m.pending[id] = p
	m.mu.Unlock()
	binary.LittleEndian.PutUint32(frame[4:8], id)
	m.t.hb.Add(1) // release the caller's clock to the server (see TCP.hb)
	var timerC <-chan time.Time
	if d := m.t.opts.CallTimeout; d > 0 {
		if p.timer == nil {
			p.timer = time.NewTimer(d)
		} else {
			p.timer.Reset(d)
		}
		timerC = p.timer.C
	}
	select {
	case m.wch <- frame: // the writer owns the frame now
	case <-m.down:
		msg.PutBuf(frame) // never handed over; fail already delivered
	case <-timerC:
		msg.PutBuf(frame) // writer wedged; poison the connection
		m.fail(fmt.Errorf("transport: call %d->%d: %w", m.from, m.to, errCallTimeout))
	}
	var r muxResult
	if timerC != nil {
		select {
		case r = <-p.ch:
		case <-timerC:
			// A timed-out call poisons the connection (its reply may
			// still arrive later; a fresh dial resynchronizes), and the
			// teardown delivers this call's error.
			m.fail(fmt.Errorf("transport: call %d->%d: %w", m.from, m.to, errCallTimeout))
			r = <-p.ch
		}
	} else {
		r = <-p.ch
	}
	return m.finish(p, r)
}

// finish recycles the pending entry and unpacks the delivered result.
func (m *muxConn) finish(p *muxPending, r muxResult) ([]byte, error) {
	if p.timer != nil {
		p.timer.Stop()
	}
	muxPendingPool.Put(p)
	if r.err != nil {
		return nil, r.err
	}
	status, body := r.status, r.body
	if status&muxCompressed != 0 {
		status &^= muxCompressed
		dec, err := inflateFrame(body)
		msg.PutBuf(body)
		if err != nil {
			return nil, fmt.Errorf("transport: reply from node %d: %w", m.to, err)
		}
		body = dec
	}
	if status != tcpOK {
		err := &RemoteError{Node: m.to, Sentinel: sentinelFor(status), Msg: string(body)}
		msg.PutBuf(body)
		return nil, err
	}
	return body, nil
}

// readLoop matches reply frames to pending calls by ID.
func (m *muxConn) readLoop() {
	defer m.t.wg.Done()
	var hdr [9]byte
	for {
		if _, err := io.ReadFull(m.conn, hdr[:]); err != nil {
			m.fail(fmt.Errorf("transport: read %d->%d: %w", m.from, m.to, err))
			return
		}
		n := binary.LittleEndian.Uint32(hdr[0:4])
		id := binary.LittleEndian.Uint32(hdr[4:8])
		status := hdr[8]
		if n > maxFrame {
			m.fail(fmt.Errorf("transport: bad reply length %d", n))
			return
		}
		body := getFrameBuf(int(n))
		if _, err := io.ReadFull(m.conn, body); err != nil {
			msg.PutBuf(body)
			m.fail(fmt.Errorf("transport: read %d->%d: %w", m.from, m.to, err))
			return
		}
		m.t.wireIn.Add(int64(len(hdr)) + int64(n))
		m.t.hb.Add(1) // acquire the handler's effects (see TCP.hb)
		m.mu.Lock()
		p, ok := m.pending[id]
		if ok {
			delete(m.pending, id)
		}
		m.mu.Unlock()
		if !ok {
			msg.PutBuf(body) // reply for an abandoned or unknown call
			continue
		}
		p.ch <- muxResult{status: status, body: body}
	}
}

// writeLoop drains the send queue into vectored writes.
func (m *muxConn) writeLoop() {
	defer m.t.wg.Done()
	w := newFrameWriter(m.conn, &m.t.wireOut)
	if err := w.drain(m.wch, m.down); err != nil {
		m.fail(fmt.Errorf("transport: write %d->%d: %w", m.from, m.to, err))
	}
}

// fail tears the stream down once: marks it dead so new calls take the
// stale path, unblocks the writer, detaches from the transport's table
// so the next Call redials, fails every pending call with err, and
// recycles frames stranded in the send queue.
func (m *muxConn) fail(err error) {
	m.fOnce.Do(func() {
		m.mu.Lock()
		m.dead = true
		pend := m.pending
		m.pending = nil
		m.mu.Unlock()
		close(m.down)
		_ = m.conn.Close()
		m.t.removeMux(m.from, m.to, m)
		for _, p := range pend {
			p.ch <- muxResult{err: err}
		}
		for {
			select {
			case f := <-m.wch:
				msg.PutBuf(f)
			default:
				return
			}
		}
	})
}

// mux returns the live multiplexed stream for (from, to), dialing one if
// needed. Distinct pairs use distinct streams, so a nested call chain
// (A→B handler calling B→C) never waits behind another pair.
func (t *TCP) mux(from, to int) (*muxConn, error) {
	key := [2]int{from, to}
	t.mu.Lock()
	defer t.mu.Unlock()
	select {
	case <-t.closed:
		return nil, net.ErrClosed
	default:
	}
	if m, ok := t.muxes[key]; ok {
		return m, nil
	}
	c, err := net.Dial("tcp", t.addrs[to])
	if err != nil {
		return nil, fmt.Errorf("transport: dial node %d: %w", to, err)
	}
	if _, err := c.Write(muxPreamble[:]); err != nil {
		_ = c.Close()
		return nil, fmt.Errorf("transport: dial node %d: %w", to, err)
	}
	m := &muxConn{
		t:       t,
		from:    from,
		to:      to,
		conn:    c,
		pending: make(map[uint32]*muxPending),
		wch:     make(chan []byte, 128),
		down:    make(chan struct{}),
	}
	t.wg.Add(2)
	go m.writeLoop()
	go m.readLoop()
	t.muxes[key] = m
	return m, nil
}

// removeMux deletes the table entry, but only if it still points at m —
// a replacement stream dialed by a retrying caller must survive.
func (t *TCP) removeMux(from, to int, m *muxConn) {
	key := [2]int{from, to}
	t.mu.Lock()
	if cur, ok := t.muxes[key]; ok && cur == m {
		delete(t.muxes, key)
	}
	t.mu.Unlock()
}

// serveMux is the server half of a multiplexed stream: the read loop
// fans requests out to a bounded worker pool, and a shared writer
// batches the (possibly out-of-order) reply frames into vectored
// writes. Worker count bounds concurrent handler executions per
// connection (Options.MuxWorkers).
func (t *TCP) serveMux(conn net.Conn, h Handler) {
	type muxReq struct {
		id         uint32
		from       int
		compressed bool
		payload    []byte
	}
	workers := t.opts.muxWorkers()
	work := make(chan muxReq, workers)
	out := make(chan []byte, workers)
	writerDone := make(chan struct{})
	go func() {
		defer close(writerDone)
		w := newFrameWriter(conn, &t.wireOut)
		if err := w.drain(out, nil); err != nil {
			// The write side broke: kill the connection so the read loop
			// unblocks, and keep consuming so no worker blocks on out.
			_ = conn.Close()
			for f := range out {
				msg.PutBuf(f)
			}
		}
	}()
	var wg sync.WaitGroup
	wg.Add(workers)
	for i := 0; i < workers; i++ {
		go func() {
			defer wg.Done()
			for r := range work {
				t.hb.Add(1) // acquire the caller's send clock (see hb)
				f := t.muxReply(h, r.from, r.id, r.payload, r.compressed)
				t.hb.Add(1) // release the handler's effects to the caller
				out <- f
			}
		}()
	}
	var hdr [12]byte
	for {
		if _, err := io.ReadFull(conn, hdr[:]); err != nil {
			break
		}
		n := binary.LittleEndian.Uint32(hdr[0:4])
		id := binary.LittleEndian.Uint32(hdr[4:8])
		meta := binary.LittleEndian.Uint32(hdr[8:12])
		if n > maxFrame {
			break
		}
		payload := getFrameBuf(int(n))
		if _, err := io.ReadFull(conn, payload); err != nil {
			msg.PutBuf(payload)
			break
		}
		t.wireIn.Add(int64(len(hdr)) + int64(n))
		work <- muxReq{
			id:         id,
			from:       int(meta &^ muxCompressed32),
			compressed: meta&muxCompressed32 != 0,
			payload:    payload,
		}
	}
	close(work)
	wg.Wait()
	close(out)
	<-writerDone
}

// muxReply runs the handler for one request and builds its reply frame.
// It consumes the pooled payload and the handler's reply (see the
// Handler buffer-ownership contract).
func (t *TCP) muxReply(h Handler, from int, id uint32, payload []byte, compressed bool) []byte {
	if compressed {
		dec, err := inflateFrame(payload)
		msg.PutBuf(payload)
		if err != nil {
			return muxErrFrame(id, fmt.Errorf("transport: request decompress: %w", err))
		}
		payload = dec
	}
	reply, err := h(from, payload)
	if err == nil && 1+len(reply) > maxFrame {
		// An oversized reply written as-is would exceed the client's
		// frame bound and poison the stream. Replace it with a
		// structured, sentinel-preserving error frame; the stream stays
		// usable.
		err = fmt.Errorf("%w (%d bytes > %d)", ErrFrameTooLarge, 1+len(reply), maxFrame)
	}
	if err != nil {
		msg.PutBuf(payload)
		return muxErrFrame(id, err)
	}
	status := byte(tcpOK)
	out := reply
	if min := t.opts.CompressMin; min > 0 && len(reply) >= min {
		if c, ok := deflateFrame(reply); ok {
			out = c
			status |= muxCompressed
		}
	}
	frame := msg.GetBuf()
	frame = appendMuxReplyHdr(frame, uint32(len(out)), id, status)
	frame = append(frame, out...)
	if status&muxCompressed != 0 {
		msg.PutBuf(out) // compression scratch; reply recycled below
	}
	if sameBase(reply, payload) {
		msg.PutBuf(payload) // echo: one buffer, one recycle
	} else {
		msg.PutBuf(payload)
		if reply != nil {
			msg.PutBuf(reply)
		}
	}
	return frame
}

// muxErrFrame builds a sentinel-preserving error reply frame.
func muxErrFrame(id uint32, err error) []byte {
	e := err.Error()
	if len(e) > maxFrame-64 { // cannot happen in practice; stay safe
		e = e[:1024]
	}
	frame := msg.GetBuf()
	frame = appendMuxReplyHdr(frame, uint32(len(e)), id, statusFor(err))
	return append(frame, e...)
}
