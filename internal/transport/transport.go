// Package transport moves encoded DSM messages between nodes.
//
// Two implementations are provided: Local delivers messages by direct
// dispatch inside one process (the default for simulation; fully
// deterministic), and TCP carries the same frames over real sockets,
// demonstrating that the protocol is a genuine distributed protocol. Both
// carry the encoded wire form from package msg, so byte accounting is
// identical across transports.
//
// Two composable wrappers harden either base transport: Chaos injects
// faults (drops, delays, duplicates, partitions) for resilience testing,
// and WithRetry adds bounded retry with exponential backoff and jitter
// (see Options). The intended production stack is
//
//	WithRetry(NewTCPWithOptions(handlers, o), o)
//
// and the intended test stack inserts NewChaos between the two.
package transport

import (
	"encoding/binary"
	"errors"
	"fmt"
	"io"
	"net"
	"sync"
	"sync/atomic"
	"syscall"
	"time"

	"actdsm/internal/msg"
)

// Handler serves a request payload arriving at a node and returns the
// reply payload.
//
// Buffer ownership: the transport owns the payload and may recycle it
// (msg.PutBuf) as soon as the handler returns, so the handler must not
// retain it — nor anything that aliases it. msg.Decode borrows: the byte
// fields of a message decoded from the payload (pushed diffs, replicated
// diffs) are views of it, so a handler consumes them before it returns
// and copies whatever it keeps. The reply passes ownership the other
// way — the transport recycles it after framing it (the caller of Call
// owns the reply it is handed, and whatever it decodes from it, until it
// recycles that buffer in turn). A handler must therefore return either
// a buffer it owns outright (freshly allocated or msg.GetBuf'd, the
// usual msg.EncodeTo shape) or the payload slice itself (echoes); never
// a buffer that is shared or referenced elsewhere.
type Handler func(from int, payload []byte) ([]byte, error)

// Transport is a synchronous request/reply fabric between n nodes.
type Transport interface {
	// Call sends payload from node `from` to node `to` and returns the
	// reply.
	Call(from, to int, payload []byte) ([]byte, error)
	// Close releases transport resources.
	Close() error
}

// Compile-time interface checks.
var (
	_ Transport = (*Local)(nil)
	_ Transport = (*TCP)(nil)
)

// ErrInjected is returned for calls failed by a fault injector (a Local
// transport's FailCall hook or a Chaos wrapper). It marks transient,
// retry-worthy failures: Retryable reports true for it.
var ErrInjected = errors.New("transport: injected failure")

// ErrFrameTooLarge is returned when a handler produces a reply that does
// not fit in one frame. The reply is not sent; the connection survives.
var ErrFrameTooLarge = errors.New("transport: reply exceeds frame limit")

// ErrNodeDown is returned for calls to or from a crashed node (a Chaos
// wrapper with an armed CrashSchedule, or an explicit Kill). Unlike
// ErrInjected it marks a PERMANENT failure: Retryable reports false, so
// retry loops surface it immediately and the caller can fail the role
// over to a successor instead of burning its retry budget.
var ErrNodeDown = errors.New("transport: node down")

// errConnStale marks a connection that was closed by another caller's
// dropConn before this caller sent anything. Nothing of the request went
// out, so TCP.Call retries it transparently on a fresh connection.
var errConnStale = errors.New("transport: connection closed before send")

// RemoteError reports a handler failure on a remote node, carried back
// over the TCP transport. Recognized sentinel errors (ErrInjected,
// ErrFrameTooLarge) survive the wire: Unwrap exposes them so
// errors.Is(err, ErrInjected) holds across transports instead of being
// flattened to text.
type RemoteError struct {
	// Node is the node whose handler failed.
	Node int
	// Sentinel is the recognized sentinel the remote error matched, or
	// nil for an ordinary error.
	Sentinel error
	// Msg is the remote error text.
	Msg string
}

// Error implements error.
func (e *RemoteError) Error() string {
	return fmt.Sprintf("transport: remote node %d: %s", e.Node, e.Msg)
}

// Unwrap exposes the preserved sentinel (may be nil).
func (e *RemoteError) Unwrap() error { return e.Sentinel }

// Retryable reports whether err is a transient transport-level failure
// that a retry on a fresh attempt could cure: injected faults, network
// errors (timeouts, resets, closed connections), and truncated streams.
// Deterministic failures — handler errors, unknown destinations,
// oversized replies — are not retryable.
func Retryable(err error) bool {
	if err == nil {
		return false
	}
	var re *RemoteError
	if errors.As(err, &re) {
		// A remote handler failure is deterministic unless the handler
		// itself hit an injected fault (e.g. a nested call through a
		// Chaos wrapper): re-running the handler can then succeed. A
		// nested ErrNodeDown stays permanent across the wire.
		return errors.Is(re.Sentinel, ErrInjected)
	}
	if errors.Is(err, ErrNodeDown) {
		return false
	}
	if errors.Is(err, ErrInjected) || errors.Is(err, errConnStale) {
		return true
	}
	var ne net.Error
	if errors.As(err, &ne) {
		return true
	}
	return errors.Is(err, io.EOF) ||
		errors.Is(err, io.ErrUnexpectedEOF) ||
		errors.Is(err, net.ErrClosed) ||
		errors.Is(err, syscall.ECONNRESET) ||
		errors.Is(err, syscall.EPIPE)
}

// Local is an in-process transport: Call dispatches directly to the
// destination handler. An optional fault injector can fail selected calls
// to test error paths (the Chaos wrapper generalizes it and works over
// both transports).
type Local struct {
	handlers []Handler
	// FailCall, if non-nil, is consulted before each call; returning
	// true fails the call with ErrInjected.
	FailCall func(from, to int, payload []byte) bool
}

// NewLocal returns a Local transport over the given per-node handlers.
func NewLocal(handlers []Handler) *Local {
	hs := make([]Handler, len(handlers))
	copy(hs, handlers)
	return &Local{handlers: hs}
}

// Call implements Transport.
func (l *Local) Call(from, to int, payload []byte) ([]byte, error) {
	if from < 0 || from >= len(l.handlers) {
		return nil, fmt.Errorf("transport: no source node %d", from)
	}
	if to < 0 || to >= len(l.handlers) || l.handlers[to] == nil {
		return nil, fmt.Errorf("transport: no handler for node %d", to)
	}
	if l.FailCall != nil && l.FailCall(from, to, payload) {
		return nil, ErrInjected
	}
	return l.handlers[to](from, payload)
}

// Close implements Transport.
func (l *Local) Close() error { return nil }

// TCP carries frames over loopback TCP sockets, one listener per node.
//
// Each dialed connection starts with a 4-byte preamble selecting one of
// two disciplines. The default is the multiplexed stream ("ACTM", see
// mux.go): pipelined tagged frames, out-of-order reply matching, and
// vectored batched writes. Options.Serialized selects the historical
// discipline ("ACTS"): one outstanding call per (from, to) connection,
// with frames
//
//	request:  [u32 length][u32 from][payload]
//	reply:    [u32 length][u8 status][payload or error text]
type TCP struct {
	opts      Options
	listeners []net.Listener
	addrs     []string

	mu    sync.Mutex // guards conns and muxes maps only
	conns map[[2]int]*lockedConn
	muxes map[[2]int]*muxConn

	// wireOut/wireIn count frame bytes crossing the sockets (see
	// WireBytes).
	wireOut atomic.Int64
	wireIn  atomic.Int64

	// hb is an in-process happens-before bridge. The simulated
	// transport delivers a call by invoking the handler directly, so
	// everything the caller did before Call is ordered before the
	// handler body — and the DSM layer's locking model is built on that
	// contract (its application threads write page memory unlocked
	// between synchronization operations). A kernel socket gives the Go
	// memory model no such edge when both endpoints live in one process
	// (the usual test and benchmark topology: one TCP instance hosts
	// every node). Each side therefore bumps this shared atomic at the
	// four hand-off points of a call — caller send, server receive,
	// server reply, caller receive. Atomic read-modify-writes on one
	// address form a single synchronized-before chain (Go memory model,
	// "Atomic Values"), which restores Call-happens-before-handler and
	// handler-happens-before-return without any lock on the data path.
	hb atomic.Int64

	wg     sync.WaitGroup
	closed chan struct{}
}

const (
	tcpOK = 0
	// tcpErr carries an ordinary remote handler error as text.
	tcpErr = 1
	// tcpErrInjected carries a remote handler error that matched
	// ErrInjected; the client re-attaches the sentinel.
	tcpErrInjected = 2
	// tcpErrTooLarge reports a reply that exceeded maxFrame; the client
	// re-attaches ErrFrameTooLarge.
	tcpErrTooLarge = 3
	// tcpErrNodeDown carries a remote handler error that matched
	// ErrNodeDown; the client re-attaches the sentinel so failover
	// triggers across transports.
	tcpErrNodeDown = 4
	// maxFrame bounds a frame so a corrupt peer cannot force a huge
	// allocation.
	maxFrame = 64 << 20
	// staleRetries bounds the transparent retries Call makes when it
	// inherits a connection another caller already declared dead.
	staleRetries = 4
)

// statusFor maps a handler error to the reply status byte that preserves
// recognized sentinels across the wire.
func statusFor(err error) byte {
	switch {
	case errors.Is(err, ErrInjected):
		return tcpErrInjected
	case errors.Is(err, ErrFrameTooLarge):
		return tcpErrTooLarge
	case errors.Is(err, ErrNodeDown):
		return tcpErrNodeDown
	default:
		return tcpErr
	}
}

// sentinelFor is the inverse of statusFor on the client side.
func sentinelFor(status byte) error {
	switch status {
	case tcpErrInjected:
		return ErrInjected
	case tcpErrTooLarge:
		return ErrFrameTooLarge
	case tcpErrNodeDown:
		return ErrNodeDown
	default:
		return nil
	}
}

// NewTCP starts one loopback listener per handler and returns a transport
// connecting them, with default Options (no timeout).
func NewTCP(handlers []Handler) (*TCP, error) {
	return NewTCPWithOptions(handlers, Options{})
}

// NewTCPWithOptions is NewTCP with explicit resilience options. Only
// CallTimeout applies at this layer (a deadline covering one round trip);
// retry and backoff are layered on by WithRetry so they also cover
// redialing after a drop.
func NewTCPWithOptions(handlers []Handler, opts Options) (*TCP, error) {
	t := &TCP{
		opts:      opts,
		listeners: make([]net.Listener, len(handlers)),
		addrs:     make([]string, len(handlers)),
		conns:     make(map[[2]int]*lockedConn),
		muxes:     make(map[[2]int]*muxConn),
		closed:    make(chan struct{}),
	}
	for i, h := range handlers {
		ln, err := net.Listen("tcp", "127.0.0.1:0")
		if err != nil {
			_ = t.Close()
			return nil, fmt.Errorf("transport: listen node %d: %w", i, err)
		}
		t.listeners[i] = ln
		t.addrs[i] = ln.Addr().String()
		t.wg.Add(1)
		go t.acceptLoop(ln, h)
	}
	return t, nil
}

func (t *TCP) acceptLoop(ln net.Listener, h Handler) {
	defer t.wg.Done()
	for {
		conn, err := ln.Accept()
		if err != nil {
			return // listener closed
		}
		t.wg.Add(1)
		go func() {
			defer t.wg.Done()
			defer func() { _ = conn.Close() }()
			var pre [4]byte
			if _, err := io.ReadFull(conn, pre[:]); err != nil {
				return
			}
			switch pre {
			case muxPreamble:
				t.serveMux(conn, h)
			case serialPreamble:
				t.serveConn(conn, h)
			}
		}()
	}
}

func (t *TCP) serveConn(conn net.Conn, h Handler) {
	for {
		var hdr [8]byte
		if _, err := io.ReadFull(conn, hdr[:]); err != nil {
			return
		}
		n := binary.LittleEndian.Uint32(hdr[:4])
		from := int(binary.LittleEndian.Uint32(hdr[4:]))
		if n > maxFrame {
			return
		}
		payload := getFrameBuf(int(n))
		if _, err := io.ReadFull(conn, payload); err != nil {
			msg.PutBuf(payload)
			return
		}
		t.wireIn.Add(int64(len(hdr)) + int64(n))
		t.hb.Add(1) // acquire the caller's send clock (see hb)
		reply, err := h(from, payload)
		t.hb.Add(1) // release the handler's effects to the caller
		if err == nil && 1+len(reply) > maxFrame {
			// An oversized reply written as-is would exceed the
			// client's frame bound and poison the connection
			// ("bad reply length" followed by a forced drop).
			// Replace it with a structured, sentinel-preserving
			// error frame instead; the connection stays usable.
			err = fmt.Errorf("%w (%d bytes > %d)", ErrFrameTooLarge, 1+len(reply), maxFrame)
		}
		out := msg.GetBuf()
		var rh [5]byte
		if err != nil {
			e := err.Error()
			if 1+len(e) > maxFrame { // cannot happen in practice; stay safe
				e = e[:1024]
			}
			binary.LittleEndian.PutUint32(rh[:4], uint32(1+len(e)))
			rh[4] = statusFor(err)
			out = append(out, rh[:]...)
			out = append(out, e...)
			msg.PutBuf(payload)
		} else {
			binary.LittleEndian.PutUint32(rh[:4], uint32(1+len(reply)))
			rh[4] = tcpOK
			out = append(out, rh[:]...)
			out = append(out, reply...)
			if sameBase(reply, payload) {
				msg.PutBuf(payload) // echo: one buffer, one recycle
			} else {
				msg.PutBuf(payload)
				if reply != nil {
					msg.PutBuf(reply)
				}
			}
		}
		_, werr := conn.Write(out)
		t.wireOut.Add(int64(len(out)))
		msg.PutBuf(out)
		if werr != nil {
			return
		}
	}
}

// lockedConn serializes round trips on one (from, to) connection. Distinct
// pairs use distinct connections, so a nested call chain (A→B handler
// calling B→C) never blocks on another pair's lock.
type lockedConn struct {
	mu   sync.Mutex
	conn net.Conn
	// dead is set (under mu) by dropConn when the connection is torn
	// down. A caller that was queued on mu while the teardown happened
	// must not write to the closed conn; it re-resolves instead.
	dead bool
}

// Call implements Transport. Calls with the same (from, to) pair share
// one stream: pipelined on it under the default multiplexed discipline,
// serialized on it with Options.Serialized.
//
// If the stream was declared dead by a concurrent caller before this
// call sent any bytes, Call transparently re-resolves (redialing if
// needed) and retries: nothing of the request reached the peer, so the
// retry is safe regardless of the payload's idempotency. Failures after
// bytes were sent are returned to the caller (layer WithRetry above this
// transport when the protocol is idempotent).
func (t *TCP) Call(from, to int, payload []byte) ([]byte, error) {
	if to < 0 || to >= len(t.addrs) {
		return nil, fmt.Errorf("transport: no node %d", to)
	}
	if from < 0 || from >= len(t.addrs) {
		return nil, fmt.Errorf("transport: no source node %d", from)
	}
	for attempt := 0; ; attempt++ {
		var reply []byte
		var err error
		if t.opts.Serialized {
			var lc *lockedConn
			if lc, err = t.conn(from, to); err == nil {
				reply, err = t.roundTrip(lc, from, to, payload)
			}
		} else {
			var mc *muxConn
			if mc, err = t.mux(from, to); err == nil {
				reply, err = mc.roundTrip(payload)
			}
		}
		if err != nil && errors.Is(err, errConnStale) && attempt < staleRetries {
			continue // dead on arrival; nothing was sent
		}
		return reply, err
	}
}

// WireBytes reports the total frame bytes written to and read from this
// transport's sockets (dial preambles excluded). On the usual loopback
// setup both endpoints of every connection belong to this TCP, so each
// call's bytes are counted once on the send side and once on the
// receive side. Compression tests use the sent counter to verify large
// payloads shrink on the wire.
func (t *TCP) WireBytes() (sent, received int64) {
	return t.wireOut.Load(), t.wireIn.Load()
}

// roundTrip performs one request/reply exchange on lc.
func (t *TCP) roundTrip(lc *lockedConn, from, to int, payload []byte) ([]byte, error) {
	lc.mu.Lock()
	defer lc.mu.Unlock()
	if lc.dead {
		return nil, errConnStale
	}
	conn := lc.conn
	if t.opts.CallTimeout > 0 {
		_ = conn.SetDeadline(time.Now().Add(t.opts.CallTimeout))
	}
	frame := msg.GetBuf()
	var hdr [8]byte
	binary.LittleEndian.PutUint32(hdr[0:], uint32(len(payload)))
	binary.LittleEndian.PutUint32(hdr[4:], uint32(from))
	frame = append(frame, hdr[:]...)
	frame = append(frame, payload...)
	t.hb.Add(1) // release the caller's clock to the server (see hb)
	_, werr := conn.Write(frame)
	t.wireOut.Add(int64(len(frame)))
	msg.PutBuf(frame)
	if werr != nil {
		t.dropConn(from, to, lc)
		return nil, fmt.Errorf("transport: write %d->%d: %w", from, to, werr)
	}
	var rh [5]byte
	if _, err := io.ReadFull(conn, rh[:]); err != nil {
		t.dropConn(from, to, lc)
		return nil, fmt.Errorf("transport: read %d->%d: %w", from, to, err)
	}
	n := binary.LittleEndian.Uint32(rh[:4])
	if n == 0 || n > maxFrame {
		t.dropConn(from, to, lc)
		return nil, fmt.Errorf("transport: bad reply length %d", n)
	}
	status := rh[4]
	body := getFrameBuf(int(n) - 1)
	if _, err := io.ReadFull(conn, body); err != nil {
		msg.PutBuf(body)
		t.dropConn(from, to, lc)
		return nil, fmt.Errorf("transport: read %d->%d: %w", from, to, err)
	}
	t.wireIn.Add(int64(4) + int64(n))
	t.hb.Add(1) // acquire the handler's effects (see hb)
	if t.opts.CallTimeout > 0 {
		_ = conn.SetDeadline(time.Time{})
	}
	if status != tcpOK {
		err := &RemoteError{Node: to, Sentinel: sentinelFor(status), Msg: string(body)}
		msg.PutBuf(body)
		return nil, err
	}
	return body, nil
}

func (t *TCP) conn(from, to int) (*lockedConn, error) {
	key := [2]int{from, to}
	t.mu.Lock()
	defer t.mu.Unlock()
	select {
	case <-t.closed:
		return nil, net.ErrClosed
	default:
	}
	if c, ok := t.conns[key]; ok {
		return c, nil
	}
	c, err := net.Dial("tcp", t.addrs[to])
	if err != nil {
		return nil, fmt.Errorf("transport: dial node %d: %w", to, err)
	}
	if _, err := c.Write(serialPreamble[:]); err != nil {
		_ = c.Close()
		return nil, fmt.Errorf("transport: dial node %d: %w", to, err)
	}
	lc := &lockedConn{conn: c}
	t.conns[key] = lc
	return lc, nil
}

// dropConn tears down a broken connection: marks lc dead so queued waiters
// re-resolve instead of writing to the closed net.Conn, and removes the
// map entry (only if it still points at lc — a replacement dialed by a
// retrying caller must survive). The caller holds lc.mu but not t.mu.
func (t *TCP) dropConn(from, to int, lc *lockedConn) {
	lc.dead = true
	_ = lc.conn.Close()
	key := [2]int{from, to}
	t.mu.Lock()
	defer t.mu.Unlock()
	if c, ok := t.conns[key]; ok && c == lc {
		delete(t.conns, key)
	}
}

// Close shuts down all listeners and connections and waits for server
// goroutines to exit.
func (t *TCP) Close() error {
	select {
	case <-t.closed:
		return nil
	default:
		close(t.closed)
	}
	for _, ln := range t.listeners {
		if ln != nil {
			_ = ln.Close()
		}
	}
	// Collect under the lock, tear down outside it: muxConn.fail calls
	// removeMux, which takes t.mu itself.
	t.mu.Lock()
	muxes := make([]*muxConn, 0, len(t.muxes))
	for k, m := range t.muxes {
		muxes = append(muxes, m)
		delete(t.muxes, k)
	}
	conns := make([]*lockedConn, 0, len(t.conns))
	for k, c := range t.conns {
		conns = append(conns, c)
		delete(t.conns, k)
	}
	t.mu.Unlock()
	for _, m := range muxes {
		m.fail(net.ErrClosed)
	}
	for _, c := range conns {
		_ = c.conn.Close()
	}
	t.wg.Wait()
	return nil
}
