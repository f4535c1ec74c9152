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
// keyed faults (drops, delays, duplicates, crashes) for resilience testing,
// and WithRetry adds bounded retry with exponential backoff and jitter
// (see Options). The intended production stack is
//
//	WithRetry(NewTCPWithOptions(handlers, o), o, nil)
//
// and the intended test stack inserts NewChaos between the two.
package transport

import (
	"errors"
	"fmt"
	"io"
	"net"
	"sync"
	"sync/atomic"
	"syscall"
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

// ErrInjected is returned for calls failed by a Chaos wrapper's plan. It
// marks transient, retry-worthy failures: Retryable reports true for it.
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

// errConnStale marks a stream another caller's failure tore down
// (muxConn.fail) before this caller sent anything. Nothing of the
// request went out, so TCP.Call retries it transparently on a fresh
// connection.
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
// destination handler. It has no settings; faults are injected by a Chaos
// wrapper, which works over both transports.
type Local struct {
	handlers []Handler
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
	return l.handlers[to](from, payload)
}

// Close implements Transport.
func (l *Local) Close() error { return nil }

// TCP carries frames over loopback TCP sockets, one listener per node.
//
// Each (from, to) pair shares one multiplexed stream (mux.go): a dialed
// connection opens with the 4-byte "ACTM" magic, then carries pipelined
// tagged frames with out-of-order reply matching and vectored batched
// writes. A peer that opens with anything else is closed.
type TCP struct {
	opts      Options
	listeners []net.Listener
	addrs     []string

	mu    sync.Mutex // guards the muxes map only
	muxes map[[2]int]*muxConn

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
			if _, err := io.ReadFull(conn, pre[:]); err != nil || pre != muxPreamble {
				return
			}
			t.serveMux(conn, h)
		}()
	}
}

// Call implements Transport. Calls with the same (from, to) pair are
// pipelined on one shared stream.
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
		mc, err := t.mux(from, to)
		if err != nil {
			return nil, err
		}
		reply, err := mc.roundTrip(payload)
		if errors.Is(err, errConnStale) && attempt < staleRetries {
			continue // dead on arrival; nothing was sent
		}
		return reply, err
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
	t.mu.Unlock()
	for _, m := range muxes {
		m.fail(net.ErrClosed)
	}
	t.wg.Wait()
	return nil
}
