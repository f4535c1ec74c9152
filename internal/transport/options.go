package transport

import (
	"sync"
	"time"

	"actdsm/internal/sim"
)

// Options tunes call resilience. The zero value reproduces the historical
// behaviour: no deadline, a single attempt, no retries.
type Options struct {
	// CallTimeout bounds one call attempt end to end (write + reply
	// read) on the TCP transport. Zero means no deadline. A timed-out
	// call tears its stream down, failing the pair's other in-flight
	// calls with it, and the next attempt redials.
	CallTimeout time.Duration
	// MaxAttempts is the total number of attempts per Call made by the
	// WithRetry wrapper, including the first; values <= 1 disable
	// retries. Only failures Retryable reports true for are retried:
	// injected faults, network errors, and truncated streams.
	MaxAttempts int
	// BackoffBase is the mean delay before the first retry. Each further
	// retry doubles it, capped at BackoffMax. Defaults to 500µs.
	BackoffBase time.Duration
	// BackoffMax caps the exponential backoff. Defaults to 50ms.
	BackoffMax time.Duration
	// OnRetry, if non-nil, is invoked before each retry sleep with the
	// 1-based number of the attempt that just failed. It must not
	// block; the DSM layer uses it to count retries per message type.
	OnRetry func(from, to, attempt int, payload []byte, err error)
}

// withDefaults fills zero fields with the documented defaults.
func (o Options) withDefaults() Options {
	if o.BackoffBase <= 0 {
		o.BackoffBase = 500 * time.Microsecond
	}
	if o.BackoffMax <= 0 {
		o.BackoffMax = 50 * time.Millisecond
	}
	if o.BackoffMax < o.BackoffBase {
		o.BackoffMax = o.BackoffBase
	}
	return o
}

// WithRetry wraps inner with bounded retry: transient failures
// (Retryable) are retried up to o.MaxAttempts total attempts with
// exponential backoff and jitter. Non-retryable failures and exhausted
// budgets return the last error. If o.MaxAttempts <= 1 the inner
// transport is returned unchanged.
//
// Retries re-send the request, so the receiver may execute it more than
// once (e.g. when only the reply was lost); layer this wrapper only over
// idempotent protocols. The DSM's barrier, lock, GC and fetch messages
// all are — see DESIGN.md §6.
func WithRetry(inner Transport, o Options) Transport {
	if o.MaxAttempts <= 1 {
		return inner
	}
	o = o.withDefaults()
	// A fixed seed keeps the jitter sequence reproducible run to run.
	return &retrier{inner: inner, o: o, rng: sim.NewRNG(1)}
}

// retrier is the WithRetry implementation.
type retrier struct {
	inner Transport
	o     Options

	mu  sync.Mutex // guards rng
	rng *sim.RNG
}

// Call implements Transport.
func (r *retrier) Call(from, to int, payload []byte) ([]byte, error) {
	backoff := r.o.BackoffBase
	for attempt := 1; ; attempt++ {
		reply, err := r.inner.Call(from, to, payload)
		if err == nil || attempt >= r.o.MaxAttempts || !Retryable(err) {
			return reply, err
		}
		if r.o.OnRetry != nil {
			r.o.OnRetry(from, to, attempt, payload, err)
		}
		time.Sleep(r.jitter(backoff))
		if backoff *= 2; backoff > r.o.BackoffMax {
			backoff = r.o.BackoffMax
		}
	}
}

// jitter draws a deterministic sleep uniform in [d/2, d).
func (r *retrier) jitter(d time.Duration) time.Duration {
	if d <= 1 {
		return d
	}
	half := int64(d) / 2
	r.mu.Lock()
	j := int64(r.rng.Uint64() % uint64(half))
	r.mu.Unlock()
	return time.Duration(half + j)
}

// Close implements Transport.
func (r *retrier) Close() error { return r.inner.Close() }

// Unwrap returns the wrapped transport (see Base).
func (r *retrier) Unwrap() Transport { return r.inner }
