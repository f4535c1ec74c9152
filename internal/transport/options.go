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
// budgets return the last error. onRetry, if non-nil, is invoked before
// each retry sleep with the 1-based number of the attempt that just
// failed; it must not block (the DSM layer counts retries per message
// type with it). If o.MaxAttempts <= 1 the inner transport is returned
// unchanged.
//
// Retries re-send the request, so the receiver may execute it more than
// once (e.g. when only the reply was lost); layer this wrapper only over
// idempotent protocols. The DSM's barrier, lock, GC and fetch messages
// all are — see DESIGN.md §6.
func WithRetry(inner Transport, o Options, onRetry func(from, to, attempt int, payload []byte, err error)) Transport {
	if o.MaxAttempts <= 1 {
		return inner
	}
	o = o.withDefaults()
	// A fixed seed keeps the jitter sequence reproducible run to run.
	return &retrier{inner: inner, o: o, onRetry: onRetry, rng: sim.NewRNG(1)}
}

// retrier is the WithRetry implementation.
type retrier struct {
	inner   Transport
	o       Options
	onRetry func(from, to, attempt int, payload []byte, err error)

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
		if r.onRetry != nil {
			r.onRetry(from, to, attempt, payload, err)
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
