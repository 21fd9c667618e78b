package server

import (
	"fmt"
	"math"
	"sync"
	"time"
)

// ShedError reports an admission-control rejection: the batch was turned
// away before the WAL (or the queue) ever saw it, and the client should
// retry after the embedded hint. Handlers map it to 429 Too Many
// Requests with a Retry-After header.
type ShedError struct {
	// Reason is the admission gate that fired: "rate-limit" (the
	// tenant's token bucket is empty) or "queue-depth" (the tenant's
	// backlog crossed the shed threshold).
	Reason string
	// RetryAfter is the server's estimate of when capacity returns: for
	// rate limiting, the time until the bucket holds enough tokens for
	// the rejected batch; for queue depth, the time the current backlog
	// needs to drain at the tenant's observed apply rate.
	RetryAfter time.Duration
}

func (e *ShedError) Error() string {
	return fmt.Sprintf("server: ingest shed (%s): retry after %s", e.Reason, e.RetryAfter)
}

// tokenBucket is a per-tenant ingest rate limiter denominated in
// messages. It is deliberately simple — refill-on-take, float tokens —
// because it sits on the ingest hot path under the tenant's queue lock:
// one time read and a handful of float ops per batch.
type tokenBucket struct {
	mu     sync.Mutex
	rate   float64 // tokens (messages) added per second
	burst  float64 // bucket capacity
	tokens float64
	last   time.Time
	now    func() time.Time // injectable clock (tests)
}

// newTokenBucket builds a bucket that sustains rate messages/second with
// the given burst capacity. The bucket starts full, so a tenant's first
// burst after idling is always admitted.
func newTokenBucket(rate float64, burst int, now func() time.Time) *tokenBucket {
	if now == nil {
		now = time.Now
	}
	b := float64(burst)
	if b < 1 {
		// A burst below one message could never admit anything; default
		// to one second of sustained rate (at least one message).
		b = math.Max(rate, 1)
	}
	return &tokenBucket{rate: rate, burst: b, tokens: b, now: now, last: now()}
}

// take tries to remove n tokens. On success it returns (0, true). On
// failure nothing is consumed and the returned duration is how long the
// caller must wait for n tokens to accumulate — the Retry-After hint.
func (tb *tokenBucket) take(n int) (time.Duration, bool) {
	tb.mu.Lock()
	defer tb.mu.Unlock()
	now := tb.now()
	if dt := now.Sub(tb.last).Seconds(); dt > 0 {
		tb.tokens = math.Min(tb.burst, tb.tokens+dt*tb.rate)
	}
	tb.last = now
	need := float64(n)
	if need > tb.burst {
		// Larger than the bucket will ever hold: admit it when the
		// bucket is full rather than never (the hard per-batch bound is
		// QueueMessages, enforced separately).
		need = tb.burst
	}
	if tb.tokens >= need {
		tb.tokens -= need
		return 0, true
	}
	wait := time.Duration((need - tb.tokens) / tb.rate * float64(time.Second))
	if wait < time.Millisecond {
		wait = time.Millisecond
	}
	return wait, false
}

// admission bundles one tenant's overload-protection state: the token
// bucket (nil when rate limiting is off), the queue-depth shed
// threshold, and the shed counters surfaced via /metrics.
type admission struct {
	bucket   *tokenBucket
	shedFrac float64 // shed when backlog ≥ frac × (QueueDepth | QueueMessages); 0 = off
}

// newAdmission builds the admission state from the pool configuration;
// returns nil when every gate is disabled (the common un-configured
// case costs one nil check per Enqueue).
func newAdmission(cfg PoolConfig) *admission {
	if cfg.RateLimit <= 0 && cfg.AdmissionFrac <= 0 {
		return nil
	}
	a := &admission{shedFrac: cfg.AdmissionFrac}
	if cfg.RateLimit > 0 {
		a.bucket = newTokenBucket(cfg.RateLimit, cfg.RateBurst, nil)
	}
	return a
}

// checkQueueLocked applies the queue-depth gate for a batch of n
// messages; qmu held by the caller (Enqueue, ShedCheck). depth/queued
// are the tenant's current backlog, maxDepth/maxMsgs its hard bounds.
// The caller fills RetryAfter from the tenant's drain estimate.
func (a *admission) checkQueueLocked(n, depth, maxDepth int, queued, maxMsgs int64) *ShedError {
	if a == nil || a.shedFrac <= 0 {
		return nil
	}
	if float64(depth) >= a.shedFrac*float64(maxDepth) ||
		float64(queued)+float64(n) > a.shedFrac*float64(maxMsgs) {
		return &ShedError{Reason: "queue-depth"}
	}
	return nil
}

// checkRate applies the token-bucket gate for a batch of n messages.
// Called outside qmu — the bucket has its own lock — so a contended
// bucket never delays another producer's queue admission.
func (a *admission) checkRate(n int) *ShedError {
	if a == nil || a.bucket == nil {
		return nil
	}
	if wait, ok := a.bucket.take(n); !ok {
		return &ShedError{Reason: "rate-limit", RetryAfter: wait}
	}
	return nil
}

// retryAfterSeconds renders a Retry-After hint as whole seconds for the
// HTTP header (minimum 1 — a zero would invite an immediate retry storm).
func retryAfterSeconds(d time.Duration) int {
	secs := int(math.Ceil(d.Seconds()))
	if secs < 1 {
		secs = 1
	}
	return secs
}
