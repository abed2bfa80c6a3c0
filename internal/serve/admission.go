package serve

import (
	"sync"
	"time"
)

// tokenBucket is the server's ingest rate limiter: capacity `burst`
// tokens refilled at `rate` tokens per second on a monotonic clock.
// A nil bucket admits everything (rate limiting disabled). take is
// safe for concurrent use by the HTTP handler goroutines.
type tokenBucket struct {
	mu     sync.Mutex
	rate   float64 // tokens per second
	burst  float64
	tokens float64
	last   time.Time
	now    func() time.Time // injectable for tests
}

// newTokenBucket returns a bucket admitting rate events/second with
// the given burst (at least 1), or nil when rate is non-positive.
func newTokenBucket(rate float64, burst int) *tokenBucket {
	if rate <= 0 {
		return nil
	}
	b := float64(burst)
	if b < 1 {
		b = 1
	}
	return &tokenBucket{rate: rate, burst: b, tokens: b, last: time.Now(), now: time.Now}
}

// take consumes one token. When the bucket is empty it reports false
// plus the wait until a token will be available — the Retry-After the
// 429 response carries.
func (b *tokenBucket) take() (bool, time.Duration) {
	if b == nil {
		return true, 0
	}
	b.mu.Lock()
	defer b.mu.Unlock()
	now := b.now()
	b.tokens += b.rate * now.Sub(b.last).Seconds()
	if b.tokens > b.burst {
		b.tokens = b.burst
	}
	b.last = now
	if b.tokens >= 1 {
		b.tokens--
		return true, 0
	}
	wait := time.Duration((1 - b.tokens) / b.rate * float64(time.Second))
	return false, wait
}

// A shed response carries its backoff hint twice, with a defined
// precedence: the body field retry_after_ms (RetryAfterWireMs) is
// authoritative — millisecond precision, what comload sleeps on —
// while the Retry-After header (RetryAfterHeaderSeconds) is the coarse
// fallback for plain HTTP clients, the same hint rounded up to whole
// seconds so header-driven clients never back off shorter than
// body-driven ones. Every hop that answers an ingest call, the fleet
// router included, writes through WriteDecisions, which derives the
// header from the body hint, so no hop can promise a shorter wait in
// one field than the other. RetryAfterWireMs is exported because the
// router makes hints of its own (refusals, failed posts) and must clamp
// them the same way; RetryAfterHeaderSeconds is the rule the router's
// tests hold its header to.

// RetryAfterWireMs clamps a retry hint into [1ms, 30s] for the
// retry_after_ms body field.
func RetryAfterWireMs(d time.Duration) int64 {
	ms := d.Milliseconds()
	if ms < 1 {
		ms = 1
	}
	if ms > 30_000 {
		ms = 30_000
	}
	return ms
}

// RetryAfterHeaderSeconds renders the Retry-After header for a body
// hint of ms milliseconds: rounded up to integer seconds, at least 1,
// per RFC 9110.
func RetryAfterHeaderSeconds(ms int64) int64 {
	s := (ms + 999) / 1000
	if s < 1 {
		s = 1
	}
	return s
}
