package fault

import (
	"fmt"
	"sync"

	"crossmatch/internal/core"
	"crossmatch/internal/metrics"
)

// State is a circuit breaker state.
type State uint8

const (
	// Closed lets calls through (the healthy state).
	Closed State = iota
	// Open short-circuits every call until the cooldown elapses.
	Open
	// HalfOpen lets exactly one trial call through; its outcome decides
	// between Closed and Open.
	HalfOpen
)

// String implements fmt.Stringer.
func (s State) String() string {
	switch s {
	case Closed:
		return "closed"
	case Open:
		return "open"
	case HalfOpen:
		return "half-open"
	default:
		return fmt.Sprintf("State(%d)", uint8(s))
	}
}

// Breaker is a circuit breaker guarding one cooperative platform:
// FailureThreshold consecutive failed calls open it, an open breaker
// short-circuits all calls for CooldownTicks of stream time, then a
// single half-open trial call decides whether the partner recovered.
// It is safe for concurrent use (the fleet router shares one across its
// handler and prober goroutines).
type Breaker struct {
	cfg BreakerConfig
	met *metrics.Collector

	mu          sync.Mutex
	state       State
	consecutive int
	openedAt    core.Time
	trial       bool // half-open trial call in flight
}

// NewBreaker returns a closed breaker that counts its state changes in
// m's breaker_opened, breaker_half_opened and breaker_closed counters;
// m may be nil.
func NewBreaker(cfg BreakerConfig, m *metrics.Collector) *Breaker {
	return &Breaker{cfg: cfg.withDefaults(), met: m}
}

// transition moves the breaker to a different state; the caller holds
// b.mu.
func (b *Breaker) transition(to State) {
	b.state = to
	switch to {
	case Open:
		b.met.Add(metrics.BreakerOpened, 1)
	case HalfOpen:
		b.met.Add(metrics.BreakerHalfOpened, 1)
	case Closed:
		b.met.Add(metrics.BreakerClosed, 1)
	}
}

// State returns the current state.
func (b *Breaker) State() State {
	b.mu.Lock()
	defer b.mu.Unlock()
	return b.state
}

// Stats returns the current state together with the consecutive-failure
// run — what a fleet router's status page shows per shard.
func (b *Breaker) Stats() (State, int) {
	b.mu.Lock()
	defer b.mu.Unlock()
	return b.state, b.consecutive
}

// Allow reports whether a call to the guarded platform may proceed at
// stream time now. An open breaker past its cooldown moves to half-open
// and admits exactly one trial call; concurrent callers are refused
// until that trial settles through Success or Failure.
func (b *Breaker) Allow(now core.Time) bool {
	b.mu.Lock()
	defer b.mu.Unlock()
	switch b.state {
	case Closed:
		return true
	case Open:
		if now >= b.openedAt+b.cfg.CooldownTicks {
			b.transition(HalfOpen)
			b.trial = true
			return true
		}
		return false
	default: // HalfOpen
		if b.trial {
			return false
		}
		b.trial = true
		return true
	}
}

// Success records a completed call: the failure run resets and a
// half-open breaker closes.
func (b *Breaker) Success() {
	b.mu.Lock()
	defer b.mu.Unlock()
	b.consecutive = 0
	b.trial = false
	if b.state != Closed {
		b.transition(Closed)
	}
}

// Failure records a failed call at stream time now: a half-open trial
// reopens the breaker immediately, a closed breaker opens once the
// consecutive-failure run reaches the threshold.
func (b *Breaker) Failure(now core.Time) {
	b.mu.Lock()
	defer b.mu.Unlock()
	b.trial = false
	switch b.state {
	case HalfOpen:
		b.openedAt = now
		b.transition(Open)
	case Closed:
		b.consecutive++
		if b.consecutive >= b.cfg.FailureThreshold {
			b.consecutive = 0
			b.openedAt = now
			b.transition(Open)
		}
	}
	// A failure reported against an already-open breaker (a call that
	// was in flight when it opened) keeps it open; nothing to do.
}
