package fault

import "crossmatch/internal/core"

// state is a circuit breaker state.
type state uint8

const (
	// closed lets calls through (the healthy state).
	closed state = iota
	// open refuses every call until the cooldown elapses.
	open
	// halfOpen lets a trial call through; its outcome decides between
	// closed and open.
	halfOpen
)

// breaker is the circuit breaker guarding one cooperative platform:
// breakerThreshold consecutive failed calls open it, an open breaker
// refuses all calls for breakerCooldown ticks of stream time, then a
// half-open trial call decides whether the partner recovered. It runs on
// the engine's goroutine: every call is settled through success or
// failure before the next one asks allow. Its state changes count in
// its injector's Stats.
type breaker struct {
	st *Stats

	state       state
	consecutive int
	openedAt    core.Time
}

// transition moves the breaker to a different state.
func (b *breaker) transition(to state) {
	b.state = to
	switch to {
	case open:
		b.st.BreakerOpened++
	case halfOpen:
		b.st.BreakerHalfOpened++
	case closed:
		b.st.BreakerClosed++
	}
}

// allow reports whether a call to the guarded platform may proceed at
// stream time now. An open breaker past its cooldown moves to half-open
// and admits the trial call.
func (b *breaker) allow(now core.Time) bool {
	if b.state == open {
		if now < b.openedAt+breakerCooldown {
			return false
		}
		b.transition(halfOpen)
	}
	return true
}

// success records a completed call: the failure run resets and a
// half-open breaker closes.
func (b *breaker) success() {
	b.consecutive = 0
	if b.state != closed {
		b.transition(closed)
	}
}

// failure records a failed call at stream time now: a half-open trial
// reopens the breaker immediately, a closed breaker opens once the
// consecutive-failure run reaches the threshold.
func (b *breaker) failure(now core.Time) {
	switch b.state {
	case halfOpen:
		b.openedAt = now
		b.transition(open)
	case closed:
		b.consecutive++
		if b.consecutive >= breakerThreshold {
			b.consecutive = 0
			b.openedAt = now
			b.transition(open)
		}
	}
}
