package fault

import (
	"math/rand"
	"time"

	"crossmatch/internal/core"
	"crossmatch/internal/metrics"
)

// Injector realises a Plan against one run. It is created by the
// simulation once the platform set is known and consulted by the hub on
// every cooperative probe (one per partner platform per request) and
// claim.
//
// Determinism: each viewing platform draws its fault outcomes from its
// own generator, seeded from (plan seed, platform id), so a platform's
// fault sequence depends only on its own call sequence. Injected latency
// and retry backoff accumulate in a virtual duration budget checked
// against the per-call deadline; nothing sleeps.
//
// An injector runs on the engine's goroutine, like the hub that calls
// it: it starts no goroutine and takes no lock.
type Injector struct {
	plan     Plan
	metrics  *metrics.Collector
	observer Observer
	rngs     map[core.PlatformID]*rand.Rand
	breakers map[core.PlatformID]*Breaker
}

// EventKind labels a fault event surfaced to the Observer.
type EventKind string

const (
	// EventProbeFault — a cooperative probe was denied (outage, drop, or
	// deadline exhaustion across retries).
	EventProbeFault EventKind = "probe-fault"
	// EventClaimFault — a cross-platform claim was denied (outage,
	// transient claim error, or deadline exhaustion).
	EventClaimFault EventKind = "claim-fault"
	// EventLatency — the call succeeded but absorbed injected latency
	// (spikes and/or retry backoff).
	EventLatency EventKind = "latency"
	// EventShortCircuit — the partner's breaker was open and the call was
	// skipped without consuming any fault randomness.
	EventShortCircuit EventKind = "short-circuit"
	// EventBreakerOpen / EventBreakerHalfOpen / EventBreakerClosed — the
	// partner's breaker changed state during the call.
	EventBreakerOpen     EventKind = "breaker-open"
	EventBreakerHalfOpen EventKind = "breaker-half-open"
	EventBreakerClosed   EventKind = "breaker-closed"
)

// Event is one fault occurrence reported to the Observer. Latency is the
// virtual latency accumulated during the call (spikes + backoff); From
// and To are set only on breaker-transition events.
type Event struct {
	Kind     EventKind
	Latency  time.Duration
	From, To State
}

// Observer receives fault events as they happen, attributed to the
// viewing platform (the one issuing the probe or claim). It exists for
// the tracing layer; observation never alters fault outcomes or RNG
// consumption, so runs are bit-identical with and without an observer.
type Observer func(viewer, partner core.PlatformID, ev Event)

// SetObserver installs the fault-event observer. Call it before the run
// starts consuming events.
func (in *Injector) SetObserver(obs Observer) { in.observer = obs }

// seedMix decorrelates per-platform fault streams from the base seed
// (the signed bit pattern of the 64-bit golden-ratio constant).
const seedMix = int64(-0x61c8864680b583eb)

// New builds the injector for a run over the given platforms. plan must
// be non-nil and validated; runSeed supplies the fault seed when the
// plan leaves Seed zero. m may be nil (counters become no-ops).
func New(plan *Plan, runSeed int64, pids []core.PlatformID, m *metrics.Collector) *Injector {
	p := *plan.Clone()
	p.Retry = p.Retry.withDefaults()
	p.Breaker = p.Breaker.withDefaults()
	base := p.Seed
	if base == 0 {
		base = runSeed ^ seedMix
	}
	in := &Injector{
		plan:     p,
		metrics:  m,
		rngs:     make(map[core.PlatformID]*rand.Rand, len(pids)),
		breakers: make(map[core.PlatformID]*Breaker, len(pids)),
	}
	for _, pid := range pids {
		in.rngs[pid] = rand.New(rand.NewSource(base ^ (int64(pid)+1)*seedMix))
		in.breakers[pid] = NewBreaker(p.Breaker, m)
	}
	return in
}

// BreakerState returns the current breaker state guarding a platform
// (Closed for unknown platforms).
func (in *Injector) BreakerState(pid core.PlatformID) State {
	if b := in.breakers[pid]; b != nil {
		return b.State()
	}
	return Closed
}

// outage reports whether partner is inside a scheduled outage window at
// stream time now.
func (in *Injector) outage(partner core.PlatformID, now core.Time) bool {
	for _, o := range in.plan.Outages {
		if o.Platform == partner && o.covers(now) {
			return true
		}
	}
	return false
}

// spike injects the latency of one probe attempt: zero, or a spike
// drawn uniformly from [LatencyMin, LatencyMax].
func (in *Injector) spike(rng *rand.Rand) time.Duration {
	if in.plan.LatencyRate <= 0 || rng.Float64() >= in.plan.LatencyRate {
		return 0
	}
	lat := in.plan.LatencyMin
	if span := in.plan.LatencyMax - in.plan.LatencyMin; span > 0 {
		lat += time.Duration(rng.Int63n(int64(span) + 1))
	}
	in.metrics.Add(metrics.FaultLatencySpikes, 1)
	in.metrics.ObserveProbeLatency(lat)
	return lat
}

// ProbePartner decides whether viewer's cooperative probe of partner
// succeeds at stream time now, running the deadline/retry/backoff
// policy and feeding the partner's breaker. false means the partner is
// dark for this request: the hub skips its pool and the matcher
// degrades to the remaining platforms (inner-only when all partners are
// dark).
func (in *Injector) ProbePartner(viewer, partner core.PlatformID, now core.Time) bool {
	return in.call(viewer, partner, now, in.plan.DropRate, metrics.FaultDroppedProbes, true, EventProbeFault)
}

// ClaimPartner decides whether viewer's cross-platform claim against
// owner goes through at stream time now, injecting transient claim
// errors under the same deadline/retry/backoff policy and feeding the
// owner's breaker. A false return is indistinguishable from a lost
// claim race to the matcher: it simply tries the next candidate.
func (in *Injector) ClaimPartner(viewer, owner core.PlatformID, now core.Time) bool {
	return in.call(viewer, owner, now, in.plan.ClaimErrorRate, metrics.FaultClaimErrors, false, EventClaimFault)
}

// call is one guarded cooperation call of viewer against partner under
// the retry policy: each try fails inside an outage or with probability
// rate (counted in failures), and a successful try absorbs a latency
// spike when spikes is set. A try draws from the viewer's generator in
// a fixed order — backoff jitter, failure, spike — which keeps faulted
// runs bit-identical. The observer, when set, sees a denial as failKind.
func (in *Injector) call(viewer, partner core.PlatformID, now core.Time, rate float64, failures metrics.Counter,
	spikes bool, failKind EventKind) (ok bool) {
	br := in.breakers[partner]
	var elapsed time.Duration
	short := false
	if obs := in.observer; obs != nil {
		before := br.State()
		defer func() { in.notify(obs, viewer, partner, before, br.State(), failKind, elapsed, ok, short) }()
	}
	if !br.Allow(now) {
		in.metrics.Add(metrics.BreakerShortCircuits, 1)
		short = true
		return false
	}
	rng := in.rngs[viewer]
	for attempt := 0; attempt < in.plan.Retry.MaxAttempts; attempt++ {
		if attempt > 0 {
			elapsed += in.plan.Retry.Backoff(attempt-1, rng)
			in.metrics.Add(metrics.ProbeRetries, 1)
		}
		failed := true
		switch {
		case in.outage(partner, now):
			in.metrics.Add(metrics.FaultOutageHits, 1)
		case rate > 0 && rng.Float64() < rate:
			in.metrics.Add(failures, 1)
		default:
			failed = false
			if spikes {
				elapsed += in.spike(rng)
			}
		}
		if elapsed > in.plan.Retry.Deadline {
			in.metrics.Add(metrics.ProbeTimeouts, 1)
			br.Failure(now)
			return false
		}
		if !failed {
			br.Success()
			return true
		}
	}
	br.Failure(now)
	return false
}

// notify translates one guarded call's outcome into observer events: a
// short-circuit, a denial, or injected-latency-on-success, plus a
// breaker-transition event when the partner's breaker moved.
func (in *Injector) notify(obs Observer, viewer, partner core.PlatformID, before, after State, failKind EventKind, lat time.Duration, ok, short bool) {
	switch {
	case short:
		obs(viewer, partner, Event{Kind: EventShortCircuit})
	case !ok:
		obs(viewer, partner, Event{Kind: failKind, Latency: lat})
	case lat > 0:
		obs(viewer, partner, Event{Kind: EventLatency, Latency: lat})
	}
	if after != before {
		kind := EventBreakerClosed
		switch after {
		case Open:
			kind = EventBreakerOpen
		case HalfOpen:
			kind = EventBreakerHalfOpen
		}
		obs(viewer, partner, Event{Kind: kind, From: before, To: after})
	}
}
