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
// Concurrency: the per-platform generators are partitioned — exactly
// one goroutine drives each platform, matching the hub's view contract —
// the maps are read-only after New, and the shared per-partner breakers
// lock internally.
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

// Observer receives fault events as they happen, on the goroutine of the
// viewing platform (the one issuing the probe or claim). It exists for
// the tracing layer; observation never alters fault outcomes or RNG
// consumption, so runs are bit-identical with and without an observer.
type Observer func(viewer, partner core.PlatformID, ev Event)

// SetObserver installs the fault-event observer. Call it before the run
// starts consuming events; the field is read concurrently afterwards.
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
		in.breakers[pid] = NewBreaker(p.Breaker, in.observeTransition)
	}
	return in
}

func (in *Injector) observeTransition(_, to State) {
	switch to {
	case Open:
		in.metrics.Add(metrics.BreakerOpened, 1)
	case HalfOpen:
		in.metrics.Add(metrics.BreakerHalfOpened, 1)
	case Closed:
		in.metrics.Add(metrics.BreakerClosed, 1)
	}
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
	br := in.breakers[partner]
	obs := in.observer
	if obs == nil {
		ok, _, _ := in.probe(br, viewer, partner, now)
		return ok
	}
	before := br.State()
	ok, elapsed, short := in.probe(br, viewer, partner, now)
	in.notify(obs, viewer, partner, before, br.State(), EventProbeFault, elapsed, ok, short)
	return ok
}

func (in *Injector) probe(br *Breaker, viewer, partner core.PlatformID, now core.Time) (ok bool, elapsed time.Duration, short bool) {
	if !br.Allow(now) {
		in.metrics.Add(metrics.BreakerShortCircuits, 1)
		return false, 0, true
	}
	rng := in.rngs[viewer]
	for attempt := 0; attempt < in.plan.Retry.MaxAttempts; attempt++ {
		if attempt > 0 {
			elapsed += in.plan.Retry.Backoff(attempt-1, rng)
			in.metrics.Add(metrics.ProbeRetries, 1)
		}
		ok := true
		switch {
		case in.outage(partner, now):
			in.metrics.Add(metrics.FaultOutageHits, 1)
			ok = false
		case in.plan.DropRate > 0 && rng.Float64() < in.plan.DropRate:
			in.metrics.Add(metrics.FaultDroppedProbes, 1)
			ok = false
		default:
			elapsed += in.spike(rng)
		}
		if elapsed > in.plan.Retry.Deadline {
			in.metrics.Add(metrics.ProbeTimeouts, 1)
			br.Failure(now)
			return false, elapsed, false
		}
		if ok {
			br.Success()
			return true, elapsed, false
		}
	}
	br.Failure(now)
	return false, elapsed, false
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

// ClaimPartner decides whether viewer's cross-platform claim against
// owner goes through at stream time now, injecting transient claim
// errors under the same deadline/retry/backoff policy and feeding the
// owner's breaker. A false return is indistinguishable from a lost
// claim race to the matcher: it simply tries the next candidate.
func (in *Injector) ClaimPartner(viewer, owner core.PlatformID, now core.Time) bool {
	br := in.breakers[owner]
	obs := in.observer
	if obs == nil {
		ok, _, _ := in.claim(br, viewer, owner, now)
		return ok
	}
	before := br.State()
	ok, elapsed, short := in.claim(br, viewer, owner, now)
	in.notify(obs, viewer, owner, before, br.State(), EventClaimFault, elapsed, ok, short)
	return ok
}

func (in *Injector) claim(br *Breaker, viewer, owner core.PlatformID, now core.Time) (ok bool, elapsed time.Duration, short bool) {
	if !br.Allow(now) {
		in.metrics.Add(metrics.BreakerShortCircuits, 1)
		return false, 0, true
	}
	rng := in.rngs[viewer]
	for attempt := 0; attempt < in.plan.Retry.MaxAttempts; attempt++ {
		if attempt > 0 {
			elapsed += in.plan.Retry.Backoff(attempt-1, rng)
			in.metrics.Add(metrics.ProbeRetries, 1)
		}
		ok := true
		switch {
		case in.outage(owner, now):
			in.metrics.Add(metrics.FaultOutageHits, 1)
			ok = false
		case in.plan.ClaimErrorRate > 0 && rng.Float64() < in.plan.ClaimErrorRate:
			in.metrics.Add(metrics.FaultClaimErrors, 1)
			ok = false
		}
		if elapsed > in.plan.Retry.Deadline {
			in.metrics.Add(metrics.ProbeTimeouts, 1)
			br.Failure(now)
			return false, elapsed, false
		}
		if ok {
			br.Success()
			return true, elapsed, false
		}
	}
	br.Failure(now)
	return false, elapsed, false
}
