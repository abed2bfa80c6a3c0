package fault

import (
	"math/rand"
	"slices"
	"time"

	"crossmatch/internal/core"
	"crossmatch/internal/stats"
	"crossmatch/internal/trace"
)

// Injector realises a Plan against one run. It is created by the
// engine once the platform set is known and consulted by the hub on
// every cooperative probe (one per partner platform per request) and
// claim.
//
// Determinism: each viewing platform draws its fault outcomes from its
// own generator, seeded from (run seed, platform id), so a platform's
// fault sequence depends only on its own call sequence. Injected latency
// and retry backoff accumulate in a virtual duration budget checked
// against the per-call deadline; nothing sleeps.
//
// An injector runs on the engine's goroutine, like the hub that calls
// it: it starts no goroutine, takes no lock and writes no shared object
// (the engine folds its Stats and spikes into a collector).
type Injector struct {
	plan    Plan
	parties map[core.PlatformID]*party
	st      Stats
	spikes  *stats.Reservoir // injected latency spikes; nil without a latency rate
}

// Stats counts an injector's faults and the policy's answers, as the
// fault counters of package metrics (which say what each counts).
type Stats struct {
	LatencySpikes, DroppedProbes, ClaimErrors, OutageHits          int64
	Retries, Timeouts                                              int64
	BreakerOpened, BreakerHalfOpened, BreakerClosed, ShortCircuits int64
}

// party is one platform's side of the cooperation path: as a viewer, the
// generator its calls draw from and the recorder its fault events go to
// (nil untraced); as a partner, the breaker guarding calls to it.
type party struct {
	rng *rand.Rand
	rec *trace.Recorder
	br  breaker
}

// The kinds of fault event the injector records in the viewing
// platform's open span. A call's outcome is one of the first four; a
// breaker that ended the call in another state than it began adds a
// fifth or sixth (a half-open trial always ends closed or open).
const (
	kindProbeFault    = "probe-fault"   // a probe was denied: outage, drop or deadline
	kindClaimFault    = "claim-fault"   // a claim was denied: outage, claim error or deadline
	kindLatency       = "latency"       // the call succeeded after injected latency or backoff
	kindShortCircuit  = "short-circuit" // an open breaker refused the call, drawing nothing
	kindBreakerOpen   = "breaker-open"
	kindBreakerClosed = "breaker-closed"
)

// seedMix decorrelates per-platform fault streams from the run seed
// (the signed bit pattern of the 64-bit golden-ratio constant).
const seedMix = int64(-0x61c8864680b583eb)

// New builds the injector for a run over the given platforms. plan must
// be non-nil and validated; the fault randomness is rooted at
// runSeed ^ seedMix. recs holds each platform's trace recorder, recs[i]
// pids[i]'s, or is nil untraced.
func New(plan *Plan, runSeed int64, pids []core.PlatformID, recs []*trace.Recorder) *Injector {
	p := *plan
	p.Outages = slices.Clone(p.Outages)
	base := runSeed ^ seedMix
	in := &Injector{plan: p, parties: make(map[core.PlatformID]*party, len(pids))}
	if p.LatencyRate > 0 {
		in.spikes = stats.NewReservoir(0, base)
	}
	for i, pid := range pids {
		pt := &party{rng: rand.New(rand.NewSource(base ^ (int64(pid)+1)*seedMix)), br: breaker{st: &in.st}}
		if recs != nil {
			pt.rec = recs[i]
		}
		in.parties[pid] = pt
	}
	return in
}

// Stats returns the injector's counts so far.
func (in *Injector) Stats() Stats { return in.st }

// Spikes returns the injected latency spikes so far (nil without a latency rate).
func (in *Injector) Spikes() *stats.Reservoir { return in.spikes }

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
	in.st.LatencySpikes++
	in.spikes.Observe(lat)
	return lat
}

// ProbePartner decides whether viewer's cooperative probe of partner
// succeeds at stream time now, running the deadline/retry/backoff
// policy and feeding the partner's breaker. false means the partner is
// dark for this request: the hub skips its pool and the matcher
// degrades to the remaining platforms (inner-only when all partners are
// dark).
func (in *Injector) ProbePartner(viewer, partner core.PlatformID, now core.Time) bool {
	return in.call(viewer, partner, now, in.plan.DropRate, &in.st.DroppedProbes, true, kindProbeFault)
}

// ClaimPartner decides whether viewer's cross-platform claim against
// owner goes through at stream time now, injecting transient claim
// errors under the same deadline/retry/backoff policy and feeding the
// owner's breaker. A false return is indistinguishable from a lost
// claim race to the matcher: it simply tries the next candidate.
func (in *Injector) ClaimPartner(viewer, owner core.PlatformID, now core.Time) bool {
	return in.call(viewer, owner, now, in.plan.ClaimErrorRate, &in.st.ClaimErrors, false, kindClaimFault)
}

// call is one guarded cooperation call of viewer against partner: the
// partner's breaker admits it or not, tries runs it, and the outcome
// settles the breaker and lands in the viewer's span, a denial as
// failKind. Recording never draws, so traced runs are bit-identical.
func (in *Injector) call(viewer, partner core.PlatformID, now core.Time, rate float64, failures *int64,
	spikes bool, failKind string) bool {
	v, br := in.parties[viewer], &in.parties[partner].br
	before := br.state
	if !br.allow(now) {
		in.st.ShortCircuits++
		v.rec.Fault(partner, kindShortCircuit, 0)
		return false
	}
	ok, elapsed := in.tries(v.rng, partner, now, rate, failures, spikes)
	if ok {
		br.success()
		if elapsed > 0 {
			v.rec.Fault(partner, kindLatency, elapsed)
		}
	} else {
		br.failure(now)
		v.rec.Fault(partner, failKind, elapsed)
	}
	if br.state != before {
		kind := kindBreakerClosed
		if br.state == open {
			kind = kindBreakerOpen
		}
		v.rec.Fault(partner, kind, 0)
	}
	return ok
}

// tries runs one call's attempts under the retry policy: each try fails
// inside an outage or with probability rate (counted in failures), and a
// successful try absorbs a latency spike when spikes is set. A try draws
// from rng in a fixed order — backoff jitter, failure, spike — which
// keeps faulted runs bit-identical. It returns whether a try succeeded
// within the deadline and the virtual time the call took.
func (in *Injector) tries(rng *rand.Rand, partner core.PlatformID, now core.Time, rate float64, failures *int64,
	spikes bool) (bool, time.Duration) {
	var elapsed time.Duration
	for attempt := 0; attempt < maxAttempts; attempt++ {
		if attempt > 0 {
			elapsed += backoff(attempt-1, rng)
			in.st.Retries++
		}
		failed := true
		switch {
		case in.outage(partner, now):
			in.st.OutageHits++
		case rate > 0 && rng.Float64() < rate:
			*failures++
		default:
			failed = false
			if spikes {
				elapsed += in.spike(rng)
			}
		}
		if elapsed > callDeadline {
			in.st.Timeouts++
			return false, elapsed
		}
		if !failed {
			return true, elapsed
		}
	}
	return false, elapsed
}

// backoff returns the jittered wait before retry attempt (attempt 0 is
// the first retry): baseBackoff<<attempt capped at maxBackoff, times a
// multiplier in [50%, 100%] drawn from rng.
func backoff(attempt int, rng *rand.Rand) time.Duration {
	d := baseBackoff << uint(attempt)
	if d > maxBackoff || d <= 0 { // <= 0 guards shift overflow
		d = maxBackoff
	}
	return time.Duration(float64(d) * (0.5 + 0.5*rng.Float64()))
}
