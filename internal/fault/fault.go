// Package fault is the deterministic fault-injection layer of the
// cooperation path. Real federations of spatial-crowdsourcing platforms
// are not instantaneous or infallible: a cooperating platform can be
// slow (latency spikes), lossy (dropped probes), flaky (transient claim
// errors) or down outright (scheduled outages). A Plan describes those
// faults; an Injector realises them against a run, drawing every random
// outcome from seeded per-platform generators so the same plan, seed
// and stream reproduce the same fault sequence.
//
// The layer is paired with two resilience mechanisms consumed by
// platform.Hub:
//
//   - RetryPolicy — every probe and claim carries a virtual per-call
//     deadline and retries transient failures with capped exponential
//     backoff plus jitter (drawn from the injector RNG, never the
//     matcher RNG, so matching decisions stay untouched).
//   - Breaker — each cooperative platform gets a circuit breaker
//     (closed → open on consecutive failures → half-open trial →
//     closed) so the matchers degrade gracefully to inner-only
//     (TOTA-equivalent) matching against a dark partner instead of
//     stalling the event loop.
//
// A nil *Plan (the default) injects nothing and adds no code to the
// cooperation hot path: zero-fault runs are bit-identical to a build
// without this package.
package fault

import (
	"fmt"
	"math/rand"
	"sort"
	"strconv"
	"strings"
	"time"

	"crossmatch/internal/core"
)

// Outage is a scheduled whole-platform outage: probes to and claims
// against Platform fail for every stream tick in [From, Until).
type Outage struct {
	Platform core.PlatformID
	From     core.Time
	Until    core.Time // exclusive; Until <= From means "forever from From"
}

// covers reports whether the outage is active at stream time t.
func (o Outage) covers(t core.Time) bool {
	if t < o.From {
		return false
	}
	return o.Until <= o.From || t < o.Until
}

// RetryPolicy bounds one probe or claim call: up to MaxAttempts tries,
// capped exponential backoff with jitter between them, all accounted
// against a virtual per-call Deadline. The clock is virtual — injected
// latency and backoff accumulate in a duration budget rather than
// wall-clock sleeps — so fault-heavy runs stay fast and reproducible.
type RetryPolicy struct {
	// MaxAttempts is the total number of tries per call (first attempt
	// included). Values < 1 mean the default (3).
	MaxAttempts int
	// BaseBackoff seeds the capped exponential backoff between
	// attempts: attempt n waits ~BaseBackoff<<n, jittered to
	// [50%, 100%] by the injector RNG. Zero means the default (1ms).
	BaseBackoff time.Duration
	// MaxBackoff caps the exponential growth. Zero means 8ms.
	MaxBackoff time.Duration
	// Deadline is the virtual per-call budget covering injected latency
	// and backoff; exceeding it fails the call even with attempts left.
	// Zero means the default (20ms).
	Deadline time.Duration
}

func (p RetryPolicy) withDefaults() RetryPolicy {
	if p.MaxAttempts < 1 {
		p.MaxAttempts = 3
	}
	if p.BaseBackoff <= 0 {
		p.BaseBackoff = time.Millisecond
	}
	if p.MaxBackoff <= 0 {
		p.MaxBackoff = 8 * time.Millisecond
	}
	if p.Deadline <= 0 {
		p.Deadline = 20 * time.Millisecond
	}
	return p
}

// Backoff returns the jittered wait before retry attempt (attempt 0 is
// the first retry). The jitter multiplier is drawn from rng, keeping
// runs reproducible for a fixed fault seed.
func (p RetryPolicy) Backoff(attempt int, rng *rand.Rand) time.Duration {
	d := p.BaseBackoff << uint(attempt)
	if d > p.MaxBackoff || d <= 0 { // <= 0 guards shift overflow
		d = p.MaxBackoff
	}
	// Jitter to [50%, 100%] of the exponential step.
	return time.Duration(float64(d) * (0.5 + 0.5*rng.Float64()))
}

// BreakerConfig tunes the per-platform circuit breakers.
type BreakerConfig struct {
	// FailureThreshold is the number of consecutive failed calls that
	// opens the breaker. Values < 1 mean the default (5).
	FailureThreshold int
	// CooldownTicks is how long (in stream time) an open breaker waits
	// before allowing a half-open trial probe. Values < 1 mean the
	// default (60 ticks).
	CooldownTicks core.Time
}

func (c BreakerConfig) withDefaults() BreakerConfig {
	if c.FailureThreshold < 1 {
		c.FailureThreshold = 5
	}
	if c.CooldownTicks < 1 {
		c.CooldownTicks = 60
	}
	return c
}

// Plan describes the faults injected into one run. The zero value (and
// a nil *Plan) injects nothing. Rates are probabilities in [0, 1]
// evaluated independently per probe or claim.
type Plan struct {
	// Seed roots the fault randomness. Zero derives the fault seed from
	// the run seed, so distinct runs see distinct fault sequences while
	// staying reproducible.
	Seed int64
	// LatencyRate is the probability a probe suffers a latency spike
	// drawn uniformly from [LatencyMin, LatencyMax].
	LatencyRate            float64
	LatencyMin, LatencyMax time.Duration
	// DropRate is the probability a probe is dropped outright.
	DropRate float64
	// ClaimErrorRate is the probability a cross-platform claim fails
	// transiently (retried under the same policy as probes).
	ClaimErrorRate float64
	// Outages schedules whole-platform outage windows over the stream
	// timeline.
	Outages []Outage
	// Retry bounds each probe/claim call; zero fields take defaults.
	Retry RetryPolicy
	// Breaker tunes the per-platform circuit breakers; zero fields take
	// defaults.
	Breaker BreakerConfig
}

// Validate checks rates, latency bounds and outage windows.
func (p *Plan) Validate() error {
	if p == nil {
		return nil
	}
	for _, r := range []struct {
		name string
		v    float64
	}{
		{"latency rate", p.LatencyRate},
		{"drop rate", p.DropRate},
		{"claim-error rate", p.ClaimErrorRate},
	} {
		if r.v < 0 || r.v > 1 {
			return fmt.Errorf("fault: %s %v outside [0, 1]", r.name, r.v)
		}
	}
	if p.LatencyMin < 0 || p.LatencyMax < p.LatencyMin {
		return fmt.Errorf("fault: latency bounds [%v, %v] invalid", p.LatencyMin, p.LatencyMax)
	}
	if p.LatencyRate > 0 && p.LatencyMax == 0 {
		return fmt.Errorf("fault: latency rate %v with zero spike magnitude", p.LatencyRate)
	}
	for i, o := range p.Outages {
		if o.Platform == core.NoPlatform {
			return fmt.Errorf("fault: outage %d names the zero platform", i)
		}
		if o.From < 0 {
			return fmt.Errorf("fault: outage %d starts at negative time %d", i, o.From)
		}
	}
	return nil
}

// Clone returns a deep copy (outage slice included) so callers may
// mutate per-run copies of a shared plan.
func (p *Plan) Clone() *Plan {
	if p == nil {
		return nil
	}
	out := *p
	out.Outages = append([]Outage(nil), p.Outages...)
	return &out
}

// ParsePlan parses the combench -faults specification: a comma-joined
// list of key=value entries. Keys:
//
//	latency=RATE:MIN-MAX   probe latency spikes (e.g. latency=0.2:1ms-10ms)
//	drop=RATE              dropped probes
//	claimerr=RATE          transient claim errors
//	outage=PID@FROM-UNTIL  platform outage window (repeatable; UNTIL empty = forever)
//	deadline=DUR           per-call virtual deadline
//	attempts=N             retry attempts per call
//	backoff=BASE-MAX       capped exponential backoff bounds
//	threshold=N            breaker consecutive-failure threshold
//	cooldown=TICKS         breaker cooldown in stream ticks
//
// Unknown keys are rejected so typos cannot silently disable a fault.
func ParsePlan(spec string) (*Plan, error) {
	p := &Plan{}
	if strings.TrimSpace(spec) == "" {
		return nil, fmt.Errorf("fault: empty fault plan")
	}
	for _, entry := range strings.Split(spec, ",") {
		entry = strings.TrimSpace(entry)
		if entry == "" {
			continue
		}
		key, val, ok := strings.Cut(entry, "=")
		if !ok {
			return nil, fmt.Errorf("fault: entry %q is not key=value", entry)
		}
		var err error
		switch key {
		case "latency":
			err = parseLatency(p, val)
		case "drop":
			p.DropRate, err = parseRate(val)
		case "claimerr":
			p.ClaimErrorRate, err = parseRate(val)
		case "outage":
			err = parseOutage(p, val)
		case "deadline":
			p.Retry.Deadline, err = time.ParseDuration(val)
		case "attempts":
			p.Retry.MaxAttempts, err = strconv.Atoi(val)
		case "backoff":
			err = parseBackoff(p, val)
		case "threshold":
			p.Breaker.FailureThreshold, err = strconv.Atoi(val)
		case "cooldown":
			var t int64
			t, err = strconv.ParseInt(val, 10, 64)
			p.Breaker.CooldownTicks = core.Time(t)
		default:
			return nil, fmt.Errorf("fault: unknown fault-plan key %q (want latency, drop, claimerr, outage, deadline, attempts, backoff, threshold or cooldown)", key)
		}
		if err != nil {
			return nil, fmt.Errorf("fault: entry %q: %w", entry, err)
		}
	}
	if err := p.Validate(); err != nil {
		return nil, err
	}
	return p, nil
}

func parseRate(s string) (float64, error) {
	v, err := strconv.ParseFloat(s, 64)
	if err != nil {
		return 0, err
	}
	if v < 0 || v > 1 {
		return 0, fmt.Errorf("rate %v outside [0, 1]", v)
	}
	return v, nil
}

func parseLatency(p *Plan, val string) error {
	rate, bounds, ok := strings.Cut(val, ":")
	if !ok {
		return fmt.Errorf("want RATE:MIN-MAX")
	}
	r, err := parseRate(rate)
	if err != nil {
		return err
	}
	lo, hi, ok := strings.Cut(bounds, "-")
	if !ok {
		return fmt.Errorf("want RATE:MIN-MAX")
	}
	min, err := time.ParseDuration(lo)
	if err != nil {
		return err
	}
	max, err := time.ParseDuration(hi)
	if err != nil {
		return err
	}
	p.LatencyRate, p.LatencyMin, p.LatencyMax = r, min, max
	return nil
}

func parseBackoff(p *Plan, val string) error {
	lo, hi, ok := strings.Cut(val, "-")
	if !ok {
		return fmt.Errorf("want BASE-MAX")
	}
	base, err := time.ParseDuration(lo)
	if err != nil {
		return err
	}
	max, err := time.ParseDuration(hi)
	if err != nil {
		return err
	}
	p.Retry.BaseBackoff, p.Retry.MaxBackoff = base, max
	return nil
}

func parseOutage(p *Plan, val string) error {
	pid, window, ok := strings.Cut(val, "@")
	if !ok {
		return fmt.Errorf("want PID@FROM-UNTIL")
	}
	id, err := strconv.ParseInt(pid, 10, 32)
	if err != nil {
		return err
	}
	lo, hi, ok := strings.Cut(window, "-")
	if !ok {
		return fmt.Errorf("want PID@FROM-UNTIL")
	}
	from, err := strconv.ParseInt(lo, 10, 64)
	if err != nil {
		return err
	}
	until := int64(0)
	if hi != "" {
		until, err = strconv.ParseInt(hi, 10, 64)
		if err != nil {
			return err
		}
	}
	p.Outages = append(p.Outages, Outage{
		Platform: core.PlatformID(id),
		From:     core.Time(from),
		Until:    core.Time(until),
	})
	return nil
}

// String renders the plan in the ParsePlan format (outages sorted for
// stable output); empty for a nil or zero plan.
func (p *Plan) String() string {
	if p == nil {
		return ""
	}
	var parts []string
	if p.LatencyRate > 0 {
		parts = append(parts, fmt.Sprintf("latency=%g:%v-%v", p.LatencyRate, p.LatencyMin, p.LatencyMax))
	}
	if p.DropRate > 0 {
		parts = append(parts, fmt.Sprintf("drop=%g", p.DropRate))
	}
	if p.ClaimErrorRate > 0 {
		parts = append(parts, fmt.Sprintf("claimerr=%g", p.ClaimErrorRate))
	}
	outs := append([]Outage(nil), p.Outages...)
	sort.Slice(outs, func(i, j int) bool {
		if outs[i].Platform != outs[j].Platform {
			return outs[i].Platform < outs[j].Platform
		}
		return outs[i].From < outs[j].From
	})
	for _, o := range outs {
		until := ""
		if o.Until > o.From {
			until = strconv.FormatInt(int64(o.Until), 10)
		}
		parts = append(parts, fmt.Sprintf("outage=%d@%d-%s", o.Platform, o.From, until))
	}
	return strings.Join(parts, ",")
}
