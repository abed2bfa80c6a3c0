// Package fault is the deterministic fault-injection layer of the
// cooperation path. Real federations of spatial-crowdsourcing platforms
// are not instantaneous or infallible: a cooperating platform can be
// slow (latency spikes), lossy (dropped probes), flaky (transient claim
// errors) or down outright (scheduled outages). A Plan describes those
// faults; an Injector realises them against a run, drawing every random
// outcome from per-platform generators seeded from the run seed, so the
// same plan, seed and stream reproduce the same fault sequence.
//
// The faults are contained by one fixed policy, consumed by
// platform.Hub:
//
//   - retries — every probe and claim makes up to 3 tries, with a capped
//     exponential backoff of 1 ms doubling to at most 8 ms between them
//     (jittered by the injector's generator, never the matcher's, so
//     matching decisions stay untouched), all within a virtual 20 ms
//     per-call deadline;
//   - a circuit breaker per cooperative platform — 5 consecutive failed
//     calls open it, an open breaker refuses every call for 60 stream
//     ticks, then a half-open trial call closes or reopens it — so the
//     matchers degrade gracefully to inner-only (TOTA-equivalent)
//     matching against a dark partner instead of stalling the event
//     loop.
//
// A nil *Plan (the default) injects nothing and adds no code to the
// cooperation hot path: zero-fault runs are bit-identical to a build
// without this package.
package fault

import (
	"fmt"
	"strconv"
	"strings"
	"time"

	"crossmatch/internal/core"
)

// The fixed retry and breaker policy described in the package comment.
const (
	maxAttempts      = 3
	baseBackoff      = time.Millisecond
	maxBackoff       = 8 * time.Millisecond
	callDeadline     = 20 * time.Millisecond
	breakerThreshold = 5
	breakerCooldown  = core.Time(60)
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

// Plan describes the faults injected into one run. The zero value (and
// a nil *Plan) injects nothing. Rates are probabilities in [0, 1]
// evaluated independently per probe or claim.
type Plan struct {
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
}

// Validate checks rates, latency bounds and outage windows. A NaN rate
// is refused: it would compare false with every draw and inject nothing.
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
		if !(r.v >= 0 && r.v <= 1) {
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

// ParsePlan parses the combench -faults specification: a comma-joined
// list of key=value entries. Keys:
//
//	latency=RATE:MIN-MAX   probe latency spikes (e.g. latency=0.2:1ms-10ms)
//	drop=RATE              dropped probes
//	claimerr=RATE          transient claim errors
//	outage=PID@FROM-UNTIL  platform outage window (repeatable; UNTIL empty = forever)
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
		default:
			return nil, fmt.Errorf("fault: unknown fault-plan key %q (want latency, drop, claimerr or outage)", key)
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

// String renders the plan in ParsePlan's grammar, every rate and
// bound included, and ParsePlan reads it back to an equal plan.
func (p Plan) String() string {
	rate := func(v float64) string { return strconv.FormatFloat(v, 'g', -1, 64) }
	s := fmt.Sprintf("latency=%s:%v-%v,drop=%s,claimerr=%s",
		rate(p.LatencyRate), p.LatencyMin, p.LatencyMax, rate(p.DropRate), rate(p.ClaimErrorRate))
	for _, o := range p.Outages {
		s += fmt.Sprintf(",outage=%d@%d-%d", o.Platform, o.From, o.Until)
	}
	return s
}

func parseRate(s string) (float64, error) {
	v, err := strconv.ParseFloat(s, 64)
	if err != nil {
		return 0, err
	}
	if !(v >= 0 && v <= 1) {
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
