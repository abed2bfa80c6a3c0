package trace

import (
	"math/rand"
	"time"

	"crossmatch/internal/core"
)

// seedMix decorrelates per-(run, platform) sampling streams (the signed
// bit pattern of the 64-bit golden-ratio constant, as in internal/fault).
const seedMix = int64(-0x61c8864680b583eb)

// Recorder is one platform's conduit into the tracer for one run.
// Exactly one goroutine — the one driving the platform's matcher — may
// use a recorder, matching the hub view contract; committed spans go to
// the tracer's shared (locked) per-platform ring, so many runs and
// platforms can share one tracer. A nil *Recorder is a no-op.
type Recorder struct {
	tr      *Tracer
	ring    *ring
	pid     core.PlatformID
	alg     string
	runSeed int64
	sample  float64
	rng     *rand.Rand

	active bool
	cur    Span
	faults []FaultEvent
}

// Recorder returns the recorder binding (runSeed, pid, alg) to the
// tracer; it samples at the tracer's Options.Sample. A nil tracer
// returns a nil recorder.
func (t *Tracer) Recorder(runSeed int64, pid core.PlatformID, alg string) *Recorder {
	if t == nil {
		return nil
	}
	sample := t.opts.Sample
	rc := &Recorder{
		tr:      t,
		ring:    t.ringFor(pid),
		pid:     pid,
		alg:     alg,
		runSeed: runSeed,
		sample:  sample,
	}
	if sample > 0 && sample < 1 {
		rc.rng = rand.New(rand.NewSource(t.opts.Seed ^ runSeed ^ (int64(pid)+1)*seedMix))
	}
	return rc
}

// Begin opens a span for the request, or returns nil when the recorder
// is nil, recording is disabled, or the request is not sampled. Every
// *Span method is a nil-receiver no-op, so callers instrument
// unconditionally.
func (rc *Recorder) Begin(r *core.Request) *Span {
	if rc == nil || rc.sample <= 0 {
		return nil
	}
	if rc.sample < 1 && rc.rng.Float64() >= rc.sample {
		return nil
	}
	sp := &rc.cur
	*sp = Span{
		RunSeed:   rc.runSeed,
		Platform:  int32(rc.pid),
		Algorithm: rc.alg,
		RequestID: r.ID,
		Arrival:   int64(r.Arrival),
		Value:     r.Value,
		rec:       rc,
		begun:     time.Now(),
	}
	rc.faults = rc.faults[:0]
	rc.active = true
	return sp
}

// Active returns the span currently being recorded, or nil. The hub's
// fault-observer adapter uses it to attribute injected faults to the
// decision in flight on the recorder's platform.
func (rc *Recorder) Active() *Span {
	if rc == nil || !rc.active {
		return nil
	}
	return &rc.cur
}

// StageStart returns the wall-clock start for a stage measurement, or
// the zero Time when the span is nil (no time syscall on the disabled
// path).
func (sp *Span) StageStart() time.Time {
	if sp == nil {
		return time.Time{}
	}
	return time.Now()
}

// EndStage folds the time since start into the stage's lap. A stage
// entered more than once keeps its first offset and accumulates
// duration.
func (sp *Span) EndStage(s Stage, start time.Time) {
	if sp == nil {
		return
	}
	l := &sp.laps[s]
	if l.dur == 0 {
		l.offset = start.Sub(sp.begun)
	}
	l.dur += time.Since(start)
}

// Fault records one cooperation fault hitting the decision in flight.
func (sp *Span) Fault(partner core.PlatformID, kind string, latency time.Duration) {
	if sp == nil {
		return
	}
	sp.rec.faults = append(sp.rec.faults, FaultEvent{
		Partner: int32(partner),
		Kind:    kind,
		Latency: int64(latency),
	})
}

// Finish closes the span with its outcome and commits it to the
// platform ring. outcome is the decision's Reason string; payment is
// the outer payment (zero for inner assignments and rejections).
func (sp *Span) Finish(outcome string, payment float64, probes, claimRetries int) {
	if sp == nil {
		return
	}
	rc := sp.rec
	sp.Total = int64(time.Since(sp.begun))
	sp.Start = int64(sp.begun.Sub(rc.tr.epoch))
	sp.Outcome = outcome
	sp.Payment = payment
	sp.Probes = probes
	sp.ClaimRetries = claimRetries

	out := *sp
	// Materialize the wire form and strip recording state so committed
	// spans compare (and round-trip) cleanly.
	out.Stages = nil
	for s := Stage(0); s < numStages; s++ {
		if l := sp.laps[s]; l.dur > 0 {
			out.Stages = append(out.Stages, StageLap{
				Stage:  s.String(),
				Offset: int64(l.offset),
				Dur:    int64(l.dur),
			})
		}
	}
	if len(rc.faults) > 0 {
		out.Faults = append([]FaultEvent(nil), rc.faults...)
	}
	out.rec = nil
	out.begun = time.Time{}
	out.laps = [numStages]lap{}
	out.Seq = rc.tr.seq.Add(1)
	rc.ring.add(out)
	rc.active = false
}
