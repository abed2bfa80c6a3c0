package trace

import (
	"time"

	"crossmatch/internal/core"
)

// Recorder is one platform's conduit into the tracer for one run, and
// holds the span being recorded. Exactly one goroutine — the one driving
// the platform's engine — may use a recorder; committed spans go to the
// tracer's shared (locked) per-platform ring, so many runs and platforms
// can share one tracer. A nil *Recorder is a no-op.
type Recorder struct {
	tr   *Tracer
	ring *ring

	// The open span: open says whether one is being recorded, cur holds
	// its run, platform and request, begun its start stamp, laps and
	// faults what the decision recorded so far.
	open   bool
	cur    Span
	begun  time.Duration
	laps   [numStages]lap
	faults []FaultEvent
}

type lap struct {
	offset time.Duration
	dur    time.Duration
}

// Recorder returns the recorder binding (runSeed, pid, alg) to the
// tracer; it samples at the tracer's Options.Sample. A nil tracer
// returns a nil recorder.
func (t *Tracer) Recorder(runSeed int64, pid core.PlatformID, alg string) *Recorder {
	if t == nil {
		return nil
	}
	t.mu.Lock()
	g, ok := t.rings[pid]
	if !ok {
		g = &ring{}
		t.rings[pid] = g
	}
	t.mu.Unlock()
	return &Recorder{tr: t, ring: g, cur: Span{RunSeed: runSeed, Platform: int32(pid), Algorithm: alg}}
}

// Now reads the package clock, Now, on a non-nil recorder and returns
// zero on a nil one without reading a clock: a caller that stamps only
// for its spans, as BatchCOM's flush does, stamps through it.
func (rc *Recorder) Now() time.Duration {
	if rc == nil {
		return 0
	}
	return Now()
}

// Begin opens a span starting at the stamp start (a reading of Now)
// when the recorder is non-nil and the request is sampled; otherwise
// every call up to the next Begin is a no-op.
func (rc *Recorder) Begin(r *core.Request, start time.Duration) {
	if rc == nil {
		return
	}
	rc.open = rc.tr.sampled(r.ID)
	if !rc.open {
		return
	}
	rc.cur.RequestID = r.ID
	rc.cur.Arrival = int64(r.Arrival)
	rc.cur.Value = r.Value
	rc.laps = [numStages]lap{}
	rc.faults = rc.faults[:0]
	rc.begun = start
}

// StageStart returns the start of a stage measurement, or zero when no
// span is open (no clock read on the untraced path).
func (rc *Recorder) StageStart() time.Duration {
	if rc == nil || !rc.open {
		return 0
	}
	return Now()
}

// EndStage folds the time since start into the stage's lap. A stage
// entered more than once keeps its first offset and accumulates
// duration.
func (rc *Recorder) EndStage(s Stage, start time.Duration) {
	if rc == nil || !rc.open {
		return
	}
	l := &rc.laps[s]
	if l.dur == 0 {
		l.offset = start - rc.begun
	}
	l.dur += Now() - start
}

// Fault records one cooperation fault hitting the decision in flight,
// if a span is open.
func (rc *Recorder) Fault(partner core.PlatformID, kind string, latency time.Duration) {
	if rc == nil || !rc.open {
		return
	}
	rc.faults = append(rc.faults, FaultEvent{Partner: int32(partner), Kind: kind, Latency: int64(latency)})
}

// Finish closes the open span at the stamp end (a reading of Now) with
// its outcome and commits it to the platform ring. outcome is the
// decision's Reason string; payment is the outer payment (zero for
// inner assignments and rejections).
func (rc *Recorder) Finish(end time.Duration, outcome string, payment float64, probes, claimRetries int) {
	if rc == nil || !rc.open {
		return
	}
	rc.open = false
	sp := rc.cur
	sp.Start = int64(rc.begun)
	sp.Total = int64(end - rc.begun)
	sp.Outcome = outcome
	sp.Payment = payment
	sp.Probes = probes
	sp.ClaimRetries = claimRetries
	for s, l := range rc.laps {
		if l.dur > 0 {
			sp.Stages = append(sp.Stages, StageLap{
				Stage:  Stage(s).String(),
				Offset: int64(l.offset),
				Dur:    int64(l.dur),
			})
		}
	}
	if len(rc.faults) > 0 {
		sp.Faults = append([]FaultEvent(nil), rc.faults...)
	}
	rc.tr.commit(rc.ring, sp)
}
