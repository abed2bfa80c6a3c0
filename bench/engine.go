package main

import (
	"fmt"
	"time"

	"crossmatch/internal/core"
	"crossmatch/internal/metrics"
	"crossmatch/internal/platform"
)

// latencySampleMask times Engine.Process on every 16th request in an
// untraced pass; sampling by index keeps timer cost well under 0.5% of
// a pass even at ~2 µs per event.
const latencySampleMask = 15

// passResult is what one measured pass hands back to the run loop.
type passResult struct {
	events    int           // events decided (requests + worker arrivals)
	wall      time.Duration // pass wall time, first event in to last decision out
	latNs     []int64       // per-event time to decision, ns
	attempted int64         // operations attempted (one per event)
	failed    int64         // transport error, non-ok status, watchdog, wrong decision
	// counts are the program's own counters read after the pass (traced
	// run only for the engine workloads).
	counts map[string]float64
	// lateNs is how late each open-loop POST was sent; nil otherwise.
	lateNs []int64
}

// engineRun drives an unsharded platform.Engine event by event — no
// serve, WAL or router code runs.
type engineRun struct {
	name   string
	alg    string
	seed   int64
	stream *core.Stream
	ref    *platform.Result
	want   digest
	genS   float64 // stream generation seconds (per-layer workload.gen_events_per_s)
	probes probeSet
	next   *platform.Engine
}

func (r *engineRun) newEngine(mc *metrics.Collector) (*platform.Engine, error) {
	factory, err := factoryFor(r.alg, r.stream)
	if err != nil {
		return nil, err
	}
	return platform.NewEngine(r.stream.Platforms(), factory, platform.Config{Seed: r.seed, Metrics: mc})
}

// setupEngine is one full set-up: generate the stream, run the offline
// reference that yields the expected digest, build the first engine,
// and warm up over the first tenth of the stream on a throwaway engine.
func setupEngine(name string, spec streamSpec, alg string, seed int64, probes probeSet) (*engineRun, error) {
	r := &engineRun{name: name, alg: alg, seed: seed, probes: probes}
	t0 := time.Now()
	stream, err := spec.generate(seed)
	if err != nil {
		return nil, err
	}
	r.genS = time.Since(t0).Seconds()
	r.stream = stream
	if r.ref, err = reference(stream, alg, seed); err != nil {
		return nil, err
	}
	r.want = digestOf(r.ref)
	if r.next, err = r.newEngine(nil); err != nil {
		return nil, err
	}
	warm, err := r.newEngine(nil)
	if err != nil {
		return nil, err
	}
	for _, ev := range stream.Events()[:stream.Len()/10] {
		if _, err := warm.Process(ev); err != nil {
			return nil, fmt.Errorf("%s warm-up: %w", name, err)
		}
	}
	if _, err := warm.Finish(); err != nil {
		return nil, err
	}
	return r, nil
}

func (r *engineRun) describe() string {
	req, work := countKinds(r.stream.Events())
	return fmt.Sprintf("%s: %d events (%d requests + %d worker arrivals), %s, unsharded platform.Engine fed event by event",
		r.name, r.stream.Len(), req, work, r.alg)
}

func (r *engineRun) close() { r.next = nil }

// pass feeds the whole stream through a fresh engine and verifies the
// digest. Untraced, every 16th request is timed; traced, every event is
// timed and recorded as a span.
func (r *engineRun) pass(rec *recorder) (passResult, error) {
	eng := r.next
	r.next = nil
	var mc *metrics.Collector
	if eng == nil || rec != nil {
		if rec != nil {
			mc = metrics.New()
		}
		var err error
		if eng, err = r.newEngine(mc); err != nil {
			return passResult{}, err
		}
	}
	events := r.stream.Events()
	out := passResult{events: len(events), attempted: int64(len(events)),
		latNs: make([]int64, 0, len(events)/(latencySampleMask+1)+1)}
	nreq := 0
	t0 := time.Now()
	for i, ev := range events {
		request := ev.Kind == core.RequestArrival
		timed := rec != nil
		if request {
			nreq++
			timed = timed || nreq&latencySampleMask == 0
		}
		if !timed {
			if _, err := eng.Process(ev); err != nil {
				return out, err
			}
			continue
		}
		ts := time.Now()
		if _, err := eng.Process(ev); err != nil {
			return out, err
		}
		te := time.Now()
		if request {
			out.latNs = append(out.latNs, int64(te.Sub(ts)))
			rec.add(spanEngineRequest, spanEnginePass, int64(i), ts, te)
		} else {
			rec.add(spanEngineWorker, spanEnginePass, int64(i), ts, te)
		}
	}
	end := time.Now()
	out.wall = end.Sub(t0)
	res, err := eng.Finish()
	if err != nil {
		return out, err
	}
	if got := digestOf(res); got != r.want {
		return out, fmt.Errorf("%s: engine digest differs from the offline reference\n  engine:  %v\n  offline: %v", r.name, got, r.want)
	}
	if rec != nil {
		rec.add(spanEnginePass, "", -1, t0, end)
		out.counts = map[string]float64{}
		programCounts(mc.Snapshot(), out.counts)
	}
	return out, nil
}
