package platform

import (
	"reflect"
	"testing"
	"time"

	"crossmatch/internal/fault"
	"crossmatch/internal/trace"
)

// TestTracedRunBitIdenticalToUntraced guards the tracing determinism
// contract: the tracer never draws from matcher RNGs, so a sequential
// run's matching — every assignment and payment — is bit-identical with
// tracing off, on at full rate, and on at a sampled rate. At full rate
// every decided request, window flushes included, has exactly one span;
// at a sampled rate the traced requests depend on their IDs alone, so
// runs under two seeds trace the same ones.
func TestTracedRunBitIdenticalToUntraced(t *testing.T) {
	stream := multiStream(t, 3, 400, 80, 51)
	type key struct {
		platform int32
		request  int64
	}
	traced := func(tr *trace.Tracer) map[key]int {
		out := map[key]int{}
		for _, sp := range tr.Spans() {
			out[key{sp.Platform, sp.RequestID}]++
		}
		return out
	}
	for _, alg := range []string{AlgDemCOM, AlgRamCOM, AlgTOTA, AlgGreedyRT, AlgBatchCOM} {
		factory, err := FactoryFor(alg, stream.MaxValue())
		if err != nil {
			t.Fatal(err)
		}
		plain, err := Run(stream, factory, Config{Seed: 51})
		if err != nil {
			t.Fatal(err)
		}
		for _, sample := range []float64{0, 0.3} {
			tr := trace.New(trace.Options{Capacity: 4096, Sample: sample})
			res, err := Run(stream, factory, Config{Seed: 51, Trace: tr})
			if err != nil {
				t.Fatal(err)
			}
			if resultKey(plain) != resultKey(res) {
				t.Errorf("%s: tracing (sample=%g) changed the matching", alg, sample)
			}
			if tr.Recorded() == 0 || tr.Dropped() != 0 {
				t.Fatalf("%s: tracer recorded %d spans and dropped %d at sample=%g", alg, tr.Recorded(), tr.Dropped(), sample)
			}
			spans := traced(tr)
			if sample == 0 {
				requests := 0
				for _, p := range res.Platforms {
					requests += p.Stats.Requests
				}
				for k, n := range spans {
					if n != 1 {
						t.Errorf("%s: request %d on platform %d has %d spans", alg, k.request, k.platform, n)
					}
				}
				if len(spans) != requests {
					t.Errorf("%s: %d requests traced of %d decided", alg, len(spans), requests)
				}
				continue
			}
			other := trace.New(trace.Options{Capacity: 4096, Sample: sample})
			if _, err := Run(stream, factory, Config{Seed: 52, Trace: other}); err != nil {
				t.Fatal(err)
			}
			if !reflect.DeepEqual(spans, traced(other)) {
				t.Errorf("%s: seeds 51 and 52 traced different requests at sample=%g", alg, sample)
			}
		}
	}
}

// TestTracedRunRecordsOutcomesAndStages checks end-to-end span content:
// a traced DemCOM run must tag every decision with a known outcome, and
// cooperative assignments must carry pricing/probes/claim stage laps and
// the outer payment.
func TestTracedRunRecordsOutcomesAndStages(t *testing.T) {
	stream := multiStream(t, 3, 400, 80, 23)
	factory, err := FactoryFor(AlgDemCOM, stream.MaxValue())
	if err != nil {
		t.Fatal(err)
	}
	tr := trace.New(trace.Options{Capacity: 4096})
	res, err := Run(stream, factory, Config{Seed: 23, Trace: tr})
	if err != nil {
		t.Fatal(err)
	}
	requests := 0
	for _, p := range res.Platforms {
		requests += p.Stats.Requests
	}
	spans := tr.Spans()
	if len(spans) != requests {
		t.Fatalf("traced %d spans for %d requests", len(spans), requests)
	}
	known := map[string]bool{
		"inner": true, "inner-fallback": true, "outer": true,
		"no-workers": true, "unprofitable": true, "no-acceptor": true,
		"claims-lost": true, "below-threshold": true,
	}
	outer := 0
	for _, sp := range spans {
		if !known[sp.Outcome] {
			t.Fatalf("span %d: unknown outcome %q", sp.Seq, sp.Outcome)
		}
		if sp.Outcome != "outer" {
			continue
		}
		outer++
		if sp.Payment <= 0 {
			t.Errorf("outer span %d: payment %g", sp.Seq, sp.Payment)
		}
		if sp.Probes <= 0 {
			t.Errorf("outer span %d: no probes recorded", sp.Seq)
		}
		stages := map[string]bool{}
		for _, l := range sp.Stages {
			stages[l.Stage] = true
		}
		for _, want := range []string{"inner-lookup", "eligibility", "pricing", "probes", "claim"} {
			if !stages[want] {
				t.Errorf("outer span %d: missing stage %q (have %v)", sp.Seq, want, sp.Stages)
			}
		}
	}
	if outer != res.CooperativeServed() {
		t.Errorf("outer spans %d != cooperative served %d", outer, res.CooperativeServed())
	}
}

// TestTraceParallelChaos is the stress for the tracing layer: an
// aggressive fault plan, worker recycling, and a tiny span ring forcing
// constant wrap-around. The assertions pin the accounting (recorded =
// requests, dropped matches retention) and that injected faults land
// inside spans.
func TestTraceParallelChaos(t *testing.T) {
	stream := multiStream(t, 4, 600, 120, 13)
	factory, err := FactoryFor(AlgDemCOM, stream.MaxValue())
	if err != nil {
		t.Fatal(err)
	}
	tr := trace.New(trace.Options{Capacity: 32})
	res, err := Run(stream, factory, Config{
		Seed:         13,
		ServiceTicks: 10,
		Trace:        tr,
		Faults: &fault.Plan{
			DropRate:       0.3,
			ClaimErrorRate: 0.2,
			LatencyRate:    0.5,
			LatencyMin:     time.Microsecond,
			LatencyMax:     10 * time.Microsecond,
			Retry:          fault.RetryPolicy{MaxAttempts: 2, Deadline: 5 * time.Millisecond},
			Breaker:        fault.BreakerConfig{FailureThreshold: 4, CooldownTicks: 50},
		},
	})
	if err != nil {
		t.Fatal(err)
	}
	assertAtomicAssignments(t, res)

	requests := 0
	for _, p := range res.Platforms {
		requests += p.Stats.Requests
	}
	if got := tr.Recorded(); got != uint64(requests) {
		t.Errorf("recorded %d spans for %d requests", got, requests)
	}
	spans := tr.Spans()
	if len(spans) != 4*32 {
		t.Errorf("retained %d spans, want 4 platforms x capacity 32", len(spans))
	}
	if want := tr.Recorded() - uint64(len(spans)); tr.Dropped() != want {
		t.Errorf("dropped %d, want %d", tr.Dropped(), want)
	}
	faults := 0
	for _, sp := range spans {
		faults += len(sp.Faults)
	}
	if faults == 0 {
		t.Error("chaos run recorded no fault events in any retained span")
	}
}
