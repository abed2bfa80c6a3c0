package platform

import (
	"fmt"
	"testing"
	"time"

	"crossmatch/internal/core"
	"crossmatch/internal/fault"
	"crossmatch/internal/metrics"
	"crossmatch/internal/pricing"
)

// resultKey fingerprints a run assignment-for-assignment, so two runs
// can be compared for bit-identity.
func resultKey(res *Result) string {
	s := ""
	for pid := core.PlatformID(1); pid <= 16; pid++ {
		p := res.Platforms[pid]
		if p == nil {
			continue
		}
		s += fmt.Sprintf("[%d:%d:%.9f", pid, p.Stats.Served, p.Stats.Revenue)
		for _, a := range p.Matching.Assignments() {
			s += fmt.Sprintf(" %d->%d@%.9f", a.Request.ID, a.Worker.ID, a.Payment)
		}
		s += "]"
	}
	return s
}

// TestZeroRatePlanBitIdenticalToNoPlan guards the determinism contract
// of the fault layer: a plan that never fires draws only from the
// injector's own RNG, so matching decisions — and therefore every
// assignment and payment — are bit-identical to a run without any plan.
func TestZeroRatePlanBitIdenticalToNoPlan(t *testing.T) {
	stream := multiStream(t, 3, 400, 80, 23)
	for _, alg := range []string{AlgDemCOM, AlgRamCOM} {
		factory, err := FactoryConfigured(alg, AlgConfig{MaxValue: stream.MaxValue()})
		if err != nil {
			t.Fatal(err)
		}
		plain, err := Run(stream, factory, Config{Seed: 23})
		if err != nil {
			t.Fatal(err)
		}
		// All rates zero: the injector is live (probes consult it) but
		// never injects.
		faulted, err := Run(stream, factory, Config{Seed: 23, Faults: &fault.Plan{}})
		if err != nil {
			t.Fatal(err)
		}
		if resultKey(plain) != resultKey(faulted) {
			t.Errorf("%s: zero-rate fault plan changed the matching", alg)
		}
	}
}

// TestFullOutageEqualsCoopDisabled proves graceful degradation end to
// end: with every platform dark for the whole run, DemCOM and RamCOM
// must produce exactly the matching of a CoopDisabled (TOTA-degraded)
// run — same assignments, same payments, same revenue — because probe
// failures and open breakers starve the cooperative path without ever
// touching matcher randomness.
func TestFullOutageEqualsCoopDisabled(t *testing.T) {
	stream := multiStream(t, 3, 500, 100, 31)
	outages := make([]fault.Outage, 0, 3)
	for _, pid := range stream.Platforms() {
		outages = append(outages, fault.Outage{Platform: pid, From: 0}) // open-ended
	}
	for _, alg := range []string{AlgDemCOM, AlgRamCOM} {
		factory, err := FactoryConfigured(alg, AlgConfig{MaxValue: stream.MaxValue()})
		if err != nil {
			t.Fatal(err)
		}
		disabled, err := Run(stream, factory, Config{Seed: 31, DisableCoop: true})
		if err != nil {
			t.Fatal(err)
		}
		dark, err := Run(stream, factory, Config{Seed: 31, Faults: &fault.Plan{Outages: outages}})
		if err != nil {
			t.Fatal(err)
		}
		if resultKey(disabled) != resultKey(dark) {
			t.Errorf("%s: full-outage run != CoopDisabled run\n outage: %s\n coopoff: %s",
				alg, resultKey(dark), resultKey(disabled))
		}
		if dark.CooperativeServed() != 0 {
			t.Errorf("%s: %d cooperative assignments against fully dark partners", alg, dark.CooperativeServed())
		}
	}
}

// TestBreakerCountersMatchOutageSchedule pins the breaker-transition
// accounting to an injected schedule. Platform 1 is down for the whole
// run while platforms 2 and 3 hammer it with cooperative probes, so its
// (shared) breaker opens once, then cycles half-open→open forever:
// opened must equal half-opened + 1 and nothing ever closes.
func TestBreakerCountersMatchOutageSchedule(t *testing.T) {
	col := metrics.New()
	stream := conflictStream(t, 50, 300) // platforms 2 and 3 probe platform 1 every tick
	_, err := Run(stream, DemCOMFactory(pricing.DefaultMonteCarlo, false), Config{
		Seed:    3,
		Metrics: col,
		Faults: &fault.Plan{
			Outages: []fault.Outage{{Platform: 1, From: 0}}, // never lifts
		},
	})
	if err != nil {
		t.Fatal(err)
	}
	c := col.Snapshot().Counters
	if c.BreakerOpened == 0 {
		t.Fatal("breaker never opened under a permanent outage")
	}
	if c.BreakerClosed != 0 {
		t.Errorf("breaker closed %d times under a permanent outage, want 0", c.BreakerClosed)
	}
	if c.BreakerOpened != c.BreakerHalfOpened+1 {
		t.Errorf("opened=%d, half-opened=%d: want opened == half-opened + 1 (initial open plus one reopen per failed trial)",
			c.BreakerOpened, c.BreakerHalfOpened)
	}
	if c.BreakerShortCircuits == 0 {
		t.Error("no probes were short-circuited while the breaker was open")
	}
	if c.FaultOutageHits == 0 {
		t.Error("no outage hits recorded")
	}
}

// TestBreakerRecoversAfterOutageLifts closes the loop on the breaker
// lifecycle: a bounded outage opens the breaker, and once the window
// passes a half-open trial succeeds, the breaker closes, and
// cooperation resumes (cooperative assignments appear after recovery).
func TestBreakerRecoversAfterOutageLifts(t *testing.T) {
	col := metrics.New()
	stream := conflictStream(t, 250, 300) // requests arrive at t = 1..300
	res, err := Run(stream, DemCOMFactory(pricing.DefaultMonteCarlo, false), Config{
		Seed:    4,
		Metrics: col,
		Faults: &fault.Plan{
			Outages: []fault.Outage{{Platform: 1, From: 0, Until: 100}},
		},
	})
	if err != nil {
		t.Fatal(err)
	}
	c := col.Snapshot().Counters
	if c.BreakerOpened == 0 {
		t.Fatal("breaker never opened during the outage window")
	}
	if c.BreakerClosed == 0 {
		t.Error("breaker never closed after the outage lifted")
	}
	if res.CooperativeServed() == 0 {
		t.Error("no cooperative assignments after recovery; degradation never healed")
	}
}

// TestChaosParallelFaultInjection is the chaos gate of the fault layer:
// latency spikes, dropped probes, transient claim errors and a mid-run
// outage, all with worker recycling on. The run must terminate, every
// matching must stay valid with no worker assigned twice across
// platforms, and the injected faults must be visible in the counters.
func TestChaosParallelFaultInjection(t *testing.T) {
	stream := multiStream(t, 4, 800, 160, 47)
	// Find the stream horizon to place a mid-run outage.
	events := stream.Events()
	horizon := events[len(events)-1].Time
	plan := &fault.Plan{
		LatencyRate:    0.3,
		LatencyMin:     10 * time.Microsecond,
		LatencyMax:     2 * time.Millisecond,
		DropRate:       0.2,
		ClaimErrorRate: 0.2,
		Outages: []fault.Outage{
			{Platform: 1, From: horizon / 4, Until: horizon / 2},
			{Platform: 2, From: horizon / 2}, // goes dark and never returns
		},
	}
	col := metrics.New()
	for _, seed := range []int64{1, 2, 3} {
		res, err := Run(stream, DemCOMFactory(pricing.DefaultMonteCarlo, false), Config{
			Seed:         seed,
			ServiceTicks: 10,
			Metrics:      col,
			Faults:       plan,
		})
		if err != nil {
			t.Fatalf("seed %d: %v", seed, err)
		}
		assertAtomicAssignments(t, res)
	}
	c := col.Snapshot().Counters
	if c.FaultDroppedProbes == 0 || c.FaultLatencySpikes == 0 || c.FaultOutageHits == 0 {
		t.Errorf("chaos plan injected nothing: %+v", c)
	}
	if c.BreakerOpened == 0 {
		t.Error("no breaker ever opened under the chaos plan")
	}
	if c.ProbeRetries == 0 {
		t.Error("no cooperation call was ever retried")
	}
}

// TestRunRejectsInvalidFaultPlan checks that a malformed plan fails the
// run up front with a clear error instead of injecting garbage.
func TestRunRejectsInvalidFaultPlan(t *testing.T) {
	stream := multiStream(t, 2, 50, 10, 1)
	_, err := Run(stream, totaFactory(), Config{Seed: 1, Faults: &fault.Plan{DropRate: 1.5}})
	if err == nil {
		t.Fatal("invalid fault plan accepted")
	}
}

// TestFaultCountsFoldMidRun: a faulted engine writes no collector while
// it runs. Its fault counts stay in the injector, and a FoldFunnel into
// a fresh collector part way through carries all ten of them and the
// spike distribution; Finish then folds the whole run into
// Config.Metrics.
func TestFaultCountsFoldMidRun(t *testing.T) {
	stream := multiStream(t, 3, 600, 120, 29)
	plan := &fault.Plan{LatencyRate: 0.3, LatencyMin: 10 * time.Microsecond, LatencyMax: 2 * time.Millisecond,
		DropRate: 0.2, ClaimErrorRate: 0.2}
	col := metrics.New()
	eng, err := NewEngine(stream.Platforms(), DemCOMFactory(pricing.DefaultMonteCarlo, false),
		Config{Seed: 5, Faults: plan, Metrics: col})
	if err != nil {
		t.Fatal(err)
	}
	events := stream.Events()
	for _, ev := range events[:len(events)/2] {
		if _, err := eng.Process(ev); err != nil {
			t.Fatal(err)
		}
	}
	if rep := col.Snapshot(); rep.Counters != (metrics.Counters{}) || len(rep.Latencies) != 0 {
		t.Fatalf("the engine wrote its collector mid-run: %+v", rep)
	}
	faultCounts := func(c metrics.Counters) [10]int64 {
		return [10]int64{c.FaultLatencySpikes, c.FaultDroppedProbes, c.FaultClaimErrors, c.FaultOutageHits,
			c.ProbeRetries, c.ProbeTimeouts, c.BreakerOpened, c.BreakerHalfOpened, c.BreakerClosed, c.BreakerShortCircuits}
	}
	injected := func(st fault.Stats) [10]int64 {
		return [10]int64{st.LatencySpikes, st.DroppedProbes, st.ClaimErrors, st.OutageHits,
			st.Retries, st.Timeouts, st.BreakerOpened, st.BreakerHalfOpened, st.BreakerClosed, st.ShortCircuits}
	}
	st := eng.hub.faults.Stats()
	want := injected(st)
	if st.LatencySpikes == 0 || st.DroppedProbes == 0 || st.ClaimErrors == 0 || st.Retries == 0 {
		t.Fatalf("the plan injected too little to check: %+v", st)
	}
	mid := metrics.New()
	eng.FoldFunnel(mid)
	rep := mid.Snapshot()
	if got := faultCounts(rep.Counters); got != want || rep.Counters.Runs != 1 {
		t.Errorf("mid-run fold: runs %d, fault counts %v; want 1 run and the injector's %v", rep.Counters.Runs, got, want)
	}
	spikes := int64(0)
	for _, l := range rep.Latencies {
		if l.Label == metrics.ProbeLatencyLabel {
			spikes = l.Count
		}
	}
	if spikes != st.LatencySpikes {
		t.Errorf("mid-run fold: %d spikes under %s, the injector counted %d", spikes, metrics.ProbeLatencyLabel, st.LatencySpikes)
	}

	for _, ev := range events[len(events)/2:] {
		if _, err := eng.Process(ev); err != nil {
			t.Fatal(err)
		}
	}
	if _, err := eng.Finish(); err != nil {
		t.Fatal(err)
	}
	want = injected(eng.hub.faults.Stats())
	if c := col.Snapshot().Counters; faultCounts(c) != want || c.Runs != 1 {
		t.Errorf("after Finish: runs %d, fault counts %v; want 1 run and the injector's %v", c.Runs, faultCounts(c), want)
	}
}
