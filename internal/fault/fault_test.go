package fault

import (
	"math/rand"
	"strings"
	"testing"
	"time"

	"crossmatch/internal/core"
	"crossmatch/internal/metrics"
)

func TestParsePlanRoundTrip(t *testing.T) {
	p, err := ParsePlan("latency=0.2:1ms-10ms,drop=0.1,claimerr=0.05,outage=2@100-300,outage=3@50-,deadline=15ms,attempts=4,backoff=500us-4ms,threshold=3,cooldown=40")
	if err != nil {
		t.Fatal(err)
	}
	if p.LatencyRate != 0.2 || p.LatencyMin != time.Millisecond || p.LatencyMax != 10*time.Millisecond {
		t.Errorf("latency parsed as %v [%v, %v]", p.LatencyRate, p.LatencyMin, p.LatencyMax)
	}
	if p.DropRate != 0.1 || p.ClaimErrorRate != 0.05 {
		t.Errorf("rates parsed as drop=%v claimerr=%v", p.DropRate, p.ClaimErrorRate)
	}
	if len(p.Outages) != 2 {
		t.Fatalf("outages = %v", p.Outages)
	}
	if p.Outages[0] != (Outage{Platform: 2, From: 100, Until: 300}) {
		t.Errorf("outage[0] = %+v", p.Outages[0])
	}
	if p.Outages[1] != (Outage{Platform: 3, From: 50, Until: 0}) {
		t.Errorf("outage[1] = %+v (want open-ended)", p.Outages[1])
	}
	if p.Retry.Deadline != 15*time.Millisecond || p.Retry.MaxAttempts != 4 {
		t.Errorf("retry = %+v", p.Retry)
	}
	if p.Retry.BaseBackoff != 500*time.Microsecond || p.Retry.MaxBackoff != 4*time.Millisecond {
		t.Errorf("backoff = %+v", p.Retry)
	}
	if p.Breaker.FailureThreshold != 3 || p.Breaker.CooldownTicks != 40 {
		t.Errorf("breaker = %+v", p.Breaker)
	}
	if len(p.Outages) != 2 {
		t.Errorf("outages = %+v, want two", p.Outages)
	}
	s := p.String()
	for _, want := range []string{"latency=0.2:1ms-10ms", "drop=0.1", "claimerr=0.05", "outage=2@100-300", "outage=3@50-"} {
		if !strings.Contains(s, want) {
			t.Errorf("String() = %q missing %q", s, want)
		}
	}
}

func TestParsePlanRejectsUnknownKey(t *testing.T) {
	for _, spec := range []string{
		"latenncy=0.2:1ms-10ms", // typo'd key
		"drop=0.1,bogus=3",
		"drop=2",           // rate out of range
		"latency=0.5:10ms", // missing bounds
		"outage=2",         // missing window
		"",                 // empty plan
		"drop",             // not key=value
	} {
		if _, err := ParsePlan(spec); err == nil {
			t.Errorf("ParsePlan(%q) accepted", spec)
		}
	}
}

func TestPlanValidate(t *testing.T) {
	bad := []*Plan{
		{DropRate: -0.1},
		{ClaimErrorRate: 1.5},
		{LatencyRate: 0.5},                           // no magnitude
		{LatencyMin: 5, LatencyMax: 1},               // inverted bounds
		{Outages: []Outage{{Platform: 0, From: 10}}}, // zero platform
	}
	for i, p := range bad {
		if err := p.Validate(); err == nil {
			t.Errorf("plan %d validated: %+v", i, p)
		}
	}
	if err := (&Plan{}).Validate(); err != nil {
		t.Errorf("zero plan rejected: %v", err)
	}
	var nilPlan *Plan
	if err := nilPlan.Validate(); err != nil {
		t.Errorf("nil plan rejected: %v", err)
	}
}

func TestRetryBackoffCappedAndJittered(t *testing.T) {
	p := RetryPolicy{BaseBackoff: time.Millisecond, MaxBackoff: 4 * time.Millisecond}.withDefaults()
	rng := rand.New(rand.NewSource(1))
	for attempt := 0; attempt < 20; attempt++ {
		d := p.Backoff(attempt, rng)
		if d <= 0 {
			t.Fatalf("attempt %d: non-positive backoff %v", attempt, d)
		}
		if d > p.MaxBackoff {
			t.Fatalf("attempt %d: backoff %v above cap %v", attempt, d, p.MaxBackoff)
		}
	}
	// Jitter stays within [50%, 100%] of the exponential step.
	d := p.Backoff(0, rng)
	if d < p.BaseBackoff/2 || d > p.BaseBackoff {
		t.Errorf("first backoff %v outside [%v, %v]", d, p.BaseBackoff/2, p.BaseBackoff)
	}
}

func TestBreakerLifecycle(t *testing.T) {
	col := metrics.New()
	b := NewBreaker(BreakerConfig{FailureThreshold: 3, CooldownTicks: 10}, col)

	if b.State() != Closed {
		t.Fatal("new breaker not closed")
	}
	// Failures below the threshold keep it closed; a success resets.
	b.Failure(0)
	b.Failure(0)
	b.Success()
	b.Failure(1)
	b.Failure(1)
	if b.State() != Closed {
		t.Fatal("breaker opened before threshold")
	}
	b.Failure(2) // third consecutive → open
	if b.State() != Open {
		t.Fatal("breaker not open after threshold consecutive failures")
	}
	if b.Allow(5) {
		t.Fatal("open breaker allowed a call inside cooldown")
	}
	// Cooldown elapsed: half-open admits exactly one trial.
	if !b.Allow(12) {
		t.Fatal("cooled-down breaker refused the half-open trial")
	}
	if b.State() != HalfOpen {
		t.Fatalf("state = %v, want half-open", b.State())
	}
	if b.Allow(12) {
		t.Fatal("second concurrent call admitted during half-open trial")
	}
	// Failed trial reopens; cooldown restarts from the failure time.
	b.Failure(12)
	if b.State() != Open {
		t.Fatal("failed trial did not reopen the breaker")
	}
	if b.Allow(15) {
		t.Fatal("reopened breaker allowed a call before the new cooldown")
	}
	if !b.Allow(25) {
		t.Fatal("second half-open trial refused")
	}
	b.Success()
	if b.State() != Closed {
		t.Fatal("successful trial did not close the breaker")
	}
	// closed>open, open>half-open, half-open>open, open>half-open,
	// half-open>closed: each transition counted once.
	if c := col.Snapshot().Counters; c.BreakerOpened != 2 || c.BreakerHalfOpened != 2 || c.BreakerClosed != 1 {
		t.Fatalf("transitions counted opened=%d half-opened=%d closed=%d, want 2, 2, 1",
			c.BreakerOpened, c.BreakerHalfOpened, c.BreakerClosed)
	}
}

func testInjector(t *testing.T, plan *Plan, m *metrics.Collector) *Injector {
	t.Helper()
	if err := plan.Validate(); err != nil {
		t.Fatal(err)
	}
	return New(plan, 42, []core.PlatformID{1, 2}, m)
}

func TestInjectorOutageOpensBreakerAndRecovers(t *testing.T) {
	col := metrics.New()
	in := testInjector(t, &Plan{
		Outages: []Outage{{Platform: 2, From: 0, Until: 100}},
		Breaker: BreakerConfig{FailureThreshold: 2, CooldownTicks: 10},
		Retry:   RetryPolicy{MaxAttempts: 1},
	}, col)

	// Inside the outage every probe fails; the second failure opens the
	// breaker.
	for i := 0; i < 2; i++ {
		if in.ProbePartner(1, 2, core.Time(i)) {
			t.Fatalf("probe %d succeeded during outage", i)
		}
	}
	if in.BreakerState(2) != Open {
		t.Fatalf("breaker state = %v, want open", in.BreakerState(2))
	}
	// Short-circuited while open.
	if in.ProbePartner(1, 2, 5) {
		t.Fatal("probe succeeded against an open breaker")
	}
	// Half-open trial inside the outage fails and reopens.
	if in.ProbePartner(1, 2, 20) {
		t.Fatal("half-open trial succeeded during outage")
	}
	// After the outage lifts, the next trial closes the breaker and
	// probes succeed again.
	if in.ProbePartner(1, 2, 101) {
		// First post-outage call may still be short-circuited if the
		// reopen at t=20 has not cooled down (20+10 <= 101, so it has).
		// Success expected.
	} else {
		t.Fatal("post-outage half-open trial failed")
	}
	if in.BreakerState(2) != Closed {
		t.Fatalf("breaker state = %v after recovery, want closed", in.BreakerState(2))
	}
	if !in.ProbePartner(1, 2, 102) {
		t.Fatal("probe failed after recovery")
	}

	c := col.Snapshot().Counters
	if c.FaultOutageHits == 0 {
		t.Error("no outage hits counted")
	}
	if c.BreakerOpened != 2 { // initial open + reopen after failed trial
		t.Errorf("breaker opened %d times, want 2", c.BreakerOpened)
	}
	if c.BreakerHalfOpened != 2 || c.BreakerClosed != 1 {
		t.Errorf("half-opened=%d closed=%d, want 2 and 1", c.BreakerHalfOpened, c.BreakerClosed)
	}
	if c.BreakerShortCircuits == 0 {
		t.Error("no short-circuits counted while open")
	}
}

func TestInjectorDropRetriesThenFails(t *testing.T) {
	col := metrics.New()
	in := testInjector(t, &Plan{
		DropRate: 1, // every attempt drops
		Retry:    RetryPolicy{MaxAttempts: 3},
		Breaker:  BreakerConfig{FailureThreshold: 100},
	}, col)
	if in.ProbePartner(1, 2, 0) {
		t.Fatal("probe succeeded with 100% drop rate")
	}
	c := col.Snapshot().Counters
	if c.FaultDroppedProbes != 3 {
		t.Errorf("dropped probes = %d, want 3 (one per attempt)", c.FaultDroppedProbes)
	}
	if c.ProbeRetries != 2 {
		t.Errorf("probe retries = %d, want 2", c.ProbeRetries)
	}
}

func TestInjectorLatencyBlowsDeadline(t *testing.T) {
	col := metrics.New()
	in := testInjector(t, &Plan{
		LatencyRate: 1,
		LatencyMin:  50 * time.Millisecond,
		LatencyMax:  50 * time.Millisecond,
		Retry:       RetryPolicy{MaxAttempts: 3, Deadline: 10 * time.Millisecond},
		Breaker:     BreakerConfig{FailureThreshold: 100},
	}, col)
	if in.ProbePartner(1, 2, 0) {
		t.Fatal("probe succeeded though every spike exceeds the deadline")
	}
	c := col.Snapshot().Counters
	if c.ProbeTimeouts != 1 {
		t.Errorf("probe timeouts = %d, want 1 (deadline kills the call on the first spike)", c.ProbeTimeouts)
	}
	if c.FaultLatencySpikes != 1 {
		t.Errorf("latency spikes = %d, want 1", c.FaultLatencySpikes)
	}
	// The spike distribution must be visible in the reservoir.
	found := false
	for _, l := range col.Snapshot().Latencies {
		if l.Label == metrics.ProbeLatencyLabel && l.Count == 1 {
			found = true
		}
	}
	if !found {
		t.Errorf("no %s reservoir entry", metrics.ProbeLatencyLabel)
	}
}

func TestInjectorClaimFaults(t *testing.T) {
	col := metrics.New()
	in := testInjector(t, &Plan{
		ClaimErrorRate: 1,
		Retry:          RetryPolicy{MaxAttempts: 2},
		Breaker:        BreakerConfig{FailureThreshold: 1, CooldownTicks: 1000},
	}, col)
	if in.ClaimPartner(1, 2, 0) {
		t.Fatal("claim succeeded with 100% claim-error rate")
	}
	if in.BreakerState(2) != Open {
		t.Fatal("breaker not open after claim failure run (threshold 1)")
	}
	// Probes against the same partner are now short-circuited too: the
	// breaker guards the platform, not the call type.
	if in.ProbePartner(1, 2, 1) {
		t.Fatal("probe succeeded against a breaker opened by claim faults")
	}
	c := col.Snapshot().Counters
	if c.FaultClaimErrors != 2 {
		t.Errorf("claim errors = %d, want 2", c.FaultClaimErrors)
	}
	if c.BreakerShortCircuits != 1 {
		t.Errorf("short circuits = %d, want 1", c.BreakerShortCircuits)
	}
}

func TestInjectorDeterministicPerSeed(t *testing.T) {
	plan := &Plan{DropRate: 0.5, Seed: 7}
	outcomes := func() []bool {
		in := New(plan, 1, []core.PlatformID{1, 2}, nil)
		var out []bool
		for i := 0; i < 64; i++ {
			out = append(out, in.ProbePartner(1, 2, core.Time(i)))
		}
		return out
	}
	a, b := outcomes(), outcomes()
	for i := range a {
		if a[i] != b[i] {
			t.Fatalf("probe %d diverged across identical injectors", i)
		}
	}
	// A different plan seed must change the sequence (overwhelmingly).
	in2 := New(&Plan{DropRate: 0.5, Seed: 8}, 1, []core.PlatformID{1, 2}, nil)
	same := true
	for i := 0; i < 64; i++ {
		if in2.ProbePartner(1, 2, core.Time(i)) != a[i] {
			same = false
		}
	}
	if same {
		t.Error("seed 7 and seed 8 produced identical 64-probe sequences")
	}
}
