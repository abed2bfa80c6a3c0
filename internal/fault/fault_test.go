package fault

import (
	"math"
	"math/rand"
	"reflect"
	"slices"
	"testing"
	"time"

	"crossmatch/internal/core"
)

func TestParsePlanRoundTrip(t *testing.T) {
	p, err := ParsePlan("latency=0.2:1ms-10ms,drop=0.1,claimerr=0.05,outage=2@100-300,outage=3@50-")
	if err != nil {
		t.Fatal(err)
	}
	want := &Plan{
		LatencyRate: 0.2, LatencyMin: time.Millisecond, LatencyMax: 10 * time.Millisecond,
		DropRate: 0.1, ClaimErrorRate: 0.05,
		Outages: []Outage{{Platform: 2, From: 100, Until: 300}, {Platform: 3, From: 50}}, // the second open-ended
	}
	if !reflect.DeepEqual(p, want) {
		t.Errorf("parsed %+v\nwant   %+v", p, want)
	}
	// String renders a plan in the same grammar, and reads back equal.
	for _, plan := range []*Plan{p, {}, {ClaimErrorRate: 1e-9}, {LatencyRate: 1, LatencyMin: 1500 * time.Nanosecond, LatencyMax: time.Hour + time.Nanosecond},
		{Outages: []Outage{{Platform: 7, From: 0, Until: 1}, {Platform: 1, From: 5}}}} {
		back, err := ParsePlan(plan.String())
		if err != nil || !reflect.DeepEqual(back, plan) {
			t.Errorf("ParsePlan(%q) = %+v, %v; want %+v", plan.String(), back, err, plan)
		}
	}
	if got := p.String(); got != "latency=0.2:1ms-10ms,drop=0.1,claimerr=0.05,outage=2@100-300,outage=3@50-0" {
		t.Errorf("String() = %q", got)
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
		// NaN compares false with every draw: such a rate would inject
		// nothing without a word.
		"drop=NaN",
		"claimerr=nan",
		"latency=NaN:1ms-2ms",
		// The retry and breaker policy is fixed; its old keys are unknown.
		"deadline=15ms",
		"attempts=4",
		"backoff=500us-4ms",
		"threshold=3",
		"cooldown=40",
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
		{DropRate: math.NaN()},
		{ClaimErrorRate: math.NaN()},
		{LatencyRate: math.NaN(), LatencyMax: time.Millisecond},
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
	rng := rand.New(rand.NewSource(1))
	for attempt := 0; attempt < 20; attempt++ {
		d := backoff(attempt, rng)
		if d <= 0 {
			t.Fatalf("attempt %d: non-positive backoff %v", attempt, d)
		}
		if d > maxBackoff {
			t.Fatalf("attempt %d: backoff %v above cap %v", attempt, d, maxBackoff)
		}
	}
	// Jitter stays within [50%, 100%] of the exponential step.
	d := backoff(0, rng)
	if d < baseBackoff/2 || d > baseBackoff {
		t.Errorf("first backoff %v outside [%v, %v]", d, baseBackoff/2, baseBackoff)
	}
}

func TestBreakerLifecycle(t *testing.T) {
	var st Stats
	b := &breaker{st: &st}

	// Failures below the threshold keep it closed; a success resets.
	for i := 0; i < breakerThreshold-1; i++ {
		b.failure(0)
	}
	b.success()
	for i := 0; i < breakerThreshold-1; i++ {
		b.failure(1)
	}
	if b.state != closed {
		t.Fatal("breaker opened before threshold")
	}
	b.failure(2) // the threshold-th consecutive failure opens it
	if b.state != open {
		t.Fatal("breaker not open after threshold consecutive failures")
	}
	if b.allow(2 + breakerCooldown - 1) {
		t.Fatal("open breaker allowed a call inside cooldown")
	}
	// Cooldown elapsed: half-open admits the trial.
	if !b.allow(2 + breakerCooldown) {
		t.Fatal("cooled-down breaker refused the half-open trial")
	}
	if b.state != halfOpen {
		t.Fatalf("state = %d, want half-open", b.state)
	}
	// Failed trial reopens; cooldown restarts from the failure time.
	reopened := 2 + breakerCooldown
	b.failure(reopened)
	if b.state != open {
		t.Fatal("failed trial did not reopen the breaker")
	}
	if b.allow(reopened + breakerCooldown - 1) {
		t.Fatal("reopened breaker allowed a call before the new cooldown")
	}
	if !b.allow(reopened + breakerCooldown) {
		t.Fatal("second half-open trial refused")
	}
	b.success()
	if b.state != closed {
		t.Fatal("successful trial did not close the breaker")
	}
	// closed>open, open>half-open, half-open>open, open>half-open,
	// half-open>closed: each transition counted once.
	if st.BreakerOpened != 2 || st.BreakerHalfOpened != 2 || st.BreakerClosed != 1 {
		t.Fatalf("transitions counted opened=%d half-opened=%d closed=%d, want 2, 2, 1",
			st.BreakerOpened, st.BreakerHalfOpened, st.BreakerClosed)
	}
}

func testInjector(t *testing.T, plan *Plan) *Injector {
	t.Helper()
	if err := plan.Validate(); err != nil {
		t.Fatal(err)
	}
	return New(plan, 42, []core.PlatformID{1, 2}, nil)
}

func TestInjectorOutageOpensBreakerAndRecovers(t *testing.T) {
	in := testInjector(t, &Plan{Outages: []Outage{{Platform: 2, From: 0, Until: 100}}})
	br := &in.parties[2].br

	// Inside the outage every probe fails; the threshold-th failed call
	// opens the breaker.
	for i := 0; i < breakerThreshold; i++ {
		if in.ProbePartner(1, 2, core.Time(i)) {
			t.Fatalf("probe %d succeeded during outage", i)
		}
	}
	opened := core.Time(breakerThreshold - 1)
	if br.state != open {
		t.Fatalf("breaker state = %d, want open", br.state)
	}
	// Short-circuited while open.
	if in.ProbePartner(1, 2, opened+1) {
		t.Fatal("probe succeeded against an open breaker")
	}
	// Half-open trial inside the outage fails and reopens.
	reopened := opened + breakerCooldown
	if in.ProbePartner(1, 2, reopened) {
		t.Fatal("half-open trial succeeded during outage")
	}
	// Past the outage and the new cooldown, the next trial closes the
	// breaker and probes succeed again.
	if !in.ProbePartner(1, 2, reopened+breakerCooldown) {
		t.Fatal("post-outage half-open trial failed")
	}
	if br.state != closed {
		t.Fatalf("breaker state = %d after recovery, want closed", br.state)
	}
	if !in.ProbePartner(1, 2, reopened+breakerCooldown+1) {
		t.Fatal("probe failed after recovery")
	}

	c := in.Stats()
	// Every failed call spent all its tries inside the outage.
	if want := int64((breakerThreshold + 1) * maxAttempts); c.OutageHits != want {
		t.Errorf("outage hits = %d, want %d", c.OutageHits, want)
	}
	if c.BreakerOpened != 2 { // initial open + reopen after failed trial
		t.Errorf("breaker opened %d times, want 2", c.BreakerOpened)
	}
	if c.BreakerHalfOpened != 2 || c.BreakerClosed != 1 {
		t.Errorf("half-opened=%d closed=%d, want 2 and 1", c.BreakerHalfOpened, c.BreakerClosed)
	}
	if c.ShortCircuits != 1 {
		t.Errorf("short circuits = %d, want 1", c.ShortCircuits)
	}
}

func TestInjectorDropRetriesThenFails(t *testing.T) {
	in := testInjector(t, &Plan{DropRate: 1}) // every attempt drops
	if in.ProbePartner(1, 2, 0) {
		t.Fatal("probe succeeded with 100% drop rate")
	}
	c := in.Stats()
	if c.DroppedProbes != maxAttempts {
		t.Errorf("dropped probes = %d, want %d (one per attempt)", c.DroppedProbes, maxAttempts)
	}
	if c.Retries != maxAttempts-1 {
		t.Errorf("probe retries = %d, want %d", c.Retries, maxAttempts-1)
	}
	if in.Spikes() != nil {
		t.Error("a plan without a latency rate keeps a spike reservoir")
	}
}

func TestInjectorLatencyBlowsDeadline(t *testing.T) {
	in := testInjector(t, &Plan{
		LatencyRate: 1,
		LatencyMin:  50 * time.Millisecond,
		LatencyMax:  50 * time.Millisecond,
	})
	if in.ProbePartner(1, 2, 0) {
		t.Fatal("probe succeeded though every spike exceeds the deadline")
	}
	c := in.Stats()
	if c.Timeouts != 1 {
		t.Errorf("probe timeouts = %d, want 1 (deadline kills the call on the first spike)", c.Timeouts)
	}
	if c.LatencySpikes != 1 {
		t.Errorf("latency spikes = %d, want 1", c.LatencySpikes)
	}
	// The spike distribution must be visible in the reservoir.
	if r := in.Spikes(); r.Count() != 1 || r.Max() != 50*time.Millisecond {
		t.Errorf("spike reservoir holds %d spikes, max %v; want 1 of 50ms", r.Count(), r.Max())
	}
}

func TestInjectorClaimFaults(t *testing.T) {
	in := testInjector(t, &Plan{ClaimErrorRate: 1})
	for i := 0; i < breakerThreshold; i++ {
		if in.ClaimPartner(1, 2, core.Time(i)) {
			t.Fatal("claim succeeded with 100% claim-error rate")
		}
	}
	if in.parties[2].br.state != open {
		t.Fatal("breaker not open after a threshold run of failed claims")
	}
	// Probes against the same partner are now short-circuited too: the
	// breaker guards the platform, not the call type.
	if in.ProbePartner(1, 2, breakerThreshold) {
		t.Fatal("probe succeeded against a breaker opened by claim faults")
	}
	c := in.Stats()
	if want := int64(breakerThreshold * maxAttempts); c.ClaimErrors != want {
		t.Errorf("claim errors = %d, want %d", c.ClaimErrors, want)
	}
	if c.ShortCircuits != 1 {
		t.Errorf("short circuits = %d, want 1", c.ShortCircuits)
	}
}

func TestInjectorDeterministicPerSeed(t *testing.T) {
	plan := &Plan{DropRate: 0.5}
	outcomes := func(runSeed int64) []bool {
		in := New(plan, runSeed, []core.PlatformID{1, 2}, nil)
		var out []bool
		for i := 0; i < 64; i++ {
			out = append(out, in.ProbePartner(1, 2, core.Time(i)))
		}
		return out
	}
	a, b := outcomes(7), outcomes(7)
	if !slices.Equal(a, b) {
		t.Fatal("identical injectors diverged")
	}
	// A different run seed must change the sequence (overwhelmingly).
	if slices.Equal(a, outcomes(8)) {
		t.Error("run seeds 7 and 8 produced identical 64-probe sequences")
	}
}
