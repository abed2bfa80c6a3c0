package crossmatch

import (
	"context"
	"errors"
	"testing"
)

// TestPricingStatsExported checks the run-level pricing counters surface
// through the public Metrics collector.
func TestPricingStatsExported(t *testing.T) {
	stream, err := GenerateSynthetic(400, 100, 1.0, "real", benchSeed)
	if err != nil {
		t.Fatal(err)
	}
	m := NewMetrics()
	if _, err := SimulateContext(context.Background(), stream, DemCOM,
		WithSeed(benchSeed), WithMetrics(m)); err != nil {
		t.Fatal(err)
	}
	var p PricingStats = m.Snapshot().Pricing
	if p.MonteCarloQuotes == 0 {
		t.Error("DemCOM run recorded no Monte-Carlo quotes")
	}
	if p.ProbEvals == 0 {
		t.Error("no acceptance-probability evaluations recorded")
	}
	if p.TableHitRate <= 0 || p.TableHitRate > 1 {
		t.Errorf("TableHitRate = %v, want in (0,1]", p.TableHitRate)
	}
	if p.ScratchReuses == 0 {
		t.Error("no scratch reuses recorded — per-call allocation is back")
	}
	if p.ScratchAllocs != 0 {
		t.Errorf("ScratchAllocs = %d, want 0 (matchers own their scratch)", p.ScratchAllocs)
	}
}

// TestBadOptionsRejected pins the typed-error contract of the option
// validation: out-of-range options fail fast with ErrBadOption instead
// of being silently clamped.
func TestBadOptionsRejected(t *testing.T) {
	stream, err := GenerateSynthetic(10, 5, 1.0, "real", 1)
	if err != nil {
		t.Fatal(err)
	}
	cases := []struct {
		name string
		opt  Option
	}{
		{"negative service ticks", WithServiceTicks(-1)},
	}
	for _, c := range cases {
		if _, err := SimulateContext(context.Background(), stream, TOTA, WithSeed(1), c.opt); !errors.Is(err, ErrBadOption) {
			t.Errorf("%s: error = %v, want ErrBadOption", c.name, err)
		}
		if _, err := NewEngine([]PlatformID{1}, TOTA, 10, c.opt); !errors.Is(err, ErrBadOption) {
			t.Errorf("%s via NewEngine: error = %v, want ErrBadOption", c.name, err)
		}
	}
	// A negative trace sample is documented semantics (tracing
	// disabled), not an error.
	if _, err := SimulateContext(context.Background(), stream, TOTA,
		WithSeed(1), WithTracer(NewTracer(TraceOptions{Sample: -1}))); err != nil {
		t.Errorf("negative trace sample rejected: %v", err)
	}
}
