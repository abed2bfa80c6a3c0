package crossmatch

import (
	"context"
	"errors"
	"math"
	"runtime"
	"strings"
	"testing"
	"time"

	"crossmatch/internal/geo"
)

func TestExampleStreamThroughPublicAPI(t *testing.T) {
	stream, err := ExampleStream()
	if err != nil {
		t.Fatal(err)
	}
	tota, err := SimulateContext(context.Background(), stream, TOTA, WithSeed(1))
	if err != nil {
		t.Fatal(err)
	}
	if math.Abs(tota.TotalRevenue()-16) > 1e-9 {
		t.Errorf("TOTA revenue = %v, want 16", tota.TotalRevenue())
	}
	off, err := Offline(stream)
	if err != nil {
		t.Fatal(err)
	}
	if math.Abs(off.TotalWeight-24.5) > 1e-9 {
		t.Errorf("OFF revenue = %v, want 24.5", off.TotalWeight)
	}
}

func TestSimulateUnknownAlgorithm(t *testing.T) {
	stream, err := ExampleStream()
	if err != nil {
		t.Fatal(err)
	}
	if _, err := SimulateContext(context.Background(), stream, "Magic"); err == nil {
		t.Error("unknown algorithm accepted")
	} else if !strings.Contains(err.Error(), "Magic") {
		t.Errorf("error does not name the algorithm: %v", err)
	}
}

func TestNewStreamPublic(t *testing.T) {
	w := &Worker{ID: 1, Arrival: 1, Loc: geo.Point{}, Radius: 1, Platform: 1}
	r := &Request{ID: 1, Arrival: 2, Loc: geo.Point{X: 0.5}, Value: 3, Platform: 1}
	s, err := NewStream([]*Worker{w}, []*Request{r})
	if err != nil {
		t.Fatal(err)
	}
	res, err := SimulateContext(context.Background(), s, TOTA, WithSeed(1))
	if err != nil {
		t.Fatal(err)
	}
	if res.TotalServed() != 1 || res.TotalRevenue() != 3 {
		t.Errorf("served=%d revenue=%v", res.TotalServed(), res.TotalRevenue())
	}
	// Invalid input is rejected at construction.
	bad := &Request{ID: 2, Arrival: 2, Value: -1, Platform: 1}
	if _, err := NewStream(nil, []*Request{bad}); err == nil {
		t.Error("invalid request accepted")
	}
}

func TestGenerateSyntheticPublic(t *testing.T) {
	s, err := GenerateSynthetic(200, 40, 1.0, "real", 7)
	if err != nil {
		t.Fatal(err)
	}
	if len(s.Requests()) != 200 {
		t.Errorf("requests = %d", len(s.Requests()))
	}
	if _, err := GenerateSynthetic(10, 10, -1, "real", 7); err == nil {
		t.Error("negative radius accepted")
	}
	if _, err := GenerateSynthetic(10, 10, 1, "cauchy", 7); err == nil {
		t.Error("unknown distribution accepted")
	}
}

func TestGenerateCityPublic(t *testing.T) {
	s, err := GenerateCity("RDX11+RYX11", 0.002, 3)
	if err != nil {
		t.Fatal(err)
	}
	if len(s.Platforms()) != 2 {
		t.Errorf("platforms = %v", s.Platforms())
	}
	if _, err := GenerateCity("RDZ99", 0.01, 3); err == nil {
		t.Error("unknown preset accepted")
	}
	if _, err := GenerateCity("RDX11+RYX11", 0, 3); err == nil {
		t.Error("zero scale accepted")
	}
}

func TestSimulateCOMBeatsTOTAOnCity(t *testing.T) {
	s, err := GenerateCity("RDC10+RYC10", 0.005, 11)
	if err != nil {
		t.Fatal(err)
	}
	tota, err := SimulateContext(context.Background(), s, TOTA, WithSeed(1))
	if err != nil {
		t.Fatal(err)
	}
	dem, err := SimulateContext(context.Background(), s, DemCOM, WithSeed(1))
	if err != nil {
		t.Fatal(err)
	}
	if dem.TotalRevenue() < tota.TotalRevenue() {
		t.Errorf("DemCOM %v below TOTA %v", dem.TotalRevenue(), tota.TotalRevenue())
	}
	// Coop disabled degrades DemCOM to TOTA exactly.
	noCoop, err := SimulateContext(context.Background(), s, DemCOM, WithSeed(1), WithCoopDisabled())
	if err != nil {
		t.Fatal(err)
	}
	if noCoop.TotalRevenue() != tota.TotalRevenue() {
		t.Errorf("DemCOM(no coop) %v != TOTA %v", noCoop.TotalRevenue(), tota.TotalRevenue())
	}
}

func TestSimulateContextCancellation(t *testing.T) {
	s, err := GenerateSynthetic(500, 100, 1.0, "real", 3)
	if err != nil {
		t.Fatal(err)
	}
	before := runtime.NumGoroutine()
	ctx, cancel := context.WithCancel(context.Background())
	cancel() // cancel before the run: it must stop at the first check
	res, err := SimulateContext(ctx, s, DemCOM, WithSeed(1))
	if err == nil {
		t.Fatal("cancelled run returned no error")
	}
	if !errors.Is(err, context.Canceled) {
		t.Errorf("error does not wrap context.Canceled: %v", err)
	}
	if res == nil {
		t.Error("cancelled run returned no partial result")
	} else if res.TotalServed() < 0 || res.TotalServed() >= len(s.Requests()) {
		t.Errorf("partial result served %d of %d requests", res.TotalServed(), len(s.Requests()))
	}
	// Soft leak check: the engine is synchronous, so the goroutine count
	// settles back to the baseline once the call returns.
	deadline := time.Now().Add(2 * time.Second)
	for time.Now().Before(deadline) && runtime.NumGoroutine() > before {
		time.Sleep(10 * time.Millisecond)
	}
	if g := runtime.NumGoroutine(); g > before {
		t.Errorf("goroutines leaked: %d before, %d after", before, g)
	}
}

func TestSimulateContextErrorsIs(t *testing.T) {
	s, err := ExampleStream()
	if err != nil {
		t.Fatal(err)
	}
	_, err = SimulateContext(context.Background(), s, "Magic")
	if !errors.Is(err, ErrUnknownAlgorithm) {
		t.Errorf("error does not wrap ErrUnknownAlgorithm: %v", err)
	}
	if err == nil || !strings.Contains(err.Error(), "Magic") {
		t.Errorf("error does not name the algorithm: %v", err)
	}
	if _, err := GenerateCity("RDZ99", 0.01, 3); !errors.Is(err, ErrUnknownPreset) {
		t.Errorf("GenerateCity error does not wrap ErrUnknownPreset: %v", err)
	}
	if _, err := ReproduceTable("RDZ99", 0.01, 3); !errors.Is(err, ErrUnknownPreset) {
		t.Errorf("ReproduceTable error does not wrap ErrUnknownPreset: %v", err)
	}
}

func TestSimulateContextWithMetrics(t *testing.T) {
	s, err := GenerateSynthetic(300, 60, 1.0, "real", 9)
	if err != nil {
		t.Fatal(err)
	}
	m := NewMetrics()
	if _, err := SimulateContext(context.Background(), s, DemCOM, WithSeed(5), WithMetrics(m)); err != nil {
		t.Fatal(err)
	}
	rep := m.Snapshot()
	if rep.Counters.Runs != 1 {
		t.Errorf("runs = %d, want 1", rep.Counters.Runs)
	}
	if rep.Counters.InnerMatches+rep.Counters.OuterMatches == 0 {
		t.Error("no matches recorded")
	}
	if len(rep.Latencies) == 0 {
		t.Error("no latency summaries recorded")
	}
}

func TestPresetsAccessor(t *testing.T) {
	ps := Presets()
	if len(ps) != 3 {
		t.Fatalf("presets = %d, want 3", len(ps))
	}
	for _, p := range ps {
		if _, err := GenerateCity(p.Name, 0.002, 1); err != nil {
			t.Errorf("preset %q does not generate: %v", p.Name, err)
		}
	}
}

func TestReproduceTablePublic(t *testing.T) {
	res, err := ReproduceTable("RDX11+RYX11", 0.002, 5)
	if err != nil {
		t.Fatal(err)
	}
	if len(res.Rows) != 4 {
		t.Fatalf("rows = %d", len(res.Rows))
	}
	if _, err := ReproduceTable("bogus", 0.01, 5); err == nil {
		t.Error("unknown preset accepted")
	}
}
