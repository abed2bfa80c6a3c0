package workload

import (
	"bytes"
	"reflect"
	"strings"
	"testing"

	"crossmatch/internal/core"
	"crossmatch/internal/geo"
)

func TestDiagnoseHandBuilt(t *testing.T) {
	// Platform 1: one worker near its own request (not stranded), one
	// worker near only platform 2's request (stranded but rescuable),
	// one worker near nothing (stranded, not rescuable).
	workers := []*core.Worker{
		{ID: 1, Arrival: 0, Loc: geo.Point{X: 0}, Radius: 1, Platform: 1},
		{ID: 2, Arrival: 0, Loc: geo.Point{X: 10}, Radius: 1, Platform: 1},
		{ID: 3, Arrival: 0, Loc: geo.Point{X: 50}, Radius: 1, Platform: 1},
		{ID: 4, Arrival: 0, Loc: geo.Point{X: 10}, Radius: 1, Platform: 2},
	}
	requests := []*core.Request{
		{ID: 1, Arrival: 5, Loc: geo.Point{X: 0.5}, Value: 3, Platform: 1},
		{ID: 2, Arrival: 5, Loc: geo.Point{X: 10.5}, Value: 3, Platform: 2},
	}
	s, err := core.NewStream(append(core.WorkerEvents(workers), core.RequestEvents(requests)...))
	if err != nil {
		t.Fatal(err)
	}
	ds := Diagnose(s)
	if len(ds) != 2 {
		t.Fatalf("diagnoses = %d", len(ds))
	}
	p1 := ds[0]
	if p1.Platform != 1 || p1.Workers != 3 || p1.Requests != 1 {
		t.Fatalf("p1 = %+v", p1)
	}
	if p1.StrandedOwn != 2 {
		t.Errorf("p1 stranded = %d, want 2", p1.StrandedOwn)
	}
	if p1.Rescuable != 1 {
		t.Errorf("p1 rescuable = %d, want 1", p1.Rescuable)
	}
	if f := p1.StrandedFraction(); f < 0.66 || f > 0.67 {
		t.Errorf("p1 stranded fraction = %v", f)
	}
	p2 := ds[1]
	// Platform 2's worker covers its own request -> not stranded.
	if p2.StrandedOwn != 0 {
		t.Errorf("p2 stranded = %d, want 0", p2.StrandedOwn)
	}
}

func TestDiagnoseTimeConstraint(t *testing.T) {
	// A worker arriving after the only nearby request is stranded: it
	// can never serve anything.
	workers := []*core.Worker{{ID: 1, Arrival: 10, Loc: geo.Point{}, Radius: 1, Platform: 1}}
	requests := []*core.Request{{ID: 1, Arrival: 5, Loc: geo.Point{X: 0.2}, Value: 1, Platform: 1}}
	s, err := core.NewStream(append(core.WorkerEvents(workers), core.RequestEvents(requests)...))
	if err != nil {
		t.Fatal(err)
	}
	ds := Diagnose(s)
	if ds[0].StrandedOwn != 1 {
		t.Errorf("late worker not counted stranded: %+v", ds[0])
	}
}

// TestDiagnoseCityPairStrandsCapacity validates the DESIGN.md §8
// calibration claim: the default city pair keeps a large share of each
// fleet stranded for its own platform yet rescuable by the other.
func TestDiagnoseCityPairStrandsCapacity(t *testing.T) {
	cfg, err := Synthetic(2500, 500, 1.0, "real")
	if err != nil {
		t.Fatal(err)
	}
	s, err := Generate(cfg, 42)
	if err != nil {
		t.Fatal(err)
	}
	for _, d := range Diagnose(s) {
		if f := d.StrandedFraction(); f < 0.15 {
			t.Errorf("platform %d stranded fraction %.2f too low for the Fig 2 scenario", d.Platform, f)
		}
		if d.StrandedOwn > 0 && float64(d.Rescuable) < 0.3*float64(d.StrandedOwn) {
			t.Errorf("platform %d: only %d of %d stranded workers rescuable",
				d.Platform, d.Rescuable, d.StrandedOwn)
		}
	}
}

func TestWriteDiagnosis(t *testing.T) {
	var buf bytes.Buffer
	err := WriteDiagnosis(&buf, []Diagnosis{
		{Platform: 1, Workers: 10, Requests: 20, StrandedOwn: 4, Rescuable: 3},
	})
	if err != nil {
		t.Fatal(err)
	}
	out := buf.String()
	for _, want := range []string{"platform 1", "stranded 4", "40.0%", "rescuable by others 3"} {
		if !strings.Contains(out, want) {
			t.Errorf("output missing %q: %s", want, out)
		}
	}
}

// TestDiagnoseGolden pins Diagnose on one generated stream, captured at
// e8b25f8 where it indexed requests through index.Grid, so a change of
// index is shown to keep every count.
func TestDiagnoseGolden(t *testing.T) {
	cfg, err := Synthetic(2500, 500, 1.0, "real")
	if err != nil {
		t.Fatal(err)
	}
	s, err := Generate(cfg, 42)
	if err != nil {
		t.Fatal(err)
	}
	want := []Diagnosis{
		{Platform: 1, Workers: 1000, Requests: 1250, StrandedOwn: 628, Rescuable: 511},
		{Platform: 2, Workers: 1000, Requests: 1250, StrandedOwn: 349, Rescuable: 214},
	}
	if got := Diagnose(s); !reflect.DeepEqual(got, want) {
		t.Fatalf("\n got %+v\nwant %+v", got, want)
	}
}
