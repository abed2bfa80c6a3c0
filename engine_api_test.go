package crossmatch

import (
	"context"
	"errors"
	"math"
	"testing"
	"time"

	"crossmatch/internal/geo"
	"crossmatch/internal/online"
)

// TestNewEngineMatchesSimulate drives the public incremental engine
// with a stream's events and expects the SimulateContext result.
func TestNewEngineMatchesSimulate(t *testing.T) {
	stream, err := GenerateSynthetic(200, 150, 1.0, "real", 42)
	if err != nil {
		t.Fatal(err)
	}
	want, err := SimulateContext(context.Background(), stream, DemCOM, WithSeed(42))
	if err != nil {
		t.Fatal(err)
	}

	eng, err := NewEngine(stream.Platforms(), DemCOM, stream.MaxValue(), WithSeed(42))
	if err != nil {
		t.Fatal(err)
	}
	var decided, served int
	for _, ev := range stream.Events() {
		d, err := eng.Process(ev)
		if err != nil {
			t.Fatalf("Process: %v", err)
		}
		if ev.Kind == RequestArrival {
			decided++
			if d.Served {
				served++
			}
		}
	}
	got, err := eng.Finish()
	if err != nil {
		t.Fatal(err)
	}
	if got.TotalRevenue() != want.TotalRevenue() || got.TotalServed() != want.TotalServed() {
		t.Fatalf("engine revenue/served %v/%d, simulate %v/%d",
			got.TotalRevenue(), got.TotalServed(), want.TotalRevenue(), want.TotalServed())
	}
	if served != want.TotalServed() || decided != len(stream.Requests()) {
		t.Fatalf("per-decision accounting: served %d of %d, want %d of %d",
			served, decided, want.TotalServed(), len(stream.Requests()))
	}

	// Closed-engine contract.
	if _, err := eng.Finish(); !errors.Is(err, ErrEngineClosed) {
		t.Fatalf("second Finish: %v", err)
	}
	if _, err := eng.Process(Event{}); !errors.Is(err, ErrEngineClosed) {
		t.Fatalf("Process after Finish: %v", err)
	}
}

// TestNewEngineMatchesSimulateRecycled is the incremental caller's
// path — NewEngine, Process per event, Finish — against SimulateContext,
// assignment by assignment. With WithServiceTicks the recycled workers'
// IDs are part of the comparison: seeded through SetRecycleBase with the
// stream's largest worker ID, both entry points mint the same IDs.
func TestNewEngineMatchesSimulateRecycled(t *testing.T) {
	stream, err := GenerateSynthetic(150, 100, 1.0, "real", 7)
	if err != nil {
		t.Fatal(err)
	}
	for _, ticks := range []Time{0, 3} {
		opts := []Option{WithSeed(7), WithServiceTicks(ticks)}
		want, err := SimulateContext(context.Background(), stream, RamCOM, opts...)
		if err != nil {
			t.Fatal(err)
		}
		eng, err := NewEngine(stream.Platforms(), RamCOM, stream.MaxValue(), opts...)
		if err != nil {
			t.Fatal(err)
		}
		if err := eng.SetRecycleBase(stream.MaxWorkerID()); err != nil {
			t.Fatal(err)
		}
		for _, ev := range stream.Events() {
			if _, err := eng.Process(ev); err != nil {
				t.Fatalf("Process: %v", err)
			}
		}
		got, err := eng.Finish()
		if err != nil {
			t.Fatal(err)
		}
		if got.TotalRevenue() != want.TotalRevenue() || got.Recycled != want.Recycled {
			t.Fatalf("ticks %d: engine revenue/recycled %v/%d, simulate %v/%d",
				ticks, got.TotalRevenue(), got.Recycled, want.TotalRevenue(), want.Recycled)
		}
		for pid, wp := range want.Platforms {
			wa, ga := wp.Matching.Assignments(), got.Platforms[pid].Matching.Assignments()
			if len(wa) != len(ga) {
				t.Fatalf("ticks %d platform %d: %d assignments, want %d", ticks, pid, len(ga), len(wa))
			}
			for i := range wa {
				if wa[i].Request.ID != ga[i].Request.ID || wa[i].Worker.ID != ga[i].Worker.ID {
					t.Fatalf("ticks %d platform %d assignment %d: r%d<-w%d, want r%d<-w%d", ticks, pid, i,
						ga[i].Request.ID, ga[i].Worker.ID, wa[i].Request.ID, wa[i].Worker.ID)
				}
			}
		}
	}
}

func TestNewEngineUnknownAlgorithm(t *testing.T) {
	if _, err := NewEngine([]PlatformID{1}, "Magic", 0); !errors.Is(err, ErrUnknownAlgorithm) {
		t.Fatalf("want ErrUnknownAlgorithm, got %v", err)
	}
}

// TestNewEngineRefusesNaNFaultRates: a NaN rate compares false with
// every draw, so a plan holding one ran with no faults and no warning.
func TestNewEngineRefusesNaNFaultRates(t *testing.T) {
	nan := math.NaN()
	for name, plan := range map[string]*FaultPlan{
		"drop":     {DropRate: nan},
		"claimerr": {ClaimErrorRate: nan},
		"latency":  {LatencyRate: nan, LatencyMin: time.Millisecond, LatencyMax: 2 * time.Millisecond},
	} {
		if _, err := NewEngine([]PlatformID{1, 2}, DemCOM, 0, WithFaultPlan(plan)); err == nil {
			t.Errorf("%s: a NaN rate was accepted", name)
		}
	}
}

func TestEngineTimeRegressionPublic(t *testing.T) {
	eng, err := NewEngine([]PlatformID{1}, TOTA, 0)
	if err != nil {
		t.Fatal(err)
	}
	w1 := &Worker{ID: 1, Arrival: 5, Loc: geo.Point{X: 0.5, Y: 0.5}, Radius: 1, Platform: 1}
	if _, err := eng.Process(Event{Kind: WorkerArrival, Time: 5, Worker: w1}); err != nil {
		t.Fatal(err)
	}
	w2 := &Worker{ID: 2, Arrival: 3, Loc: geo.Point{X: 0.5, Y: 0.5}, Radius: 1, Platform: 1}
	if _, err := eng.Process(Event{Kind: WorkerArrival, Time: 3, Worker: w2}); !errors.Is(err, ErrTimeRegression) {
		t.Fatalf("want ErrTimeRegression, got %v", err)
	}
	if _, err := eng.Finish(); err != nil {
		t.Fatal(err)
	}
}

// TestBatchCOMPublicAPI: the windowed algorithm through the public
// surface — BatchCOM with WithBatchWindow/WithBatchDeadline runs
// deterministically, and the incremental engine reproduces
// SimulateContext bit for bit, deferred flush decisions included.
func TestBatchCOMPublicAPI(t *testing.T) {
	stream, err := GenerateSynthetic(200, 150, 1.0, "real", 42)
	if err != nil {
		t.Fatal(err)
	}
	opts := []Option{WithSeed(42), WithBatchWindow(5), WithBatchDeadline(3)}
	want, err := SimulateContext(context.Background(), stream, BatchCOM, opts...)
	if err != nil {
		t.Fatal(err)
	}
	again, err := SimulateContext(context.Background(), stream, BatchCOM, opts...)
	if err != nil {
		t.Fatal(err)
	}
	if want.TotalRevenue() != again.TotalRevenue() || want.TotalServed() != again.TotalServed() {
		t.Fatalf("BatchCOM not deterministic: %v/%d vs %v/%d",
			want.TotalRevenue(), want.TotalServed(), again.TotalRevenue(), again.TotalServed())
	}

	eng, err := NewEngine(stream.Platforms(), BatchCOM, stream.MaxValue(), opts...)
	if err != nil {
		t.Fatal(err)
	}
	var deferred, flushed int
	eng.SetDecisionHandler(func(d EngineDecision) {
		flushed++
		if d.At < d.Request.Arrival {
			t.Errorf("flush decision before arrival: %+v", d)
		}
	})
	for _, ev := range stream.Events() {
		d, err := eng.Process(ev)
		if err != nil {
			t.Fatalf("Process: %v", err)
		}
		if ev.Kind == RequestArrival && d.Reason == online.ReasonBuffered {
			deferred++
		}
	}
	got, err := eng.Finish()
	if err != nil {
		t.Fatal(err)
	}
	if got.TotalRevenue() != want.TotalRevenue() || got.TotalServed() != want.TotalServed() {
		t.Fatalf("engine revenue/served %v/%d, simulate %v/%d",
			got.TotalRevenue(), got.TotalServed(), want.TotalRevenue(), want.TotalServed())
	}
	if deferred == 0 || flushed != deferred {
		t.Fatalf("window bookkeeping: %d deferred, %d flushed (want equal, non-zero)", deferred, flushed)
	}
}
