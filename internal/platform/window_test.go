package platform

import (
	"math/rand"
	"testing"

	"crossmatch/internal/core"
	"crossmatch/internal/geo"
	"crossmatch/internal/online"
	"crossmatch/internal/pricing"
)

// TestBatchCOMWindowLifecycle drives the matcher directly through one
// window: buffering defers, the window flushes at its scheduled due
// time (not at the clock's position), and a request arriving at the due
// time opens a fresh window.
func TestBatchCOMWindowLifecycle(t *testing.T) {
	rng := rand.New(rand.NewSource(1))
	m := online.NewBatchCOM(online.NoCoop{}, pricing.DefaultMonteCarlo, rng, 5, 0)
	m.Pool().Add(&core.Worker{ID: 1, Arrival: 0, Radius: 10, Platform: 1})

	d := m.RequestArrives(&core.Request{ID: 1, Arrival: 0, Value: 2, Platform: 1})
	if !d.Deferred || d.Reason != online.ReasonBuffered {
		t.Fatalf("arrival not buffered: %+v", d)
	}
	due, open := m.NextFlush()
	if !open || due != 5 {
		t.Fatalf("NextFlush: want (5, true), got (%d, %v)", due, open)
	}
	if wds := m.Advance(4); wds != nil {
		t.Fatalf("Advance before due flushed %d decisions", len(wds))
	}
	wds := m.Advance(9)
	if len(wds) != 1 {
		t.Fatalf("flush: want 1 decision, got %d", len(wds))
	}
	if wd := wds[0]; wd.At != 5 || !wd.Served || wd.Reason != online.ReasonInner || wd.Request.ID != 1 {
		t.Fatalf("flush decision: %+v", wd)
	}
	if _, open := m.NextFlush(); open {
		t.Fatal("window still open after flush")
	}

	// A request at the old due time opens a new window from its arrival.
	m.RequestArrives(&core.Request{ID: 2, Arrival: 5, Value: 2, Platform: 1})
	due, open = m.NextFlush()
	if !open || due != 10 {
		t.Fatalf("second window NextFlush: want (10, true), got (%d, %v)", due, open)
	}
}

// TestBatchCOMDeadlinePullsFlushForward: a per-request deadline tighter
// than the window bounds the wait for the whole batch.
func TestBatchCOMDeadlinePullsFlushForward(t *testing.T) {
	rng := rand.New(rand.NewSource(1))
	m := online.NewBatchCOM(online.NoCoop{}, pricing.DefaultMonteCarlo, rng, 100, 3)
	m.Pool().Add(&core.Worker{ID: 1, Arrival: 0, Radius: 10, Platform: 1})
	m.RequestArrives(&core.Request{ID: 1, Arrival: 2, Value: 2, Platform: 1})
	if due, _ := m.NextFlush(); due != 5 {
		t.Fatalf("deadline-clamped due: want 5, got %d", due)
	}
	// A later arrival's (looser) deadline must not push the flush back.
	m.RequestArrives(&core.Request{ID: 2, Arrival: 4, Value: 2, Platform: 1})
	if due, _ := m.NextFlush(); due != 5 {
		t.Fatalf("due after second arrival: want 5, got %d", due)
	}
	wds := m.Advance(5)
	if len(wds) != 2 {
		t.Fatalf("flush: want 2 decisions, got %d", len(wds))
	}
	if wds[0].At != 5 || wds[1].At != 5 {
		t.Fatalf("decisions not stamped at the clamped due time: %+v", wds)
	}
}

// TestBatchCOMBatchBeatsGreedyOnCrossedPairs: the canonical windowed-
// dispatch win. Two requests arrive before two workers' coverage forces
// a choice; greedy per-arrival matching (DemCOM) spends the flexible
// worker on the first request and strands the second, while the window
// solve assigns both.
func TestBatchCOMBatchBeatsGreedyOnCrossedPairs(t *testing.T) {
	// Worker 1 covers both requests; worker 2 covers only request 1.
	// Greedy serves request 1 with its nearest worker (worker 1, exactly
	// at request 1's location) and then cannot serve request 2; the
	// batch matching crosses them.
	events := []core.Event{
		{Time: 0, Kind: core.WorkerArrival, Worker: &core.Worker{ID: 1, Arrival: 0, Radius: 10, Platform: 1, Loc: geo.Point{X: 1, Y: 0}}},
		{Time: 0, Kind: core.WorkerArrival, Worker: &core.Worker{ID: 2, Arrival: 0, Radius: 2, Platform: 1, Loc: geo.Point{X: 0, Y: 0}}},
		{Time: 1, Kind: core.RequestArrival, Request: &core.Request{ID: 1, Arrival: 1, Value: 3, Platform: 1, Loc: geo.Point{X: 1, Y: 0}}},
		{Time: 2, Kind: core.RequestArrival, Request: &core.Request{ID: 2, Arrival: 2, Value: 3, Platform: 1, Loc: geo.Point{X: 8, Y: 0}}},
	}
	run := func(alg string) int {
		factory, err := FactoryConfigured(alg, AlgConfig{MaxValue: 3, Window: 4})
		if err != nil {
			t.Fatalf("FactoryConfigured(%s): %v", alg, err)
		}
		eng, err := NewEngine([]core.PlatformID{1}, factory, Config{Seed: 9})
		if err != nil {
			t.Fatalf("NewEngine: %v", err)
		}
		for _, ev := range events {
			if _, err := eng.Process(ev); err != nil {
				t.Fatalf("Process: %v", err)
			}
		}
		res, err := eng.Finish()
		if err != nil {
			t.Fatalf("Finish: %v", err)
		}
		return res.TotalServed()
	}
	if got := run(AlgDemCOM); got != 1 {
		t.Fatalf("DemCOM on crossed pair: want 1 served, got %d", got)
	}
	if got := run(AlgBatchCOM); got != 2 {
		t.Fatalf("BatchCOM on crossed pair: want 2 served, got %d", got)
	}
}

// TestEngineWindowDecisionHandler: deferred arrivals answer through the
// decision handler at flush time, and AdvanceTime alone (no event) is
// enough to drive the flush — the serving sequencer's tick path.
func TestEngineWindowDecisionHandler(t *testing.T) {
	factory, err := FactoryConfigured(AlgBatchCOM, AlgConfig{Window: 5})
	if err != nil {
		t.Fatalf("FactoryConfigured: %v", err)
	}
	eng, err := NewEngine([]core.PlatformID{1}, factory, Config{Seed: 3})
	if err != nil {
		t.Fatalf("NewEngine: %v", err)
	}
	var flushed []RequestDecision
	eng.SetDecisionHandler(func(rd RequestDecision) { flushed = append(flushed, rd) })
	if !eng.Windowed() {
		t.Fatal("engine does not report a windowed matcher")
	}

	w := &core.Worker{ID: 1, Arrival: 0, Radius: 10, Platform: 1}
	if _, err := eng.Process(core.Event{Time: 0, Kind: core.WorkerArrival, Worker: w}); err != nil {
		t.Fatalf("Process worker: %v", err)
	}
	r := &core.Request{ID: 1, Arrival: 1, Value: 2, Platform: 1}
	d, err := eng.Process(core.Event{Time: 1, Kind: core.RequestArrival, Request: r})
	if err != nil {
		t.Fatalf("Process request: %v", err)
	}
	if !d.Deferred || d.Served {
		t.Fatalf("request not deferred: %+v", d)
	}
	if due, ok := eng.NextFlush(); !ok || due != 6 {
		t.Fatalf("NextFlush: want (6, true), got (%d, %v)", due, ok)
	}
	if err := eng.AdvanceTime(5); err != nil {
		t.Fatalf("AdvanceTime(5): %v", err)
	}
	if len(flushed) != 0 {
		t.Fatalf("flushed before due: %+v", flushed)
	}
	if err := eng.AdvanceTime(6); err != nil {
		t.Fatalf("AdvanceTime(6): %v", err)
	}
	if len(flushed) != 1 {
		t.Fatalf("want 1 flushed decision, got %d", len(flushed))
	}
	rd := flushed[0]
	if rd.Deferred || !rd.Served || rd.Request.ID != 1 || rd.Worker == nil || rd.Worker.ID != 1 {
		t.Fatalf("flushed decision: %+v", rd)
	}
	if _, open := eng.NextFlush(); open {
		t.Fatal("window still open after AdvanceTime flush")
	}
	res, err := eng.Finish()
	if err != nil {
		t.Fatalf("Finish: %v", err)
	}
	if res.TotalServed() != 1 {
		t.Fatalf("served: want 1, got %d", res.TotalServed())
	}
}

// permuteWithinTicks shuffles delivery order within every equal-time
// event group, preserving the non-decreasing time order the engine
// requires — the delivery freedoms a concurrent ingest path actually
// has.
func permuteWithinTicks(events []core.Event, rng *rand.Rand) []core.Event {
	evs := append([]core.Event(nil), events...)
	for i := 0; i < len(evs); {
		j := i
		for j < len(evs) && evs[j].Time == evs[i].Time {
			j++
		}
		rng.Shuffle(j-i, func(a, b int) { evs[i+a], evs[i+b] = evs[i+b], evs[i+a] })
		i = j
	}
	return evs
}

// FuzzWindowFlushOrdering asserts BatchCOM's headline invariant: a
// window flush is a pure function of the window's contents, so any
// delivery order of same-time arrivals produces a bit-identical result
// — same revenue, same stats, same assignments in the same order.
func FuzzWindowFlushOrdering(f *testing.F) {
	f.Add(int64(7), int64(1))
	f.Add(int64(42), int64(99))
	f.Add(int64(-3), int64(0))
	f.Fuzz(func(t *testing.T, streamSeed, permSeed int64) {
		stream := feedTestStream(t, 90, 50, streamSeed)
		cfg := Config{Seed: 99, ServiceTicks: 2}
		newFactory := func() MatcherFactory {
			factory, err := FactoryConfigured(AlgBatchCOM, AlgConfig{MaxValue: stream.MaxValue(), Window: 6})
			if err != nil {
				t.Fatalf("FactoryConfigured: %v", err)
			}
			return factory
		}
		want, err := Run(stream, newFactory(), cfg)
		if err != nil {
			t.Fatalf("Run: %v", err)
		}
		evs := permuteWithinTicks(stream.Events(), rand.New(rand.NewSource(permSeed)))
		eng, err := NewEngine(stream.Platforms(), newFactory(), cfg)
		if err != nil {
			t.Fatalf("NewEngine: %v", err)
		}
		if err := eng.SetRecycleBase(stream.MaxWorkerID()); err != nil {
			t.Fatalf("SetRecycleBase: %v", err)
		}
		for _, ev := range evs {
			if _, err := eng.Process(ev); err != nil {
				t.Fatalf("Process: %v", err)
			}
		}
		got, err := eng.Finish()
		if err != nil {
			t.Fatalf("Finish: %v", err)
		}
		assertSameResult(t, want, got)
	})
}
