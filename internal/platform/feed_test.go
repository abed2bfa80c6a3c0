package platform

import (
	"errors"
	"math"
	"runtime"
	"testing"

	"crossmatch/internal/core"
	"crossmatch/internal/geo"
	"crossmatch/internal/workload"
)

func feedTestStream(t *testing.T, requests, workers int, seed int64) *core.Stream {
	t.Helper()
	cfg, err := workload.Synthetic(requests, workers, 1.0, "real")
	if err != nil {
		t.Fatalf("Synthetic: %v", err)
	}
	stream, err := workload.Generate(cfg, seed)
	if err != nil {
		t.Fatalf("Generate: %v", err)
	}
	return stream
}

// assertSameResult compares two results bit for bit: revenue, counters,
// and every assignment (request, worker, payment) in insertion order.
func assertSameResult(t *testing.T, want, got *Result) {
	t.Helper()
	if w, g := want.TotalRevenue(), got.TotalRevenue(); w != g {
		t.Fatalf("revenue: want %v, got %v", w, g)
	}
	if w, g := want.TotalServed(), got.TotalServed(); w != g {
		t.Fatalf("served: want %d, got %d", w, g)
	}
	if w, g := want.Recycled, got.Recycled; w != g {
		t.Fatalf("recycled: want %d, got %d", w, g)
	}
	if len(want.Platforms) != len(got.Platforms) {
		t.Fatalf("platforms: want %d, got %d", len(want.Platforms), len(got.Platforms))
	}
	for pid, wp := range want.Platforms {
		gp := got.Platforms[pid]
		if gp == nil {
			t.Fatalf("platform %d missing", pid)
		}
		if wp.Stats != gp.Stats {
			t.Fatalf("platform %d stats: want %+v, got %+v", pid, wp.Stats, gp.Stats)
		}
		wa, ga := wp.Matching.Assignments(), gp.Matching.Assignments()
		if len(wa) != len(ga) {
			t.Fatalf("platform %d assignments: want %d, got %d", pid, len(wa), len(ga))
		}
		for i := range wa {
			if wa[i].Request.ID != ga[i].Request.ID || wa[i].Worker.ID != ga[i].Worker.ID ||
				wa[i].Payment != ga[i].Payment || wa[i].Outer != ga[i].Outer {
				t.Fatalf("platform %d assignment %d: want r%d<-w%d pay %v outer %v, got r%d<-w%d pay %v outer %v",
					pid, i, wa[i].Request.ID, wa[i].Worker.ID, wa[i].Payment, wa[i].Outer,
					ga[i].Request.ID, ga[i].Worker.ID, ga[i].Payment, ga[i].Outer)
			}
		}
	}
}

// TestEngineDecisions checks the per-request decisions the engine hands
// back agree with the result it accumulates.
func TestEngineDecisions(t *testing.T) {
	stream := feedTestStream(t, 300, 100, 11)
	factory, err := FactoryFor(AlgDemCOM, stream.MaxValue())
	if err != nil {
		t.Fatalf("FactoryFor: %v", err)
	}
	eng, err := NewEngine(stream.Platforms(), factory, Config{Seed: 5})
	if err != nil {
		t.Fatalf("NewEngine: %v", err)
	}
	served, revenue := 0, 0.0
	for _, ev := range stream.Events() {
		d, err := eng.Process(ev)
		if err != nil {
			t.Fatalf("Process: %v", err)
		}
		if ev.Kind == core.WorkerArrival {
			if d.Request != nil || d.Served {
				t.Fatalf("worker arrival returned a request decision: %+v", d)
			}
			continue
		}
		if d.Request == nil || d.Request.ID != ev.Request.ID {
			t.Fatalf("decision names wrong request: %+v", d)
		}
		if d.Reason == "" {
			t.Fatalf("decision without a reason: %+v", d)
		}
		if d.Served {
			served++
			revenue += d.Revenue
			if d.Worker == nil {
				t.Fatalf("served decision without a worker: %+v", d)
			}
			if d.Outer != (d.Worker.Platform != d.Request.Platform) {
				t.Fatalf("outer flag disagrees with platforms: %+v", d)
			}
		} else if d.Worker != nil {
			t.Fatalf("unserved decision with a worker: %+v", d)
		}
	}
	res, err := eng.Finish()
	if err != nil {
		t.Fatalf("Finish: %v", err)
	}
	if res.TotalServed() != served {
		t.Fatalf("decisions served %d, result served %d", served, res.TotalServed())
	}
	if diff := res.TotalRevenue() - revenue; diff > 1e-9 || diff < -1e-9 {
		t.Fatalf("decisions revenue %v, result revenue %v", revenue, res.TotalRevenue())
	}
	if served == 0 {
		t.Fatal("workload produced no matches; decisions untested")
	}
}

// TestEngineClosedTypedError is the regression test for the typed
// double-run error: driving or finishing an engine after Finish must
// fail with ErrEngineClosed, not silently no-op.
func TestEngineClosedTypedError(t *testing.T) {
	stream := feedTestStream(t, 20, 10, 3)
	factory, err := FactoryFor(AlgTOTA, stream.MaxValue())
	if err != nil {
		t.Fatalf("FactoryFor: %v", err)
	}
	eng, err := NewEngine(stream.Platforms(), factory, Config{Seed: 1})
	if err != nil {
		t.Fatalf("NewEngine: %v", err)
	}
	if _, err := eng.Finish(); err != nil {
		t.Fatalf("first Finish: %v", err)
	}
	if _, err := eng.Finish(); !errors.Is(err, ErrEngineClosed) {
		t.Fatalf("second Finish: want ErrEngineClosed, got %v", err)
	}
	if _, err := eng.Process(stream.Events()[0]); !errors.Is(err, ErrEngineClosed) {
		t.Fatalf("Process after Finish: want ErrEngineClosed, got %v", err)
	}
}

// TestEngineTimeRegression rejects arrivals that run backwards.
func TestEngineTimeRegression(t *testing.T) {
	factory, err := FactoryFor(AlgTOTA, 10)
	if err != nil {
		t.Fatalf("FactoryFor: %v", err)
	}
	eng, err := NewEngine([]core.PlatformID{1}, factory, Config{})
	if err != nil {
		t.Fatalf("NewEngine: %v", err)
	}
	w := &core.Worker{ID: 1, Arrival: 5, Radius: 1, Platform: 1}
	if _, err := eng.Process(core.Event{Time: 5, Kind: core.WorkerArrival, Worker: w}); err != nil {
		t.Fatalf("Process: %v", err)
	}
	r := &core.Request{ID: 1, Arrival: 3, Value: 2, Platform: 1}
	_, err = eng.Process(core.Event{Time: 3, Kind: core.RequestArrival, Request: r})
	if !errors.Is(err, ErrTimeRegression) {
		t.Fatalf("want ErrTimeRegression, got %v", err)
	}
	if err := eng.SetRecycleBase(100); err == nil {
		t.Fatal("SetRecycleBase after the first event must fail")
	}
}

// TestEngineUnknownPlatform: an event naming a platform outside the
// engine's set must be a typed error, not a nil-matcher panic — the
// live serving path feeds whatever the network sends. The rejection
// must not advance the clock or mark the engine started.
func TestEngineUnknownPlatform(t *testing.T) {
	factory, err := FactoryFor(AlgTOTA, 10)
	if err != nil {
		t.Fatalf("FactoryFor: %v", err)
	}
	eng, err := NewEngine([]core.PlatformID{1, 2}, factory, Config{})
	if err != nil {
		t.Fatalf("NewEngine: %v", err)
	}
	r := &core.Request{ID: 1, Arrival: 9, Value: 2, Platform: 7}
	if _, err := eng.Process(core.Event{Time: 9, Kind: core.RequestArrival, Request: r}); !errors.Is(err, ErrUnknownPlatform) {
		t.Fatalf("request on platform 7: want ErrUnknownPlatform, got %v", err)
	}
	w := &core.Worker{ID: 1, Arrival: 9, Radius: 1, Platform: 0}
	if _, err := eng.Process(core.Event{Time: 9, Kind: core.WorkerArrival, Worker: w}); !errors.Is(err, ErrUnknownPlatform) {
		t.Fatalf("worker on platform 0: want ErrUnknownPlatform, got %v", err)
	}
	if _, err := eng.Process(core.Event{Time: 4, Kind: core.WorkerArrival, Worker: nil}); err == nil {
		t.Fatal("nil worker payload accepted")
	}
	// The rejected events above must not have advanced the clock: an
	// earlier valid arrival still goes through.
	w2 := &core.Worker{ID: 2, Arrival: 4, Radius: 1, Platform: 1}
	if _, err := eng.Process(core.Event{Time: 4, Kind: core.WorkerArrival, Worker: w2}); err != nil {
		t.Fatalf("valid worker after rejections: %v", err)
	}
}

// TestEngineRejectedEventLeavesState: an event the engine rejects must
// not move it. The rejects below all carry a far-future time, so an
// engine that touched its clock (or settled) before validating would
// flush the open window, drain the recycle heap and fail every later
// in-order event with ErrTimeRegression.
func TestEngineRejectedEventLeavesState(t *testing.T) {
	stream := feedTestStream(t, 400, 120, 7)
	far := core.Time(math.MaxInt64 - 1)
	t.Run("unsharded", func(t *testing.T) {
		factory, err := FactoryConfigured(AlgBatchCOM, AlgConfig{MaxValue: stream.MaxValue(), Window: 8})
		if err != nil {
			t.Fatal(err)
		}
		eng, err := NewEngine(stream.Platforms(), factory, Config{Seed: 99, ServiceTicks: 3})
		if err != nil {
			t.Fatal(err)
		}
		// Feed until the state a premature settle would destroy exists:
		// an open window and a pending recycled worker.
		events := stream.Events()
		i := 0
		openWindow := func() bool { _, open := eng.NextFlush(); return open }
		for ; i < len(events)/2 || !openWindow() || len(eng.recycle) == 0; i++ {
			if _, err := eng.Process(events[i]); err != nil {
				t.Fatal(err)
			}
		}
		last := eng.last
		flushAt, open := eng.NextFlush()
		pending := len(eng.recycle)

		rejects := []core.Event{
			{Kind: 9, Time: far},
			{Kind: core.RequestArrival, Time: far},
			{Kind: core.WorkerArrival, Time: far, Worker: &core.Worker{ID: 9001, Arrival: far, Radius: 1, Platform: 77}},
			// Refused by the hub's pricing.NewHistory on delivery — after
			// the clock had moved — until check validated the worker.
			{Kind: core.WorkerArrival, Time: far, Worker: &core.Worker{ID: 9002, Arrival: far, Radius: 1, Platform: 1, History: []float64{-1}}},
		}
		for _, ev := range rejects {
			if _, err := eng.Process(ev); err == nil {
				t.Fatalf("event %+v accepted", ev)
			}
		}
		if eng.last != last {
			t.Fatalf("clock moved from %d to %d by rejected events", last, eng.last)
		}
		if at, ok := eng.NextFlush(); at != flushAt || ok != open {
			t.Fatalf("NextFlush %d/%v, want %d/%v", at, ok, flushAt, open)
		}
		if len(eng.recycle) != pending {
			t.Fatalf("recycle heap %d, want %d", len(eng.recycle), pending)
		}
		if _, err := eng.Process(events[i]); err != nil {
			t.Fatalf("next in-order event after rejections: %v", err)
		}
		if _, err := eng.Finish(); err != nil {
			t.Fatal(err)
		}
	})
}

// TestProcessRejectsInvalidRequestUntouched: a request core.Request's
// own Validate refuses must be refused before the engine moves. Until
// check validated it, a NaN value was matched first — worker taken, clock
// moved, NaN added to the platform's Stats — and refused only by
// Matching.Add, and a non-finite location or a negative value was
// decided as "no-workers".
func TestProcessRejectsInvalidRequestUntouched(t *testing.T) {
	factory, err := FactoryFor(AlgDemCOM, 10)
	if err != nil {
		t.Fatal(err)
	}
	eng, err := NewEngine([]core.PlatformID{1, 2}, factory, Config{Seed: 1})
	if err != nil {
		t.Fatal(err)
	}
	w := &core.Worker{ID: 1, Arrival: 5, Radius: 1, Platform: 1, History: []float64{1}}
	if _, err := eng.Process(core.Event{Kind: core.WorkerArrival, Time: 5, Worker: w}); err != nil {
		t.Fatal(err)
	}
	nan, inf := math.NaN(), math.Inf(1)
	for name, r := range map[string]core.Request{
		"NaN value":      {Value: nan, Platform: 1},
		"+Inf value":     {Value: inf, Platform: 1},
		"-Inf value":     {Value: -inf, Platform: 1},
		"zero value":     {Value: 0, Platform: 1},
		"negative value": {Value: -3, Platform: 1},
		"NaN location":   {Value: 3, Platform: 1, Loc: geo.Point{X: nan}},
		"Inf location":   {Value: 3, Platform: 1, Loc: geo.Point{Y: inf}},
		"zero platform":  {Value: 3},
	} {
		r.ID, r.Arrival = 100, 10
		if _, err := eng.Process(core.Event{Kind: core.RequestArrival, Time: 10, Request: &r}); err == nil {
			t.Errorf("%s: request accepted", name)
		}
	}
	if eng.last != 5 {
		t.Fatalf("clock moved from 5 to %d by rejected requests", eng.last)
	}
	ok := &core.Request{ID: 2, Arrival: 6, Value: 3, Platform: 1}
	d, err := eng.Process(core.Event{Kind: core.RequestArrival, Time: 6, Request: ok})
	if err != nil {
		t.Fatalf("valid request after rejections: %v", err)
	}
	if !d.Served || d.Worker != w {
		t.Fatalf("the waiting worker did not serve the valid request: %+v", d)
	}
	res, err := eng.Finish()
	if err != nil {
		t.Fatal(err)
	}
	if rev := res.TotalRevenue(); rev != 3 {
		t.Errorf("revenue = %v, want 3", rev)
	}
}

// TestProcessAllocatesNothingWarmed: once an engine is warm, deciding a
// request in place and delivering a worker allocate nothing on the
// engine's own path. The stream is RamCOM at the ledger's city shape
// (50 workers per km², nine requests a worker, radius 1 km) fed twice,
// the second lap a copy of the first moved past its end in time and ID:
// the first lap takes every cell's bucket, the grids' directories and
// the latency reservoirs to their size, and the second is counted per
// event from runtime.MemStats. What is left is amortized growth — a
// bucket past its high-water mark, the grid's ID map, the Matching —
// which reads 10 to 12 allocations over the lap's 36000 requests and 32
// to 34 over its 4000 workers; anything on the path of every request or
// every worker reads one or more per event. Each kind is bounded near
// its own measurement: one allocation per thousand requests, two per
// hundred workers.
func TestProcessAllocatesNothingWarmed(t *testing.T) {
	if testing.Short() {
		t.Skip("reads MemStats around every event")
	}
	const workers, requests = 4000, 36000
	sq := workload.NewUniformSquare(math.Sqrt(workers / 50.0))
	var cfg workload.Config
	for id := 1; id <= 2; id++ {
		cfg.Platforms = append(cfg.Platforms, workload.PlatformSpec{
			ID: core.PlatformID(id), Requests: requests / 2, Workers: workers / 2, Radius: 1,
			RequestSpatial: sq, Values: workload.DefaultRealValues(),
		})
	}
	stream, err := workload.Generate(cfg, 1)
	if err != nil {
		t.Fatal(err)
	}
	first := stream.Events()
	end := first[len(first)-1].Time + 1
	var ws []core.Worker
	var rs []core.Request
	for _, ev := range first {
		if ev.Kind == core.WorkerArrival {
			w := *ev.Worker
			w.ID += int64(workers)
			w.Arrival += end
			ws = append(ws, w)
		} else {
			r := *ev.Request
			r.ID += int64(requests)
			r.Arrival += end
			rs = append(rs, r)
		}
	}
	lap, err := core.NewStreamPacked(ws, rs)
	if err != nil {
		t.Fatal(err)
	}
	eng, err := NewEngine(stream.Platforms(), RamCOMFactory(stream.MaxValue(), RamCOMOptions{}), Config{Seed: 1})
	if err != nil {
		t.Fatal(err)
	}
	for _, ev := range first {
		if _, err := eng.Process(ev); err != nil {
			t.Fatal(err)
		}
	}
	var allocs, seen [core.RequestArrival + 1]uint64
	var ms runtime.MemStats
	for _, ev := range lap.Events() {
		runtime.ReadMemStats(&ms)
		before := ms.Mallocs
		if _, err := eng.Process(ev); err != nil {
			t.Fatal(err)
		}
		runtime.ReadMemStats(&ms)
		allocs[ev.Kind] += ms.Mallocs - before
		seen[ev.Kind]++
	}
	for _, c := range []struct {
		kind  core.EventKind
		bound float64
	}{{core.RequestArrival, 0.001}, {core.WorkerArrival, 0.02}} {
		k := c.kind
		t.Logf("%v events: %d allocations over %d", k, allocs[k], seen[k])
		if per := float64(allocs[k]) / float64(seen[k]); per >= c.bound {
			t.Errorf("%v events: %.4f allocations each over %d, want below %g", k, per, seen[k], c.bound)
		}
	}
}
