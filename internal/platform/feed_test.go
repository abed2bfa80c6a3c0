package platform

import (
	"errors"
	"math"
	"runtime"
	"strings"
	"testing"

	"crossmatch/internal/core"
	"crossmatch/internal/geo"
	"crossmatch/internal/online"
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
	factory, err := FactoryConfigured(AlgDemCOM, AlgConfig{MaxValue: stream.MaxValue()})
	if err != nil {
		t.Fatalf("FactoryConfigured: %v", err)
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
			revenue += d.Assignment.Revenue()
			if d.Assignment.Worker == nil {
				t.Fatalf("served decision without a worker: %+v", d)
			}
			if d.Assignment.Outer != (d.Assignment.Worker.Platform != d.Request.Platform) {
				t.Fatalf("outer flag disagrees with platforms: %+v", d)
			}
		} else if d.Assignment.Worker != nil {
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
	factory, err := FactoryConfigured(AlgTOTA, AlgConfig{MaxValue: stream.MaxValue()})
	if err != nil {
		t.Fatalf("FactoryConfigured: %v", err)
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
	factory, err := FactoryConfigured(AlgTOTA, AlgConfig{MaxValue: 10})
	if err != nil {
		t.Fatalf("FactoryConfigured: %v", err)
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
	factory, err := FactoryConfigured(AlgTOTA, AlgConfig{MaxValue: 10})
	if err != nil {
		t.Fatalf("FactoryConfigured: %v", err)
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
			// A payload whose arrival is not the event's time, which
			// core.Event.Validate refuses; the engine decided it until
			// check called that.
			{Kind: core.WorkerArrival, Time: far, Worker: &core.Worker{ID: 9003, Arrival: last, Radius: 1, Platform: 1, History: []float64{1}}},
			{Kind: core.RequestArrival, Time: far, Request: &core.Request{ID: 9004, Arrival: last, Value: 3, Platform: 1}},
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
	factory, err := FactoryConfigured(AlgDemCOM, AlgConfig{MaxValue: 10})
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
	if !d.Served || d.Assignment.Worker != w {
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

// TestEngineRefusesWorkerIDTwice: a worker ID that has served, or that
// waits on another platform, is refused on arrival before the clock or
// any pool moves, so no worker serves twice; a re-post on its own
// platform still replaces the waiting entry.
func TestEngineRefusesWorkerIDTwice(t *testing.T) {
	w := func(id int64, at core.Time, pid core.PlatformID) core.Event {
		return core.Event{Time: at, Kind: core.WorkerArrival,
			Worker: &core.Worker{ID: id, Arrival: at, Radius: 1, Platform: pid}}
	}
	r := func(id int64, at core.Time, pid core.PlatformID) core.Event {
		return core.Event{Time: at, Kind: core.RequestArrival,
			Request: &core.Request{ID: id, Arrival: at, Value: 5, Platform: pid}}
	}
	cases := []struct {
		name    string
		pids    []core.PlatformID
		events  []core.Event
		refused int // index of the refused event; -1 for none
		served  int
	}{
		{"served-worker-returns", []core.PlatformID{1},
			[]core.Event{w(7, 1, 1), r(1, 2, 1), w(7, 3, 1), r(2, 4, 1)}, 2, 1},
		{"worker-on-two-platforms", []core.PlatformID{1, 2},
			[]core.Event{w(7, 1, 1), w(7, 2, 2), r(1, 3, 1), r(2, 4, 2)}, 1, 1},
		{"same-platform-repost-replaces", []core.PlatformID{1, 2},
			[]core.Event{w(7, 1, 1), w(7, 2, 1), r(1, 3, 1), r(2, 4, 2)}, -1, 1},
	}
	factory, err := FactoryConfigured(AlgTOTA, AlgConfig{MaxValue: 5})
	if err != nil {
		t.Fatalf("FactoryConfigured: %v", err)
	}
	for _, tc := range cases {
		t.Run(tc.name, func(t *testing.T) {
			eng, err := NewEngine(tc.pids, factory, Config{Seed: 1})
			if err != nil {
				t.Fatalf("NewEngine: %v", err)
			}
			for i, ev := range tc.events {
				_, err := eng.Process(ev)
				if (i == tc.refused) != (err != nil) {
					t.Fatalf("event %d: err %v, want refused %v", i, err, i == tc.refused)
				}
			}
			res, err := eng.Finish()
			if err != nil {
				t.Fatalf("Finish: %v", err)
			}
			if got := res.TotalServed(); got != tc.served {
				t.Fatalf("served %d, want %d", got, tc.served)
			}
			if err := res.Validate(); err != nil {
				t.Fatalf("Validate: %v", err)
			}
		})
	}
}

// TestValidateRejectsDoubleBooking holds Result.Validate to the shape
// a worker served twice used to leave behind: one worker in two
// platforms' matchings.
func TestValidateRejectsDoubleBooking(t *testing.T) {
	w1 := &core.Worker{ID: 7, Arrival: 1, Radius: 1, Platform: 1}
	w2 := &core.Worker{ID: 7, Arrival: 2, Radius: 1, Platform: 2}
	r1 := &core.Request{ID: 1, Arrival: 3, Value: 5, Platform: 1}
	r2 := &core.Request{ID: 2, Arrival: 4, Value: 5, Platform: 2}
	platformOf := func(pid core.PlatformID, as ...core.Assignment) *PlatformResult {
		p := &PlatformResult{ID: pid, Matching: core.NewMatching()}
		for _, a := range as {
			if err := p.Matching.Add(a); err != nil {
				t.Fatalf("Matching.Add: %v", err)
			}
		}
		return p
	}

	// Two platforms: worker 7 served inner on each.
	res := &Result{Platforms: map[core.PlatformID]*PlatformResult{
		1: platformOf(1, core.Assignment{Request: r1, Worker: w1}),
		2: platformOf(2, core.Assignment{Request: r2, Worker: w2}),
	}}
	if err := res.Validate(); err == nil || !strings.Contains(err.Error(), "worker 7 serves on platforms 1 and 2") {
		t.Fatalf("worker on two platforms: Validate = %v", err)
	}
	delete(res.Platforms, 2)
	if err := res.Validate(); err != nil {
		t.Fatalf("a consistent result: Validate = %v", err)
	}
}

// TestDecisionHandlerSeesEveryDecision: the handler is the one exit for
// decisions — one call per request for a greedy and for a windowed
// matcher, never a buffered placeholder, and the greedy call carries
// what Process returns.
func TestDecisionHandlerSeesEveryDecision(t *testing.T) {
	stream := feedTestStream(t, 200, 80, 13)
	requests := 0
	for _, ev := range stream.Events() {
		if ev.Kind == core.RequestArrival {
			requests++
		}
	}
	for _, alg := range []string{AlgDemCOM, AlgBatchCOM} {
		t.Run(alg, func(t *testing.T) {
			factory, err := FactoryConfigured(alg, AlgConfig{MaxValue: stream.MaxValue(), Window: 5})
			if err != nil {
				t.Fatalf("FactoryConfigured: %v", err)
			}
			eng, err := NewEngine(stream.Platforms(), factory, Config{Seed: 5})
			if err != nil {
				t.Fatalf("NewEngine: %v", err)
			}
			var got []online.Decided
			eng.SetDecisionHandler(func(rd online.Decided) {
				if rd.Reason == online.ReasonBuffered {
					t.Fatalf("handler saw a buffered placeholder: %+v", rd)
				}
				got = append(got, rd)
			})
			served := 0
			for _, ev := range stream.Events() {
				n := len(got)
				d, err := eng.Process(ev)
				if err != nil {
					t.Fatalf("Process: %v", err)
				}
				if ev.Kind == core.RequestArrival && d.Reason != online.ReasonBuffered && (len(got) != n+1 || got[n] != d) {
					t.Fatalf("request %d: Process returned %+v, handler saw %v", ev.Request.ID, d, got[n:])
				}
			}
			res, err := eng.Finish()
			if err != nil {
				t.Fatalf("Finish: %v", err)
			}
			for _, rd := range got {
				if rd.Served {
					served++
				}
			}
			if len(got) != requests || served != res.TotalServed() {
				t.Fatalf("handler saw %d decisions (%d served), stream has %d requests, result served %d",
					len(got), served, requests, res.TotalServed())
			}
		})
	}
}

// TestDuplicateRequestIDRefused: a request ID its platform has served,
// or holds in an open window, is refused before the clock or a pool
// moves. Without the refusal the matcher took a worker for the second
// request and the Matching then refused the assignment, so the worker
// was gone and request 6 went unserved.
func TestDuplicateRequestIDRefused(t *testing.T) {
	for _, tc := range []struct {
		alg     string
		workers int
	}{
		{AlgTOTA, 2},     // request 5 is served on arrival
		{AlgBatchCOM, 3}, // request 5 waits in the window
	} {
		t.Run(tc.alg, func(t *testing.T) {
			factory, err := FactoryConfigured(tc.alg, AlgConfig{Window: 10})
			if err != nil {
				t.Fatal(err)
			}
			eng, err := NewEngine([]core.PlatformID{1}, factory, Config{Seed: 1})
			if err != nil {
				t.Fatal(err)
			}
			for id := int64(1); id <= int64(tc.workers); id++ {
				w := &core.Worker{ID: id, Radius: 1, Platform: 1}
				if _, err := eng.Process(core.Event{Kind: core.WorkerArrival, Worker: w}); err != nil {
					t.Fatal(err)
				}
			}
			request := func(id int64, at core.Time) error {
				r := &core.Request{ID: id, Arrival: at, Value: 2, Platform: 1}
				_, err := eng.Process(core.Event{Kind: core.RequestArrival, Time: at, Request: r})
				return err
			}
			if err := request(5, 1); err != nil {
				t.Fatal(err)
			}
			pool := eng.slotOf(1).matcher.Pool()
			held := pool.Len()
			if err := request(5, 2); err == nil || !strings.Contains(err.Error(), "request 5") {
				t.Fatalf("request 5 posted twice: err = %v, want a refusal naming it", err)
			}
			if eng.last != 1 || pool.Len() != held {
				t.Fatalf("the refusal moved the engine: clock %d (want 1), pool %d (want %d)", eng.last, pool.Len(), held)
			}
			if err := request(6, 3); err != nil {
				t.Fatal(err)
			}
			if err := eng.AdvanceTime(20); err != nil {
				t.Fatalf("AdvanceTime(20): %v", err)
			}
			res, err := eng.Finish()
			if err != nil {
				t.Fatal(err)
			}
			if st := res.Platforms[1].Stats; st.Requests != 2 || st.Served != 2 || pool.Len() != tc.workers-2 {
				t.Fatalf("decided %d, served %d, %d workers left; want 2, 2, %d", st.Requests, st.Served, pool.Len(), tc.workers-2)
			}
		})
	}
}
