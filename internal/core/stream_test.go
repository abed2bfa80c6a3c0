package core

import (
	"math"
	"math/rand"
	"slices"
	"testing"
)

// exampleStream loads the shared Example 1 fixture; see ExampleOneStream.
func exampleStream(t *testing.T) *Stream {
	t.Helper()
	s, err := ExampleOneStream()
	if err != nil {
		t.Fatal(err)
	}
	return s
}

func TestExampleOneStreamShape(t *testing.T) {
	s := exampleStream(t)
	if s.Len() != 10 {
		t.Fatalf("Len = %d, want 10", s.Len())
	}
	wantKinds := []EventKind{
		WorkerArrival, WorkerArrival, RequestArrival, WorkerArrival, RequestArrival,
		RequestArrival, WorkerArrival, RequestArrival, WorkerArrival, RequestArrival,
	}
	for i, e := range s.Events() {
		if e.Kind != wantKinds[i] {
			t.Errorf("event %d kind = %v, want %v", i, e.Kind, wantKinds[i])
		}
	}
	if got := s.MaxValue(); got != 9 {
		t.Errorf("MaxValue = %v, want 9", got)
	}
	if got := s.MaxWorkerID(); got != 5 {
		t.Errorf("MaxWorkerID = %d, want 5", got)
	}
	if ws := s.Workers(); len(ws) != 5 {
		t.Errorf("Workers = %d, want 5", len(ws))
	}
	if rs := s.Requests(); len(rs) != 5 {
		t.Errorf("Requests = %d, want 5", len(rs))
	}
}

func TestExampleOneCoverage(t *testing.T) {
	s := exampleStream(t)
	ws := s.Workers()
	rs := s.Requests()
	byID := func(id int64) *Worker {
		for _, w := range ws {
			if w.ID == id {
				return w
			}
		}
		t.Fatalf("worker %d not found", id)
		return nil
	}
	reqByID := func(id int64) *Request {
		for _, r := range rs {
			if r.ID == id {
				return r
			}
		}
		t.Fatalf("request %d not found", id)
		return nil
	}
	covers := map[int64][]int64{ // worker -> requests it covers per Fig. 3
		1: {1, 2},
		2: {2, 3},
		3: {2, 3},
		4: {3, 4},
		5: {4, 5},
	}
	for wid, rids := range covers {
		w := byID(wid)
		got := map[int64]bool{}
		for _, r := range rs {
			if w.Covers(r) {
				got[r.ID] = true
			}
		}
		for _, rid := range rids {
			if !got[rid] {
				t.Errorf("w%d should cover r%d", wid, rid)
			}
		}
		if len(got) != len(rids) {
			t.Errorf("w%d covers %v, want exactly %v", wid, got, rids)
		}
	}
	// Time constraint sanity: w4 arrives after r3? No - w4 (t7) arrives
	// after r3 (t6), so w4 may NOT serve r3 online... but the paper's
	// Fig 3(c) assigns w4 to r4 (t8) which arrives after w4. Check r4.
	if !CanServe(byID(4), reqByID(4)) {
		t.Error("w4 must be able to serve r4")
	}
	if CanServe(byID(4), reqByID(3)) {
		t.Error("w4 arrives after r3 and must not serve it")
	}
}

func TestNewStreamSortsAndValidates(t *testing.T) {
	w := wrk(1, 5, 0, 0, 1, 1)
	r := req(1, 3, 0, 0, 2, 1)
	s, err := NewStream([]Event{
		{Time: 5, Kind: WorkerArrival, Worker: w},
		{Time: 3, Kind: RequestArrival, Request: r},
	})
	if err != nil {
		t.Fatal(err)
	}
	if s.Events()[0].Kind != RequestArrival {
		t.Error("events not sorted by time")
	}

	// Mismatched event time must fail validation.
	if _, err := NewStream([]Event{{Time: 4, Kind: WorkerArrival, Worker: w}}); err == nil {
		t.Error("expected arrival/event time mismatch error")
	}
	// Malformed event kinds.
	if _, err := NewStream([]Event{{Time: 1, Kind: WorkerArrival, Request: r}}); err == nil {
		t.Error("expected malformed worker event error")
	}
	if _, err := NewStream([]Event{{Time: 1, Kind: 99}}); err == nil {
		t.Error("expected unknown kind error")
	}
}

func TestStreamTieBreakWorkersFirst(t *testing.T) {
	w := wrk(1, 7, 0, 0, 1, 1)
	r := req(1, 7, 0, 0, 2, 1)
	s, err := NewStream([]Event{
		{Time: 7, Kind: RequestArrival, Request: r},
		{Time: 7, Kind: WorkerArrival, Worker: w},
	})
	if err != nil {
		t.Fatal(err)
	}
	if s.Events()[0].Kind != WorkerArrival {
		t.Error("worker must sort before request at the same tick")
	}
}

func TestStreamPlatforms(t *testing.T) {
	s := exampleStream(t)
	ids := s.Platforms()
	if len(ids) != 2 || ids[0] != 1 || ids[1] != 2 {
		t.Fatalf("Platforms = %v, want [1 2]", ids)
	}
}

func TestWorkerAndRequestEvents(t *testing.T) {
	ws := []*Worker{wrk(1, 3, 0, 0, 1, 1), wrk(2, 9, 1, 1, 1, 1)}
	rs := []*Request{req(1, 5, 0, 0, 2, 1)}
	evs := append(WorkerEvents(ws), RequestEvents(rs)...)
	s, err := NewStream(evs)
	if err != nil {
		t.Fatal(err)
	}
	want := []EventKind{WorkerArrival, RequestArrival, WorkerArrival}
	for i, e := range s.Events() {
		if e.Kind != want[i] {
			t.Errorf("event %d = %v, want %v", i, e.Kind, want[i])
		}
	}
}

// TestNewStreamPackedLaysPayloadsInArrivalOrder: the packed build is the
// owned build event for event, behind the builder's two slabs, sorted in
// place so that payloads ascend in memory along the stream, one slab per
// kind; a history is shared, not copied.
func TestNewStreamPackedLaysPayloadsInArrivalOrder(t *testing.T) {
	rng := rand.New(rand.NewSource(3))
	var events []Event
	var workers []Worker
	var requests []Request
	for i := 0; i < 400; i++ {
		at := Time(rng.Intn(300)) // ties included
		if i%5 == 0 {
			w := wrk(int64(i+1), at, rng.Float64(), rng.Float64(), 1, PlatformID(1+i%3))
			w.History = []float64{1 + rng.Float64(), 2}
			events = append(events, Event{Time: at, Kind: WorkerArrival, Worker: w})
			workers = append(workers, *w)
		} else {
			r := req(int64(i+1), at, rng.Float64(), rng.Float64(), 1+rng.Float64(), PlatformID(1+i%3))
			events = append(events, Event{Time: at, Kind: RequestArrival, Request: r})
			requests = append(requests, *r)
		}
	}
	ref, err := NewStream(events)
	if err != nil {
		t.Fatal(err)
	}
	packed, err := NewStreamPacked(workers, requests)
	if err != nil {
		t.Fatal(err)
	}
	if packed.Len() != ref.Len() || packed.MaxValue() != ref.MaxValue() || packed.MaxWorkerID() != ref.MaxWorkerID() ||
		!slices.Equal(packed.Platforms(), ref.Platforms()) {
		t.Fatalf("packed stream's summary differs from the owned build's")
	}
	var nw, nr int
	for i, e := range packed.Events() {
		want := ref.Events()[i]
		if e.Time != want.Time || e.Kind != want.Kind {
			t.Fatalf("event %d is (%d, %v), the owned build has (%d, %v)", i, e.Time, e.Kind, want.Time, want.Kind)
		}
		if e.Kind == WorkerArrival {
			g, w := e.Worker, want.Worker
			if g.ID != w.ID || g.Arrival != w.Arrival || g.Loc != w.Loc || g.Radius != w.Radius || g.Platform != w.Platform ||
				len(g.History) != len(w.History) || &g.History[0] != &w.History[0] {
				t.Fatalf("event %d: worker %+v, the owned build has %+v", i, *g, *w)
			}
			if g != &workers[nw] {
				t.Fatalf("event %d: worker payload at %p, want slot %d of the slab", i, g, nw)
			}
			nw++
			continue
		}
		if *e.Request != *want.Request || e.Request != &requests[nr] {
			t.Fatalf("event %d: request %+v at %p, the owned build has %+v; want slot %d of the slab", i, *e.Request, e.Request, *want.Request, nr)
		}
		nr++
	}

	bad := slices.Clone(requests)
	bad[7].Value = -1
	if _, err := NewStreamPacked(nil, bad); err == nil {
		t.Error("a request of negative value was packed")
	}
	badW := slices.Clone(workers)
	badW[3].History = []float64{math.NaN()}
	if _, err := NewStreamPacked(badW, nil); err == nil {
		t.Error("a worker with a NaN history value was packed")
	}
}

// BenchmarkNewStream400k is the stream build at the ledger's city400k
// shape: 40k worker and 360k request arrivals in generator order, ticks
// uniform over 4 × events. The copy inside the loop is the same 12.8 MB
// on every side of a comparison.
func BenchmarkNewStream400k(b *testing.B) {
	benchNewStreamOwned(b, city400kEvents())
}

// BenchmarkNewStream400kSorted is the same build over input already in
// stream order, which is what route.SplitStream and workload.ReadCSV
// hand NewStreamOwned: validation and the order check, no sort.
func BenchmarkNewStream400kSorted(b *testing.B) {
	s, err := NewStreamOwned(city400kEvents())
	if err != nil {
		b.Fatal(err)
	}
	benchNewStreamOwned(b, s.Events())
}

func city400kEvents() []Event {
	const nWorkers, nRequests = 40_000, 360_000
	rng := rand.New(rand.NewSource(1))
	horizon := int64(4 * (nWorkers + nRequests))
	events := make([]Event, 0, nWorkers+nRequests)
	for i := 0; i < nWorkers; i++ {
		w := &Worker{ID: int64(i + 1), Arrival: Time(rng.Int63n(horizon)), Radius: 1, Platform: PlatformID(1 + i%2)}
		events = append(events, Event{Time: w.Arrival, Kind: WorkerArrival, Worker: w})
	}
	for i := 0; i < nRequests; i++ {
		r := &Request{ID: int64(i + 1), Arrival: Time(rng.Int63n(horizon)), Value: 1 + rng.Float64(), Platform: PlatformID(1 + i%2)}
		events = append(events, Event{Time: r.Arrival, Kind: RequestArrival, Request: r})
	}
	return events
}

func benchNewStreamOwned(b *testing.B, events []Event) {
	scratch := make([]Event, len(events))
	b.ReportAllocs()
	b.ResetTimer()
	for i := 0; i < b.N; i++ {
		copy(scratch, events)
		if _, err := NewStreamOwned(scratch); err != nil {
			b.Fatal(err)
		}
	}
}
