package core

import (
	"math"
	"math/rand"
	"slices"
	"sort"
	"testing"

	"crossmatch/internal/geo"
)

// FuzzStreamOrdering fuzzes both stream builds — NewStream over events
// and NewStreamPacked over the same payloads copied into two slabs — with
// randomly generated, randomly shuffled worker and request arrivals and
// asserts the ordering contract
// every consumer relies on: events sorted by time; at equal times every
// worker arrival precedes every request arrival (so a worker arriving
// with a request may serve it); equal (time, kind) ties broken by
// ascending ID; and the sort is a permutation — nothing dropped,
// duplicated or mutated. The order must also be a pure function of the
// event multiset, independent of input shuffling.
//
// dups further events repeat the (time, kind, ID) key of an earlier one
// behind a pointer of their own, at a location of their own. Equal keys
// are where a stable and an unstable sort part ways, so with them in,
// the event build must equal the sort.SliceStable reference below
// element for element, by pointer, and the packed build must equal it by
// value, with each kind's payloads ascending in memory along the stream.
//
// shape picks where the arrival times come from (see fuzzTime): the
// radix passes of the build depend on the span of the times and on
// nothing else, so each shape drives a different number of them, and
// the two widest take the comparison sort.
func FuzzStreamOrdering(f *testing.F) {
	f.Add(int64(1), uint8(5), uint8(7), uint8(0), uint8(0))
	f.Add(int64(42), uint8(0), uint8(3), uint8(2), uint8(0))
	f.Add(int64(-9), uint8(40), uint8(40), uint8(40), uint8(0))
	f.Add(int64(7), uint8(1), uint8(0), uint8(255), uint8(0))
	f.Add(int64(3), uint8(60), uint8(90), uint8(9), uint8(1))
	f.Add(int64(5), uint8(30), uint8(50), uint8(20), uint8(2))
	f.Add(int64(11), uint8(80), uint8(80), uint8(30), uint8(3))
	f.Add(int64(13), uint8(25), uint8(70), uint8(12), uint8(4))
	f.Fuzz(func(t *testing.T, seed int64, nWorkers, nRequests, dups, shape uint8) {
		rng := rand.New(rand.NewSource(seed))
		var events []Event
		id := int64(1)
		for i := 0; i < int(nWorkers); i++ {
			w := &Worker{
				ID:       id,
				Arrival:  fuzzTime(rng, shape),
				Loc:      geo.Point{X: rng.Float64() * 10, Y: rng.Float64() * 10},
				Radius:   0.1 + rng.Float64(),
				Platform: PlatformID(1 + rng.Intn(3)),
			}
			events = append(events, Event{Time: w.Arrival, Kind: WorkerArrival, Worker: w})
			id++
		}
		for i := 0; i < int(nRequests); i++ {
			r := &Request{
				ID:       id,
				Arrival:  fuzzTime(rng, shape),
				Loc:      geo.Point{X: rng.Float64() * 10, Y: rng.Float64() * 10},
				Value:    0.1 + rng.Float64()*5,
				Platform: PlatformID(1 + rng.Intn(3)),
			}
			events = append(events, Event{Time: r.Arrival, Kind: RequestArrival, Request: r})
			id++
		}
		distinct := len(events)
		for i := 0; i < int(dups) && distinct > 0; i++ {
			e := events[rng.Intn(distinct)]
			loc := geo.Point{X: rng.Float64() * 10, Y: rng.Float64() * 10}
			if e.Kind == WorkerArrival {
				cl := *e.Worker
				cl.Loc = loc
				e.Worker = &cl
			} else {
				cl := *e.Request
				cl.Loc = loc
				e.Request = &cl
			}
			events = append(events, e)
		}
		rng.Shuffle(len(events), func(i, j int) { events[i], events[j] = events[j], events[i] })

		s, err := NewStream(events)
		if err != nil {
			t.Fatalf("valid events rejected: %v", err)
		}
		got := s.Events()
		if len(got) != len(events) {
			t.Fatalf("stream has %d events, input had %d", len(got), len(events))
		}
		want := stableReference(events)
		for i := range want {
			if got[i] != want[i] {
				t.Fatalf("position %d holds %+v, the stable reference has %+v", i, got[i], want[i])
			}
		}
		checkPacked(t, events, want)
		if len(events) > distinct {
			return // the checks below assume distinct IDs
		}
		seen := map[int64]bool{}
		for i, e := range got {
			if seen[eventID(e)] {
				t.Fatalf("event id %d appears twice in the stream", eventID(e))
			}
			seen[eventID(e)] = true
			if i == 0 {
				continue
			}
			prev := got[i-1]
			if e.Time < prev.Time {
				t.Fatalf("event %d at t=%d follows event at t=%d: stream not time-ordered", i, e.Time, prev.Time)
			}
			if e.Time == prev.Time {
				if prev.Kind == RequestArrival && e.Kind == WorkerArrival {
					t.Fatalf("at t=%d a worker arrival follows a request arrival: workers must come first", e.Time)
				}
				if prev.Kind == e.Kind && eventID(prev) >= eventID(e) {
					t.Fatalf("at t=%d, kind %v: id %d not ascending after %d", e.Time, e.Kind, eventID(e), eventID(prev))
				}
			}
		}

		// Re-shuffling the same events must yield the identical order:
		// downstream determinism (same seed, same matching) depends on it.
		rng.Shuffle(len(events), func(i, j int) { events[i], events[j] = events[j], events[i] })
		s2, err := NewStream(events)
		if err != nil {
			t.Fatal(err)
		}
		for i := range got {
			if eventID(got[i]) != eventID(s2.Events()[i]) {
				t.Fatalf("event order depends on input order: position %d is id %d vs id %d",
					i, eventID(got[i]), eventID(s2.Events()[i]))
			}
		}
	})
}

// fuzzTime draws one arrival time of the given shape: 0 narrow (twenty
// ticks, one radix digit), 1 wide (2^40 ticks, four digits), 2 on both
// sides of zero, 3 over all of int64 with both ends of it likely, 4
// every time the same.
func fuzzTime(rng *rand.Rand, shape uint8) Time {
	switch shape % 5 {
	case 0:
		return Time(rng.Intn(20))
	case 1:
		return Time(rng.Int63n(1 << 40))
	case 2:
		return Time(rng.Int63n(1<<22) - 1<<21)
	case 3:
		switch rng.Intn(8) {
		case 0:
			return math.MinInt64
		case 1:
			return math.MaxInt64
		}
		return Time(rng.Uint64())
	default:
		return -7
	}
}

// stableReference is the build NewStreamOwned replaced, kept as the
// oracle: sort.SliceStable by (time, kind, ID) over a copy.
func stableReference(events []Event) []Event {
	out := append([]Event(nil), events...)
	sort.SliceStable(out, func(i, j int) bool {
		a, b := out[i], out[j]
		if a.Time != b.Time {
			return a.Time < b.Time
		}
		if a.Kind != b.Kind {
			return a.Kind < b.Kind
		}
		return eventID(a) < eventID(b)
	})
	return out
}

// checkPacked builds the events' payloads through NewStreamPacked, copied
// into two slabs in input order, and holds the result to want, the
// stable reference: the same events by value, the same summary, and each
// kind's payloads ascending in memory along the stream.
func checkPacked(t *testing.T, events, want []Event) {
	t.Helper()
	var workers []Worker
	var requests []Request
	for _, e := range events {
		if e.Kind == WorkerArrival {
			workers = append(workers, *e.Worker)
		} else {
			requests = append(requests, *e.Request)
		}
	}
	ref, err := NewStreamOwned(slices.Clone(want))
	if err != nil {
		t.Fatal(err)
	}
	s, err := NewStreamPacked(workers, requests)
	if err != nil {
		t.Fatalf("valid payloads rejected: %v", err)
	}
	if s.MaxValue() != ref.MaxValue() || s.MaxWorkerID() != ref.MaxWorkerID() || !slices.Equal(s.Platforms(), ref.Platforms()) {
		t.Fatalf("packed summary (%v, %d, %v), the reference's (%v, %d, %v)",
			s.MaxValue(), s.MaxWorkerID(), s.Platforms(), ref.MaxValue(), ref.MaxWorkerID(), ref.Platforms())
	}
	got := s.Events()
	if len(got) != len(want) {
		t.Fatalf("packed stream has %d events, want %d", len(got), len(want))
	}
	nw, nr := 0, 0
	for i, e := range got {
		w := want[i]
		if e.Time != w.Time || e.Kind != w.Kind {
			t.Fatalf("packed position %d is (%d, %v), the reference has (%d, %v)", i, e.Time, e.Kind, w.Time, w.Kind)
		}
		if e.Kind == WorkerArrival {
			g, x := e.Worker, w.Worker
			if g.ID != x.ID || g.Arrival != x.Arrival || g.Loc != x.Loc || g.Radius != x.Radius || g.Platform != x.Platform {
				t.Fatalf("packed position %d holds worker %+v, the reference has %+v", i, *g, *x)
			}
			if g != &workers[nw] {
				t.Fatalf("packed position %d: worker %d of the stream is not slot %d of its slab", i, nw, nw)
			}
			nw++
			continue
		}
		if *e.Request != *w.Request {
			t.Fatalf("packed position %d holds request %+v, the reference has %+v", i, *e.Request, *w.Request)
		}
		if e.Request != &requests[nr] {
			t.Fatalf("packed position %d: request %d of the stream is not slot %d of its slab", i, nr, nr)
		}
		nr++
	}
}
