package core

import (
	"math/rand"
	"testing"

	"crossmatch/internal/geo"
)

// randomEvents builds a valid random event set for property tests.
func randomEvents(rng *rand.Rand, n int) []Event {
	var evs []Event
	for i := 0; i < n; i++ {
		t := Time(rng.Int63n(1000))
		if rng.Intn(2) == 0 {
			w := &Worker{
				ID:       int64(i + 1),
				Arrival:  t,
				Loc:      geo.Point{X: rng.Float64() * 10, Y: rng.Float64() * 10},
				Radius:   0.5 + rng.Float64(),
				Platform: PlatformID(1 + rng.Intn(3)),
			}
			evs = append(evs, Event{Time: t, Kind: WorkerArrival, Worker: w})
		} else {
			r := &Request{
				ID:       int64(i + 1),
				Arrival:  t,
				Loc:      geo.Point{X: rng.Float64() * 10, Y: rng.Float64() * 10},
				Value:    0.5 + rng.Float64()*20,
				Platform: PlatformID(1 + rng.Intn(3)),
			}
			evs = append(evs, Event{Time: t, Kind: RequestArrival, Request: r})
		}
	}
	return evs
}

// Property: NewStream is idempotent — re-sorting a sorted stream changes
// nothing — and ordering is monotone in time.
func TestStreamSortIdempotent(t *testing.T) {
	rng := rand.New(rand.NewSource(8))
	for trial := 0; trial < 50; trial++ {
		s, err := NewStream(randomEvents(rng, 1+rng.Intn(60)))
		if err != nil {
			t.Fatal(err)
		}
		again, err := NewStream(s.Events())
		if err != nil {
			t.Fatal(err)
		}
		if again.Len() != s.Len() {
			t.Fatal("length changed")
		}
		prev := Time(-1)
		for i, e := range s.Events() {
			if e.Time < prev {
				t.Fatalf("trial %d: order violated at %d", trial, i)
			}
			prev = e.Time
			a, b := s.Events()[i], again.Events()[i]
			if a.Kind != b.Kind || a.Time != b.Time || eventID(a) != eventID(b) {
				t.Fatalf("trial %d: event %d changed on re-sort", trial, i)
			}
		}
	}
}

// Property: MaxValue is an upper bound attained by some request.
func TestStreamMaxValueAttained(t *testing.T) {
	rng := rand.New(rand.NewSource(10))
	for trial := 0; trial < 50; trial++ {
		s, err := NewStream(randomEvents(rng, 1+rng.Intn(60)))
		if err != nil {
			t.Fatal(err)
		}
		maxV := s.MaxValue()
		attained := len(s.Requests()) == 0 && maxV == 0
		for _, r := range s.Requests() {
			if r.Value > maxV {
				t.Fatalf("trial %d: request above MaxValue", trial)
			}
			if r.Value == maxV {
				attained = true
			}
		}
		if !attained {
			t.Fatalf("trial %d: MaxValue %v not attained", trial, maxV)
		}
	}
}
