package platform

import (
	"context"
	"slices"
	"testing"

	"crossmatch/internal/core"
	"crossmatch/internal/geo"
	"crossmatch/internal/pricing"
)

// runForState runs the stream the way Run does and also hands back the
// engine, for tests that inspect the hub and pools afterwards.
func runForState(t *testing.T, stream *core.Stream, factory MatcherFactory, cfg Config) (*Engine, *Result) {
	t.Helper()
	eng, err := NewEngine(stream.Platforms(), factory, cfg)
	if err != nil {
		t.Fatal(err)
	}
	eng.nextID = stream.MaxWorkerID()
	res, err := eng.run(context.Background(), stream.Events())
	if err != nil {
		t.Fatal(err)
	}
	return eng, res
}

// TestHubEmptyAfterDrainedRun: when every worker in the stream ends up
// assigned, no pool holds a worker and no view hands one out.
func TestHubEmptyAfterDrainedRun(t *testing.T) {
	var events []core.Event
	id := int64(1)
	for _, pid := range []core.PlatformID{1, 2} {
		w := &core.Worker{ID: id, Arrival: 0, Loc: geo.Point{}, Radius: 5, Platform: pid, History: []float64{1, 2}}
		events = append(events, core.Event{Time: 0, Kind: core.WorkerArrival, Worker: w})
		id++
		r := &core.Request{ID: id, Arrival: 1, Loc: geo.Point{}, Value: 3, Platform: pid}
		events = append(events, core.Event{Time: 1, Kind: core.RequestArrival, Request: r})
		id++
	}
	stream, err := core.NewStream(events)
	if err != nil {
		t.Fatal(err)
	}
	s, res := runForState(t, stream, TOTAFactory(), Config{Seed: 1})
	if res.TotalServed() != 2 {
		t.Fatalf("served %d of 2 requests; stream not drained as designed", res.TotalServed())
	}
	r := &core.Request{ID: 99, Arrival: 2, Loc: geo.Point{}, Value: 3, Platform: 1}
	for _, pid := range s.pids {
		if n := s.matchers[pid].Pool().Len(); n != 0 {
			t.Errorf("platform %d's pool holds %d workers after a drained run, want 0", pid, n)
		}
	}
	if n := len(s.hub.ViewFor(1).EligibleOuter(r)); n != 0 {
		t.Errorf("the hub hands out %d workers after a drained run, want 0", n)
	}
}

// TestHubRecordsMatchPoolsOnLongRecycledRun: over a long run with
// worker recycling, every waiting worker is visible to each partner
// platform at its own location, and its candidate carries that worker's
// own history — the ascending values of its History field, which a
// recycled worker extends with what it earned.
func TestHubRecordsMatchPoolsOnLongRecycledRun(t *testing.T) {
	stream := multiStream(t, 3, 600, 90, 19)
	s, res := runForState(t, stream, DemCOMFactory(pricing.DefaultMonteCarlo, false),
		Config{Seed: 19, ServiceTicks: 5})
	if res.Recycled == 0 {
		t.Fatal("no worker was recycled; the run does not exercise slot reuse")
	}
	waiting := 0
	for _, pid := range s.pids {
		s.matchers[pid].Pool().Each(func(w *core.Worker) bool {
			waiting++
			for _, viewer := range s.pids {
				if viewer == pid {
					continue
				}
				r := &core.Request{ID: -1, Arrival: w.Arrival, Loc: w.Loc, Value: 1, Platform: viewer}
				seen := false
				for _, c := range s.hub.ViewFor(viewer).EligibleOuter(r) {
					if c.Worker != w {
						continue
					}
					seen = true
					want := slices.Clone(w.History)
					slices.Sort(want)
					if !slices.Equal(c.History.Values(), want) {
						t.Errorf("worker %d of platform %d: candidate history %v, worker's %v",
							w.ID, pid, c.History.Values(), want)
					}
				}
				if !seen {
					t.Errorf("worker %d waits in platform %d's pool but platform %d does not see it", w.ID, pid, viewer)
				}
			}
			return true
		})
	}
	if waiting == 0 {
		t.Fatal("no worker left waiting; nothing was checked")
	}
}
