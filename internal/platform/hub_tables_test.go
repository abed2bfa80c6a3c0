package platform

import (
	"context"
	"testing"

	"crossmatch/internal/core"
	"crossmatch/internal/geo"
	"crossmatch/internal/pricing"
)

// runForState runs the stream the way Run does and also hands back the
// run's state, for tests that inspect the hub and pools afterwards.
func runForState(t *testing.T, stream *core.Stream, factory MatcherFactory, cfg Config) (*runState, *Result) {
	t.Helper()
	eng, err := NewEngine(stream.Platforms(), factory, cfg)
	if err != nil {
		t.Fatal(err)
	}
	if err := eng.SetRecycleBase(maxWorkerID(stream)); err != nil {
		t.Fatal(err)
	}
	res, err := eng.run(context.Background(), StreamSource(stream))
	if err != nil {
		t.Fatal(err)
	}
	return eng.s, res
}

// hubTableLens reads the sizes of the hub's three per-worker tables.
func hubTableLens(h *Hub) (owner, histories, claimed int) {
	h.mu.Lock()
	defer h.mu.Unlock()
	return len(h.owner), len(h.histories), len(h.claimed)
}

// TestHubTablesEmptyAfterDrainedRun checks eviction at its strictest:
// when every worker in the stream ends up assigned, the hub must hold
// zero records in all three per-worker tables — owner, histories and
// claim words — not just a matching TrackedWorkers count.
func TestHubTablesEmptyAfterDrainedRun(t *testing.T) {
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
	o, hi, cl := hubTableLens(s.hub)
	if o != 0 || hi != 0 || cl != 0 {
		t.Errorf("hub tables not empty after drained run: owner=%d histories=%d claimed=%d", o, hi, cl)
	}
}

// TestHubTablesStayInSyncOnLongRecycledRun is the leak regression for
// the recycled path: over a long run with worker recycling, the three
// per-worker tables must stay mutually consistent and track exactly the
// workers still waiting in the platform pools — every pool worker has a
// record, and no record outlives its worker.
func TestHubTablesStayInSyncOnLongRecycledRun(t *testing.T) {
	stream := multiStream(t, 3, 600, 90, 19)
	s, _ := runForState(t, stream, DemCOMFactory(pricing.DefaultMonteCarlo, false),
		Config{Seed: 19, ServiceTicks: 5})
	inPools := map[int64]bool{}
	for _, pid := range s.pids {
		s.matchers[pid].(poolHolder).Pool().Each(func(w *core.Worker) bool {
			inPools[w.ID] = true
			return true
		})
	}
	s.hub.mu.Lock()
	defer s.hub.mu.Unlock()
	if len(s.hub.owner) != len(inPools) || len(s.hub.histories) != len(inPools) || len(s.hub.claimed) != len(inPools) {
		t.Errorf("table sizes owner=%d histories=%d claimed=%d, want %d (workers still waiting in pools)",
			len(s.hub.owner), len(s.hub.histories), len(s.hub.claimed), len(inPools))
	}
	for id := range s.hub.owner {
		if !inPools[id] {
			t.Errorf("hub tracks worker %d that is in no pool (leaked record)", id)
		}
		if _, ok := s.hub.histories[id]; !ok {
			t.Errorf("worker %d has an owner record but no history", id)
		}
		if _, ok := s.hub.claimed[id]; !ok {
			t.Errorf("worker %d has an owner record but no claim word", id)
		}
	}
}
