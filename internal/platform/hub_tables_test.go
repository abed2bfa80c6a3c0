package platform

import (
	"context"
	"slices"
	"testing"
	"unsafe"

	"crossmatch/internal/core"
	"crossmatch/internal/geo"
	"crossmatch/internal/online"
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
	if err := eng.SetRecycleBase(stream.MaxWorkerID()); err != nil {
		t.Fatal(err)
	}
	res, err := eng.run(context.Background(), StreamSource(stream))
	if err != nil {
		t.Fatal(err)
	}
	return eng, res
}

// TestHubEmptyAfterDrainedRun checks eviction at its strictest: when
// every worker in the stream ends up assigned, the hub holds no record.
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
	if n := s.hub.TrackedWorkers(); n != 0 {
		t.Errorf("hub holds %d worker records after a drained run, want 0", n)
	}
}

// TestHubRecordsMatchPoolsOnLongRecycledRun is the leak regression for
// the recycled path: over a long run with worker recycling, a record
// exists if and only if the worker still waits in its owner's pool, and
// it carries the history the matchers price with.
func TestHubRecordsMatchPoolsOnLongRecycledRun(t *testing.T) {
	stream := multiStream(t, 3, 600, 90, 19)
	s, _ := runForState(t, stream, DemCOMFactory(pricing.DefaultMonteCarlo, false),
		Config{Seed: 19, ServiceTicks: 5})
	waiting := 0
	for _, pid := range s.pids {
		s.matchers[pid].(poolHolder).Pool().Each(func(w *core.Worker) bool {
			waiting++
			if rec := s.hub.workers[w.ID]; rec == nil {
				t.Errorf("worker %d waits in platform %d's pool without a hub record", w.ID, pid)
			} else if rec.owner != pid || rec.hist.Len() != len(w.History) {
				t.Errorf("worker %d in platform %d's pool: record has owner %d and %d history values, worker has %d",
					w.ID, pid, rec.owner, rec.hist.Len(), len(w.History))
			}
			return true
		})
	}
	if len(s.hub.workers) != waiting {
		t.Errorf("hub holds %d records for %d waiting workers (leaked records)", len(s.hub.workers), waiting)
	}
}

// TestWorkerArrivedOneAllocation: a worker whose history arrives in
// order costs the hub its 32-byte record and nothing else — the history
// is the event's slice — and one whose history does not costs the
// sorted copy as well.
func TestWorkerArrivedOneAllocation(t *testing.T) {
	h := NewHub()
	if err := h.RegisterPlatform(1, online.NewPool(nil)); err != nil {
		t.Fatal(err)
	}
	ascending := make([]float64, 40)
	for i := range ascending {
		ascending[i] = 1 + float64(i)
	}
	shuffled := slices.Clone(ascending)
	shuffled[0], shuffled[39] = shuffled[39], shuffled[0]
	for _, c := range []struct {
		name    string
		history []float64
		want    float64
	}{{"ascending", ascending, 1}, {"shuffled", shuffled, 2}} {
		w := &core.Worker{ID: 1, Loc: geo.Point{}, Radius: 5, Platform: 1, History: c.history}
		// The same ID every time: after the first arrival the map entry
		// is overwritten, so what is counted is the arrival alone.
		if got := testing.AllocsPerRun(100, func() {
			if err := h.WorkerArrived(w); err != nil {
				t.Fatal(err)
			}
		}); got != c.want {
			t.Errorf("%s: WorkerArrived allocates %v times, want %v", c.name, got, c.want)
		}
		hist, ok := h.HistoryOf(1)
		if !ok {
			t.Fatalf("%s: no history recorded", c.name)
		}
		if shared := &hist.Values()[0] == &c.history[0]; shared != (c.want == 1) {
			t.Errorf("%s: history shares the worker's slice = %v, want %v", c.name, shared, c.want == 1)
		}
	}
	if got := unsafe.Sizeof(workerRec{}); got != 32 {
		t.Errorf("workerRec is %d bytes, want 32", got)
	}
}
