package platform

import (
	"testing"

	"crossmatch/internal/core"
	"crossmatch/internal/geo"
	"crossmatch/internal/metrics"
	"crossmatch/internal/online"
	"crossmatch/internal/pricing"
	"crossmatch/internal/workload"
)

// multiStream generates a multi-platform synthetic stream.
func multiStream(t *testing.T, platforms, requests, workers int, seed int64) *core.Stream {
	t.Helper()
	cfg, err := workload.SyntheticMulti(platforms, requests, workers, 1.2, "real")
	if err != nil {
		t.Fatal(err)
	}
	stream, err := workload.Generate(cfg, seed)
	if err != nil {
		t.Fatal(err)
	}
	return stream
}

// assertAtomicAssignments checks the cross-platform invariant the
// per-platform Matching.Validate cannot see: no worker is assigned by
// two different platforms (a lost claim race would do exactly that).
func assertAtomicAssignments(t *testing.T, res *Result) {
	t.Helper()
	if err := res.Validate(); err != nil {
		t.Fatalf("invalid matching: %v", err)
	}
	assignedBy := map[int64]core.PlatformID{}
	for pid, p := range res.Platforms {
		if p.Stats.Served != p.Matching.Len() {
			t.Errorf("platform %d: served %d != matching size %d", pid, p.Stats.Served, p.Matching.Len())
		}
		for _, a := range p.Matching.Assignments() {
			if prev, dup := assignedBy[a.Worker.ID]; dup {
				t.Fatalf("worker %d assigned by both platform %d and platform %d", a.Worker.ID, prev, pid)
			}
			assignedBy[a.Worker.ID] = pid
		}
	}
}

// conflictStream builds a stream designed to make cross-platform claims
// collide: platform 1 owns a small set of cheap workers at the origin,
// platforms 2 and 3 fire many valuable requests at the same spot and no
// workers of their own, so both permanently compete for platform 1's
// pool through the hub.
func conflictStream(t *testing.T, workers, requestsEach int) *core.Stream {
	t.Helper()
	var events []core.Event
	id := int64(1)
	for i := 0; i < workers; i++ {
		w := &core.Worker{ID: id, Arrival: 0, Loc: geo.Point{}, Radius: 10, Platform: 1, History: []float64{1, 2}}
		events = append(events, core.Event{Time: 0, Kind: core.WorkerArrival, Worker: w})
		id++
	}
	for i := 0; i < requestsEach; i++ {
		for _, pid := range []core.PlatformID{2, 3} {
			r := &core.Request{ID: id, Arrival: core.Time(i + 1), Loc: geo.Point{}, Value: 8, Platform: pid}
			events = append(events, core.Event{Time: core.Time(i + 1), Kind: core.RequestArrival, Request: r})
			id++
		}
	}
	// Platforms 2 and 3 must exist in the stream; one token worker each,
	// far away and useless for the requests at the origin.
	for _, pid := range []core.PlatformID{2, 3} {
		w := &core.Worker{ID: id, Arrival: 0, Loc: geo.Point{X: 1e6, Y: 1e6}, Radius: 0.1, Platform: pid, History: []float64{1}}
		events = append(events, core.Event{Time: 0, Kind: core.WorkerArrival, Worker: w})
		id++
	}
	s, err := core.NewStream(events)
	if err != nil {
		t.Fatal(err)
	}
	return s
}

// TestHubClaimConflictPath exercises the losing branch of a claim: the
// worker is still tracked by the hub but its pool slot was already taken
// (the owner's inner assignment has removed it and not yet evicted the
// tables). The claim must fail, count one conflict, and a later eviction
// must stay a no-op.
func TestHubClaimConflictPath(t *testing.T) {
	col := metrics.New()
	h := NewHub()
	h.SetMetrics(col)
	p1, p2 := online.NewPool(nil), online.NewPool(nil)
	if err := h.RegisterPlatform(1, p1); err != nil {
		t.Fatal(err)
	}
	if err := h.RegisterPlatform(2, p2); err != nil {
		t.Fatal(err)
	}
	w := &core.Worker{ID: 7, Arrival: 0, Loc: geo.Point{}, Radius: 5, Platform: 2, History: []float64{1}}
	if err := h.WorkerArrived(w); err != nil {
		t.Fatal(err)
	}
	p2.Add(w)
	// The owner assigns the worker: pool removal first, table eviction
	// later.
	if !p2.Remove(w.ID) {
		t.Fatal("owner removal failed")
	}
	if h.ViewFor(1).Claim(7) {
		t.Fatal("claim of an already-assigned worker succeeded")
	}
	if n := col.Snapshot().Counters.ClaimConflicts; n != 1 {
		t.Fatalf("claim conflicts = %d, want 1", n)
	}
	h.WorkerAssigned(7)
	if n := h.TrackedWorkers(); n != 0 {
		t.Fatalf("tracked workers = %d after eviction, want 0", n)
	}
}

// TestHubReleasesAssignedWorkers is the regression test for the
// unbounded owner/history growth: every assignment — inner via
// WorkerAssigned, outer via Claim — must release the per-worker tables,
// so after a full run the hub tracks exactly the still-waiting workers.
func TestHubReleasesAssignedWorkers(t *testing.T) {
	h := NewHub()
	p1, p2 := online.NewPool(nil), online.NewPool(nil)
	_ = h.RegisterPlatform(1, p1)
	_ = h.RegisterPlatform(2, p2)
	w1 := &core.Worker{ID: 1, Arrival: 0, Loc: geo.Point{}, Radius: 5, Platform: 1, History: []float64{1}}
	w2 := &core.Worker{ID: 2, Arrival: 0, Loc: geo.Point{}, Radius: 5, Platform: 2, History: []float64{1}}
	for _, w := range []*core.Worker{w1, w2} {
		if err := h.WorkerArrived(w); err != nil {
			t.Fatal(err)
		}
	}
	p1.Add(w1)
	p2.Add(w2)
	if n := h.TrackedWorkers(); n != 2 {
		t.Fatalf("tracked = %d, want 2", n)
	}
	// Outer path: platform 1 claims platform 2's worker.
	if !h.ViewFor(1).Claim(2) {
		t.Fatal("claim failed")
	}
	if n := h.TrackedWorkers(); n != 1 {
		t.Fatalf("tracked = %d after claim, want 1", n)
	}
	if _, ok := h.HistoryOf(2); ok {
		t.Error("claimed worker's history still tracked")
	}
	// Inner path: platform 1 assigns its own worker.
	p1.Remove(1)
	h.WorkerAssigned(1)
	if n := h.TrackedWorkers(); n != 0 {
		t.Fatalf("tracked = %d after inner assignment, want 0", n)
	}
	if _, ok := h.HistoryOf(1); ok {
		t.Error("assigned worker's history still tracked")
	}
}

// TestRunReleasesHubRecords checks the table eviction end to end: after
// a long recycled run the hub must track exactly the workers still
// waiting in the platform pools, not every worker that ever arrived.
func TestRunReleasesHubRecords(t *testing.T) {
	stream := multiStream(t, 3, 500, 80, 11)
	s, _ := runForState(t, stream, DemCOMFactory(pricing.DefaultMonteCarlo, false),
		Config{Seed: 11, ServiceTicks: 5})
	waiting := 0
	for _, pid := range s.pids {
		waiting += s.matchers[pid].(poolHolder).Pool().Len()
	}
	if got := s.hub.TrackedWorkers(); got != waiting {
		t.Errorf("hub tracks %d workers, want the %d still waiting in pools", got, waiting)
	}
}

// TestRecycleFlushAtEndOfStream is the regression test for the dropped
// final re-arrivals: a worker whose recycled arrival falls after the
// last stream event must still be delivered and counted.
func TestRecycleFlushAtEndOfStream(t *testing.T) {
	w := &core.Worker{ID: 1, Arrival: 0, Loc: geo.Point{}, Radius: 5, Platform: 1, History: []float64{1}}
	r := &core.Request{ID: 2, Arrival: 1, Loc: geo.Point{}, Value: 3, Platform: 1}
	stream, err := core.NewStream([]core.Event{
		{Time: 0, Kind: core.WorkerArrival, Worker: w},
		{Time: 1, Kind: core.RequestArrival, Request: r},
	})
	if err != nil {
		t.Fatal(err)
	}
	// ServiceTicks pushes the re-arrival to t=101, far past the last
	// event at t=1; before the flush fix this run reported Recycled: 0.
	res, err := Run(stream, TOTAFactory(), Config{Seed: 1, ServiceTicks: 100})
	if err != nil {
		t.Fatal(err)
	}
	if res.Recycled != 1 {
		t.Fatalf("Recycled = %d, want 1 (re-arrival after last event must flush)", res.Recycled)
	}
}
