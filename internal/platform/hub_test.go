package platform

import (
	"testing"

	"crossmatch/internal/core"
	"crossmatch/internal/fault"
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

// TestHubClaimConflictPath exercises the losing branches of a claim: an
// ID the viewer's own platform holds, one no pool holds, and one its
// owner already assigned all fail before the fault layer draws anything
// (the injector below would fail every claim it is asked about), and
// no claim conflict is counted.
func TestHubClaimConflictPath(t *testing.T) {
	col := metrics.New()
	h := NewHub()
	p1, p2 := online.NewPool(nil), online.NewPool(nil)
	if err := h.RegisterPlatform(1, p1); err != nil {
		t.Fatal(err)
	}
	if err := h.RegisterPlatform(2, p2); err != nil {
		t.Fatal(err)
	}
	h.SetFaults(fault.New(&fault.Plan{ClaimErrorRate: 1}, 1, []core.PlatformID{1, 2}, col))
	addAll(t, p1, &core.Worker{ID: 5, Arrival: 0, Loc: geo.Point{}, Radius: 5, Platform: 1, History: []float64{1}})
	addAll(t, p2, &core.Worker{ID: 7, Arrival: 0, Loc: geo.Point{}, Radius: 5, Platform: 2, History: []float64{1}})
	// The owner assigns worker 7: its pool slot is the only record.
	if !p2.Remove(7) {
		t.Fatal("owner removal failed")
	}
	v1 := h.ViewFor(1)
	for _, id := range []int64{5, 7, 99} {
		if v1.Claim(id) {
			t.Fatalf("claim of worker %d succeeded", id)
		}
	}
	c := col.Snapshot().Counters
	if c.FaultClaimErrors != 0 || c.ProbeRetries != 0 || c.ClaimConflicts != 0 {
		t.Fatalf("refused claims drew faults or counted conflicts: %+v", c)
	}
	// A claim on a waiting partner worker does reach the fault layer.
	addAll(t, p2, &core.Worker{ID: 8, Arrival: 0, Loc: geo.Point{}, Radius: 5, Platform: 2, History: []float64{1}})
	if v1.Claim(8) {
		t.Fatal("claim succeeded through a fault plan that fails every claim")
	}
	if n := col.Snapshot().Counters.FaultClaimErrors; n == 0 {
		t.Fatal("a claim on a waiting partner worker drew no fault")
	}
	if !p2.Has(8) {
		t.Fatal("a faulted claim removed the worker")
	}
}

// TestHubReleasesAssignedWorkers: an assignment — inner through the
// owner's pool, outer through Claim — leaves every view, since the
// pool slot is the worker's only record.
func TestHubReleasesAssignedWorkers(t *testing.T) {
	h := NewHub()
	p1, p2 := online.NewPool(nil), online.NewPool(nil)
	_ = h.RegisterPlatform(1, p1)
	_ = h.RegisterPlatform(2, p2)
	addAll(t, p1, &core.Worker{ID: 1, Arrival: 0, Loc: geo.Point{}, Radius: 5, Platform: 1, History: []float64{1}})
	addAll(t, p2, &core.Worker{ID: 2, Arrival: 0, Loc: geo.Point{}, Radius: 5, Platform: 2, History: []float64{1}})
	r1 := &core.Request{ID: 10, Arrival: 1, Loc: geo.Point{}, Value: 5, Platform: 1}
	r2 := &core.Request{ID: 11, Arrival: 1, Loc: geo.Point{}, Value: 5, Platform: 2}
	v1, v2 := h.ViewFor(1), h.ViewFor(2)
	if len(v1.EligibleOuter(r1)) != 1 || len(v2.EligibleOuter(r2)) != 1 {
		t.Fatal("each platform should see the other's one worker")
	}
	// Outer path: platform 1 claims platform 2's worker.
	if !v1.Claim(2) {
		t.Fatal("claim failed")
	}
	if n := len(v1.EligibleOuter(r1)); n != 0 {
		t.Fatalf("platform 1 still sees %d workers after the claim", n)
	}
	// Inner path: platform 1 assigns its own worker.
	p1.Remove(1)
	if n := len(v2.EligibleOuter(r2)); n != 0 {
		t.Fatalf("platform 2 still sees %d workers after the inner assignment", n)
	}
	if v2.Claim(1) {
		t.Fatal("an assigned worker was claimed")
	}
}

// TestRunReleasesHubRecords checks the release end to end: after a
// long recycled run no worker an assignment took — inner through its
// own pool, outer through a claim — is left in any pool, so no view can
// hand it out again.
func TestRunReleasesHubRecords(t *testing.T) {
	stream := multiStream(t, 3, 500, 80, 11)
	s, res := runForState(t, stream, DemCOMFactory(pricing.DefaultMonteCarlo, false),
		Config{Seed: 11, ServiceTicks: 5})
	outer := 0
	for _, pr := range res.Platforms {
		for _, a := range pr.Matching.Assignments() {
			if a.Outer {
				outer++
			}
			for _, pid := range s.pids {
				if s.matchers[pid].Pool().Has(a.Worker.ID) {
					t.Errorf("worker %d, assigned to request %d, still waits in platform %d's pool", a.Worker.ID, a.Request.ID, pid)
				}
			}
		}
	}
	if outer == 0 || res.Recycled == 0 {
		t.Fatalf("%d outer assignments, %d recycled workers: the run exercises neither release path", outer, res.Recycled)
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
