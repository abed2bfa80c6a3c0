package platform

import (
	"fmt"
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

// TestPlatformParallelValidAndAtomic runs the concurrent runtime over a
// real multi-platform workload and checks that every matching stays
// valid, no worker is ever assigned twice across platforms, and no
// online revenue exceeds the offline optimum — the atomicity guarantees
// that must survive genuine claim races. Run under -race this is also
// the data-race stress for Hub, Pool and the spatial indexes.
func TestPlatformParallelValidAndAtomic(t *testing.T) {
	for _, seed := range []int64{7, 21, 99} {
		stream := multiStream(t, 4, 600, 120, seed)
		off, err := Offline(stream)
		if err != nil {
			t.Fatal(err)
		}
		for _, alg := range []string{AlgDemCOM, AlgRamCOM} {
			factory, err := FactoryFor(alg, stream.MaxValue())
			if err != nil {
				t.Fatal(err)
			}
			res, err := Run(stream, factory, Config{Seed: seed, PlatformParallel: true})
			if err != nil {
				t.Fatalf("%s seed %d: %v", alg, seed, err)
			}
			assertAtomicAssignments(t, res)
			if rev := res.TotalRevenue(); rev > off.TotalWeight+1e-9 {
				t.Errorf("%s seed %d: parallel revenue %.4f exceeds offline optimum %.4f", alg, seed, rev, off.TotalWeight)
			}
		}
	}
}

// TestPlatformParallelRecycling exercises the concurrent runtime with
// worker recycling on: recycled IDs must stay unique across the
// per-platform goroutines (they come from one atomic allocator) and the
// matchings must stay valid.
func TestPlatformParallelRecycling(t *testing.T) {
	stream := multiStream(t, 3, 400, 60, 5)
	res, err := Run(stream, DemCOMFactory(pricing.DefaultMonteCarlo, false),
		Config{Seed: 5, PlatformParallel: true, ServiceTicks: 10})
	if err != nil {
		t.Fatal(err)
	}
	assertAtomicAssignments(t, res)
	if res.Recycled != res.TotalServed() {
		t.Errorf("recycled %d workers, want one re-arrival per served request (%d)",
			res.Recycled, res.TotalServed())
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

// TestPlatformParallelProvokesClaimConflicts drives two request-heavy
// platforms against one shared worker pool until the hub observes a
// genuine claim conflict (two platforms racing for the same worker, one
// losing at the CAS or the pool removal). The losing path must leave the
// matchings untouched and valid. Sequential runs of the identical
// stream must never conflict.
func TestPlatformParallelProvokesClaimConflicts(t *testing.T) {
	seq := metrics.New()
	// A pool much larger than either platform can drain keeps candidates
	// visible to both goroutines at all times; both platforms always
	// target the nearest accepting worker of the same shared pool, so a
	// preemption between sighting and claim collides with the other
	// platform's claims of the same low-distance workers.
	stream := conflictStream(t, 250, 300)
	if _, err := Run(stream, DemCOMFactory(pricing.DefaultMonteCarlo, false),
		Config{Seed: 1, Metrics: seq}); err != nil {
		t.Fatal(err)
	}
	if n := seq.Snapshot().Counters.ClaimConflicts; n != 0 {
		t.Fatalf("sequential run recorded %d claim conflicts, want 0", n)
	}

	col := metrics.New()
	conflicts := int64(0)
	for trial := 0; trial < 10 && conflicts == 0; trial++ {
		res, err := Run(stream, DemCOMFactory(pricing.DefaultMonteCarlo, false),
			Config{Seed: int64(trial), PlatformParallel: true, Metrics: col})
		if err != nil {
			t.Fatal(err)
		}
		assertAtomicAssignments(t, res)
		conflicts = col.Snapshot().Counters.ClaimConflicts
	}
	if conflicts == 0 {
		// A single-P scheduler can interleave the goroutines without ever
		// hitting the claim window; TestHubClaimConflictPath still covers
		// the losing branch deterministically.
		t.Skip("no claim conflict provoked on this scheduler")
	}
	t.Logf("provoked %d claim conflicts", conflicts)
}

// TestHubClaimConflictPath deterministically exercises the losing branch
// of a claim race: the worker is still tracked by the hub but its pool
// slot was already taken (the owner's inner assignment has removed it
// and not yet evicted the tables). The claim must fail, count one
// conflict, and a later eviction must stay a no-op.
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
	// later — the window a racing claim can land in.
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

// TestPlatformParallelMatchesSequentialAggregates compares the
// concurrent and sequential runtimes on a workload without claim
// contention (TOTA never touches the hub): per-platform outcomes must be
// identical, because each platform's sub-stream is processed in the same
// order either way.
func TestPlatformParallelMatchesSequentialAggregates(t *testing.T) {
	stream := multiStream(t, 4, 500, 150, 13)
	seqRes, err := Run(stream, TOTAFactory(), Config{Seed: 13})
	if err != nil {
		t.Fatal(err)
	}
	parRes, err := Run(stream, TOTAFactory(), Config{Seed: 13, PlatformParallel: true})
	if err != nil {
		t.Fatal(err)
	}
	for pid, sp := range seqRes.Platforms {
		pp := parRes.Platforms[pid]
		if sp.Stats.Served != pp.Stats.Served || sp.Stats.Revenue != pp.Stats.Revenue {
			t.Errorf("platform %d: sequential (served %d, rev %.4f) != parallel (served %d, rev %.4f)",
				pid, sp.Stats.Served, sp.Stats.Revenue, pp.Stats.Served, pp.Stats.Revenue)
		}
	}
}

// TestSequentialBitIdenticalWithParallelFlagOff guards the default
// path: a run with PlatformParallel unset must be a pure function of
// (stream, seed) — two runs agree assignment for assignment.
func TestSequentialBitIdenticalWithParallelFlagOff(t *testing.T) {
	stream := multiStream(t, 3, 300, 60, 17)
	key := func(res *Result) string {
		s := ""
		for _, pid := range []core.PlatformID{1, 2, 3} {
			p := res.Platforms[pid]
			if p == nil {
				continue
			}
			s += fmt.Sprintf("[%d:%d:%.6f", pid, p.Stats.Served, p.Stats.Revenue)
			for _, a := range p.Matching.Assignments() {
				s += fmt.Sprintf(" %d->%d@%.6f", a.Request.ID, a.Worker.ID, a.Payment)
			}
			s += "]"
		}
		return s
	}
	factory := DemCOMFactory(pricing.DefaultMonteCarlo, false)
	a, err := Run(stream, factory, Config{Seed: 17})
	if err != nil {
		t.Fatal(err)
	}
	b, err := Run(stream, factory, Config{Seed: 17})
	if err != nil {
		t.Fatal(err)
	}
	if key(a) != key(b) {
		t.Error("two sequential runs with the same seed diverged")
	}
}
