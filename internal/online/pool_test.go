package online

import (
	"math/rand"
	"slices"
	"testing"

	"crossmatch/internal/core"
	"crossmatch/internal/geo"
)

func poolWorker(id int64, t core.Time, x, y, rad float64) *core.Worker {
	return &core.Worker{ID: id, Arrival: t, Loc: geo.Point{X: x, Y: y}, Radius: rad, Platform: 1}
}

func poolRequest(id int64, t core.Time, x, y, v float64) *core.Request {
	return &core.Request{ID: id, Arrival: t, Loc: geo.Point{X: x, Y: y}, Value: v, Platform: 1}
}

func TestPoolAddRemoveLen(t *testing.T) {
	p := NewPool(nil)
	if p.Len() != 0 {
		t.Fatal("new pool not empty")
	}
	p.Add(poolWorker(1, 0, 0, 0, 1))
	p.Add(poolWorker(2, 0, 5, 5, 1))
	if p.Len() != 2 {
		t.Fatalf("Len = %d", p.Len())
	}
	if !p.Remove(1) || p.Remove(1) || p.Remove(42) {
		t.Error("Remove semantics broken")
	}
	if p.Len() != 1 {
		t.Fatalf("Len after remove = %d", p.Len())
	}
	p.Each(func(w *core.Worker) bool {
		if w.ID != 2 {
			t.Errorf("worker %d still waiting, want only 2", w.ID)
		}
		return true
	})
}

func TestPoolCoveringAppliesTimeAndRange(t *testing.T) {
	p := NewPool(nil)
	p.Add(poolWorker(1, 5, 0, 0, 2))  // in range, early enough
	p.Add(poolWorker(2, 20, 0, 0, 2)) // in range, arrives too late
	p.Add(poolWorker(3, 5, 9, 9, 2))  // out of range
	r := poolRequest(1, 10, 1, 0, 5)
	got := p.AppendCovering(nil, r)
	if len(got) != 1 || got[0].ID != 1 {
		ids := []int64{}
		for _, w := range got {
			ids = append(ids, w.ID)
		}
		t.Fatalf("Covering = %v, want [1]", ids)
	}
}

func TestPoolNearest(t *testing.T) {
	p := NewPool(nil)
	if _, ok := p.Nearest(poolRequest(1, 10, 0, 0, 5)); ok {
		t.Fatal("Nearest on empty pool")
	}
	p.Add(poolWorker(1, 0, 2, 0, 5))
	p.Add(poolWorker(2, 0, 1, 0, 5))
	p.Add(poolWorker(3, 0, 3, 0, 5))
	w, ok := p.Nearest(poolRequest(1, 10, 0, 0, 5))
	if !ok || w.ID != 2 {
		t.Fatalf("Nearest = %v, want worker 2", w)
	}
}

func TestPoolNearestTieBreaksByID(t *testing.T) {
	p := NewPool(nil)
	p.Add(poolWorker(9, 0, 1, 0, 5))
	p.Add(poolWorker(4, 0, -1, 0, 5))
	w, ok := p.Nearest(poolRequest(1, 10, 0, 0, 5))
	if !ok || w.ID != 4 {
		t.Fatalf("Nearest tie = %d, want 4", w.ID)
	}
}

func TestPoolReAddReplaces(t *testing.T) {
	p := NewPool(nil)
	p.Add(poolWorker(1, 0, 0, 0, 1))
	p.Add(poolWorker(1, 0, 10, 10, 1)) // same worker returns elsewhere
	if p.Len() != 1 {
		t.Fatalf("Len = %d, want 1", p.Len())
	}
	if got := p.AppendCovering(nil, poolRequest(1, 5, 0, 0, 2)); len(got) != 0 {
		t.Error("stale location still covered")
	}
	if got := p.AppendCovering(nil, poolRequest(2, 5, 10, 10, 2)); len(got) != 1 {
		t.Error("new location not covered")
	}
}

// TestPoolAddBuildsHistoryOnce: a waiting worker is one pool slot, its
// history included. Re-adding one ID whose history is ascending costs
// no allocation and shares the worker's slice; a shuffled history costs
// the one sorted copy. A refused history leaves the pool as it was.
func TestPoolAddBuildsHistoryOnce(t *testing.T) {
	p := NewPool(nil)
	ascending := make([]float64, 40)
	for i := range ascending {
		ascending[i] = 1 + float64(i)
	}
	shuffled := slices.Clone(ascending)
	shuffled[0], shuffled[39] = shuffled[39], shuffled[0]
	r := poolRequest(1, 10, 0, 0, 5)
	for _, c := range []struct {
		name    string
		history []float64
		want    float64
	}{{"ascending", ascending, 0}, {"shuffled", shuffled, 1}} {
		w := poolWorker(1, 0, 0, 0, 5)
		w.History = c.history
		if err := p.Add(w); err != nil {
			t.Fatal(err)
		}
		// The same ID every time: after the first Add the slot and the grid
		// bucket are reused, so what is counted is the arrival alone.
		if got := testing.AllocsPerRun(100, func() {
			if err := p.Add(w); err != nil {
				t.Fatal(err)
			}
		}); got != c.want {
			t.Errorf("%s: Add allocates %v times, want %v", c.name, got, c.want)
		}
		cands := p.AppendCandidates(nil, r)
		if len(cands) != 1 || cands[0].Worker != w {
			t.Fatalf("%s: candidates %v, want the one worker", c.name, cands)
		}
		vals := cands[0].History.Values()
		if !slices.Equal(vals, ascending) {
			t.Errorf("%s: history %v, want the worker's values ascending", c.name, vals)
		}
		if shared := &vals[0] == &c.history[0]; shared != (c.want == 0) {
			t.Errorf("%s: history shares the worker's slice = %v, want %v", c.name, shared, c.want == 0)
		}
	}
	bad := poolWorker(2, 0, 0, 0, 5)
	bad.History = []float64{1, -1}
	if err := p.Add(bad); err == nil {
		t.Error("a negative history value was accepted")
	}
	if p.Len() != 1 || p.Has(2) {
		t.Errorf("a refused worker reached the pool: len %d", p.Len())
	}
	if !p.Remove(1) || p.hists[0].Len() != 0 {
		t.Error("Remove left the slot's history behind")
	}
}

func TestPoolEach(t *testing.T) {
	p := NewPool(nil)
	for i := int64(1); i <= 5; i++ {
		p.Add(poolWorker(i, 0, float64(i), 0, 1))
	}
	count := 0
	p.Each(func(*core.Worker) bool { count++; return true })
	if count != 5 {
		t.Errorf("Each visited %d, want 5", count)
	}
	count = 0
	p.Each(func(*core.Worker) bool { count++; return count < 2 })
	if count != 2 {
		t.Errorf("early-stop Each visited %d, want 2", count)
	}
}

// TestPoolMatchesLinearScan drives a Pool through random adds, removals,
// re-adds of live IDs and queries, and checks every answer against a
// linear scan over the live set kept here: AppendCovering must return
// exactly the workers that arrived in time, cover the request and pass
// the filter; Nearest the closest of them, smallest ID on ties.
func TestPoolMatchesLinearScan(t *testing.T) {
	rng := rand.New(rand.NewSource(23))
	p := NewPool(nil)
	p.Filter = func(w *core.Worker, _ *core.Request) bool { return w.ID%7 != 0 }
	live := map[int64]*core.Worker{}
	liveIDs := func() []int64 {
		ids := make([]int64, 0, len(live))
		for id := range live {
			ids = append(ids, id)
		}
		slices.Sort(ids)
		return ids
	}
	// Integer coordinates put many workers at equal distances, so the ID
	// tie-break is exercised, and on cell edges.
	randWorker := func(id int64) *core.Worker {
		return poolWorker(id, core.Time(rng.Intn(100)), float64(rng.Intn(12)-6), float64(rng.Intn(12)-6), float64(rng.Intn(4)))
	}
	nextID := int64(1)
	for step := 0; step < 4000; step++ {
		switch op := rng.Intn(10); {
		case op < 3:
			w := randWorker(nextID)
			nextID++
			p.Add(w)
			live[w.ID] = w
		case op < 4 && len(live) > 0: // a live worker returns elsewhere
			ids := liveIDs()
			w := randWorker(ids[rng.Intn(len(ids))])
			p.Add(w)
			live[w.ID] = w
		case op < 6 && len(live) > 0:
			ids := liveIDs()
			id := ids[rng.Intn(len(ids))]
			if !p.Remove(id) {
				t.Fatalf("step %d: Remove(%d) of a live worker reported false", step, id)
			}
			delete(live, id)
		case op < 7:
			if p.Remove(nextID + 5) {
				t.Fatalf("step %d: Remove of an unknown ID reported true", step)
			}
		default:
			r := poolRequest(1, core.Time(rng.Intn(100)), float64(rng.Intn(12)-6), float64(rng.Intn(12)-6), 1)
			var want []int64
			var best *core.Worker
			for _, id := range liveIDs() { // ascending, so the first at a distance wins the tie
				w := live[id]
				if w.Arrival > r.Arrival || !w.Covers(r) || !p.Filter(w, r) {
					continue
				}
				want = append(want, id)
				if best == nil || w.Loc.Dist2(r.Loc) < best.Loc.Dist2(r.Loc) {
					best = w
				}
			}
			var got []int64
			for _, w := range p.AppendCovering(nil, r) {
				got = append(got, w.ID)
			}
			slices.Sort(got)
			if !slices.Equal(got, want) {
				t.Fatalf("step %d: AppendCovering = %v, linear scan %v", step, got, want)
			}
			if w, ok := p.Nearest(r); ok != (best != nil) || (ok && w != best) {
				t.Fatalf("step %d: Nearest = %v, %v; linear scan %v", step, w, ok, best)
			}
		}
		if p.Len() != len(live) {
			t.Fatalf("step %d: Len = %d, live set %d", step, p.Len(), len(live))
		}
	}
}
