package platform

import (
	"errors"
	"fmt"
	"math"

	"crossmatch/internal/core"
	"crossmatch/internal/index"
	"crossmatch/internal/match"
	"crossmatch/internal/pricing"
)

// offlineWorkBound caps min(|W|, |R|) × |E|, the exact solver's work: at
// most one augmentation per matched pair, each a Dijkstra over the edges.
// The OFF graphs the tables build measure 2.9e9 (Table V, ~12.5 s),
// 5.1e9 (VI) and 4.0e8 (VII) at -scale 0.05 and about 8× that at 0.1,
// so every documented scale runs; Tables V and VI at -scale 0.2 (1.9e11,
// 3.4e11) are refused.
const offlineWorkBound = 5e10

// ErrOfflineRefused is wrapped by Offline's error for a graph past
// offlineWorkBound, which it refuses to solve.
var ErrOfflineRefused = errors.New("exact OFF refused")

// OfflineResult is the OFF baseline outcome, split per platform.
type OfflineResult struct {
	// Revenue[p] is platform p's share of the joint optimum.
	Revenue map[core.PlatformID]float64
	// Served[p] counts platform p's requests matched in the optimum.
	Served map[core.PlatformID]int
	// TotalWeight is the joint optimal revenue (sum over platforms).
	TotalWeight float64
	// TotalServed is the number of matched requests overall.
	TotalServed int
	// Matching holds the chosen assignments for audit.
	Matching *core.Matching
}

// Offline computes the OFF baseline of Section II-B: the offline optimum
// of COM as a maximum-weight bipartite matching over every feasible
// worker-request edge, with full knowledge of arrivals and payments.
//
// Edge weights: an inner edge (worker and request on the same platform)
// books the full value v; a cross-platform edge books v - v'(w), where
// the offline outer payment v'(w) is the cheapest value the worker has
// ever accepted (its minimum history value) — the most favourable
// payment an omniscient scheduler could offer. OFF is therefore an upper
// bound on every online algorithm, matching its role in the paper's
// evaluation ("can never be achieved in the real world"). A worker with
// no history has no outer edge, as it is no outer candidate online
// (online.Pool.AppendCandidates): nothing prices its acceptance.
//
// All platforms are solved jointly on one graph, so an outer worker is
// never double-booked by two platforms' optima.
//
// The matching is exact (match.MaxWeightFlow) at every size. A graph
// whose min(|W|, |R|) × |E| passes offlineWorkBound is refused with an
// error naming its sizes, never estimated, at the edge that passes it:
// the rest of the graph is never built.
func Offline(stream *core.Stream) (*OfflineResult, error) {
	workers := stream.Workers()
	requests := stream.Requests()

	g := &match.Graph{NWorkers: len(workers), NRequests: len(requests)}
	minAccept := make([]float64, len(workers))
	for i, w := range workers {
		h, err := pricing.NewHistory(w.History)
		if err != nil {
			return nil, fmt.Errorf("platform: offline: worker %d: %w", w.ID, err)
		}
		minAccept[i] = math.Inf(1) // no history: above every value
		if h.Len() > 0 {
			minAccept[i] = h.Min()
		}
	}
	// Enumerate feasible pairs through a spatial index rather than the
	// quadratic worker x request scan; the feasibility graph is
	// radius-sparse at every scale the harness runs.
	cell := index.DefaultCell
	for _, w := range workers {
		if w.Radius > cell {
			cell = w.Radius
		}
	}
	ix := index.NewSlotGrid(cell)
	for wi, w := range workers {
		ix.Insert(index.Entry{ID: int64(wi), Circle: w.Range()}, int32(wi))
	}
	k := float64(min(len(workers), len(requests)))
	var buf []int32
	for ri, r := range requests {
		buf = ix.AppendSlots(buf[:0], r.Loc)
		for _, slot := range buf {
			wi := int(slot)
			w := workers[wi]
			if w.Arrival > r.Arrival {
				continue
			}
			weight := r.Value
			// An outer edge books v - v'(w), and there is none when the
			// worker would never accept within the value.
			if w.Platform != r.Platform {
				if weight = r.Value - minAccept[wi]; !(weight > 0) {
					continue
				}
			}
			g.Edges = append(g.Edges, match.Edge{Worker: wi, Request: ri, Weight: weight})
			if work := k * float64(len(g.Edges)); work > offlineWorkBound {
				return nil, fmt.Errorf("platform: offline: %w over |W|=%d, |R|=%d at |E|=%d: min(|W|,|R|)×|E| = %.3g, past the bound %.3g",
					ErrOfflineRefused, len(workers), len(requests), len(g.Edges), work, offlineWorkBound)
			}
		}
	}
	solved := match.MaxWeightFlow(g)
	if err := solved.Validate(g); err != nil {
		return nil, fmt.Errorf("platform: offline solver produced invalid matching: %w", err)
	}

	res := &OfflineResult{
		Revenue:  map[core.PlatformID]float64{},
		Served:   map[core.PlatformID]int{},
		Matching: core.NewMatching(),
	}
	for ri, wi := range solved.WorkerOf {
		if wi == -1 {
			continue
		}
		r, w := requests[ri], workers[wi]
		outer := w.Platform != r.Platform
		a := core.Assignment{Request: r, Worker: w, Outer: outer}
		if outer {
			a.Payment = minAccept[wi]
		}
		if err := res.Matching.Add(a); err != nil {
			return nil, fmt.Errorf("platform: offline: %w", err)
		}
		res.Revenue[r.Platform] += a.Revenue()
		res.Served[r.Platform]++
		res.TotalWeight += a.Revenue()
		res.TotalServed++
	}
	return res, nil
}
