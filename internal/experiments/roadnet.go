package experiments

import (
	"fmt"
	"math/rand"

	"crossmatch/internal/core"
	"crossmatch/internal/geo"
	"crossmatch/internal/online"
	"crossmatch/internal/platform"
	"crossmatch/internal/roadnet"
	"crossmatch/internal/stats"
	"crossmatch/internal/workload"
)

// RoadNetOptions configures the road-network extension study (the
// paper's Section VII future work: Euclidean vs shortest-path service
// ranges).
type RoadNetOptions struct {
	Grid
	// Detour scales road distances over crow-flies (1.25 default:
	// a typical urban detour index).
	Detour float64
}

// RoadNetRow is one (algorithm, range model) measurement.
type RoadNetRow struct {
	Algorithm string
	RangeKind string // "euclidean" or "road"
	Revenue   float64
	Served    float64
	CoR       float64
}

// RoadNetResult is the full study.
type RoadNetResult struct {
	Opts RoadNetOptions
	Rows []RoadNetRow
}

// Row fetches a measurement.
func (r *RoadNetResult) Row(alg, kind string) (RoadNetRow, bool) {
	return find(r.Rows, func(row RoadNetRow) bool { return row.Algorithm == alg && row.RangeKind == kind })
}

// Table renders the study.
func (r *RoadNetResult) Table() *stats.Table {
	tb := stats.NewTable(
		fmt.Sprintf("Euclidean vs road-network service ranges (|R|=%d, |W|=%d, rad=%.1f, detour %.2f)",
			r.Opts.Requests, r.Opts.Workers, r.Opts.Radius, r.Opts.Detour),
		"Algorithm", "Range", "Revenue", "Served", "|CoR|")
	for _, row := range r.Rows {
		tb.Add(row.Algorithm, row.RangeKind,
			stats.FormatFloat(row.Revenue, 1),
			stats.FormatFloat(row.Served, 1),
			stats.FormatFloat(row.CoR, 1))
	}
	return tb
}

// RunRoadNet compares every online algorithm under Euclidean ranges
// (the paper's model) and shortest-path road ranges (its Section VII
// extension) on the same workload and road grid. Road ranges are strict
// subsets of the Euclidean disks (road distance dominates straight-line
// distance), so served counts and revenue drop; the study quantifies by
// how much, and shows the COM advantage survives the stricter ranges.
func RunRoadNet(opts RoadNetOptions) (*RoadNetResult, error) {
	o := opts
	o.Grid = o.Grid.withDefaults(1500, 300, 3)
	if o.Detour < 1 {
		o.Detour = 1.25
	}
	cfg, err := workload.Synthetic(o.Requests, o.Workers, o.Radius, "real")
	if err != nil {
		return nil, err
	}
	region := geo.NewRect(geo.Point{}, geo.Point{X: 30, Y: 30}) // the Chengdu-like city extent
	net, err := roadnet.NewGridNetwork(region, roadnet.GridOptions{
		Spacing: 0.5, Detour: o.Detour, Seed: o.Seed,
	})
	if err != nil {
		return nil, err
	}

	res := &RoadNetResult{Opts: o}
	var cells []cell
	for _, alg := range onlineAlgos {
		for _, kind := range []string{"euclidean", "road"} {
			cells = append(cells, cell{label: "roadnet/" + kind + "/" + alg, workload: cfg, alg: alg})
			res.Rows = append(res.Rows, RoadNetRow{Algorithm: alg, RangeKind: kind})
		}
	}
	// Each road unit builds its own coverage cache: the hub probes
	// several pools for the same request and they all reuse one distance
	// field, but the cache itself is not safe to share across runs.
	runs, err := runGrid(o.plan(7907), cells, func(ci int, u unit) (*platform.Result, error) {
		if res.Rows[ci].RangeKind == "road" {
			u.factory = withRangeFilter(u.factory, roadnet.NewCoverage(net, o.Radius).Covers)
		}
		return u.simulate()
	})
	if err != nil {
		return nil, err
	}
	sums, err := summarizeCells(runs)
	if err != nil {
		return nil, err
	}
	for ci, s := range sums {
		row := &res.Rows[ci]
		row.Revenue, row.Served, row.CoR = s.MeanRevenue, s.MeanServed, s.MeanCooperative
	}
	return res, nil
}

// withRangeFilter wraps a factory so every platform's pool applies the
// given range filter on top of the Euclidean index prefilter.
func withRangeFilter(factory platform.MatcherFactory, f online.RangeFilter) platform.MatcherFactory {
	return func(id core.PlatformID, coop online.CoopView, rng *rand.Rand) online.Matcher {
		m := factory(id, coop, rng)
		m.Pool().Filter = f
		return m
	}
}
