package main

import (
	"fmt"
	"hash/fnv"
	"math"
	"sort"

	"crossmatch/internal/core"
	"crossmatch/internal/geo"
	"crossmatch/internal/platform"
	"crossmatch/internal/workload"
)

// streamSpec names one generated input. Streams come from
// internal/workload only; the seed is the benchmark's -seed, so the
// program under test only ever sees the generated events.
type streamSpec struct {
	name string
	cfg  func() (workload.Config, error)
}

// denseStream is the Table IV synthetic city at |R| requests and |W|
// physical workers (4 appearances each): Chengdu-like hot spots, many
// candidates per request, so cooperative pricing does most of the work.
func denseStream(name string, requests, workers int) streamSpec {
	return streamSpec{name: name, cfg: func() (workload.Config, error) {
		return workload.Synthetic(requests, workers, 1.0, "real")
	}}
}

// cityStream is the EXPERIMENTS.md "Geo-shard scaling" city rebuilt
// from public workload types: fixed density 50 workers/km², 9 requests
// per worker, radius 1 km, uniform over a square that grows with the
// worker count. Events = 10 × workers.
func cityStream(name string, workers int) streamSpec {
	const (
		density    = 50.0
		reqPerWork = 9
		radius     = 1.0
	)
	return streamSpec{name: name, cfg: func() (workload.Config, error) {
		side := math.Sqrt(float64(workers) / density)
		if side < 2*radius {
			side = 2 * radius
		}
		sq := workload.NewUniformSquare(side)
		requests := workers * reqPerWork
		mk := func(id, w, r int) workload.PlatformSpec {
			return workload.PlatformSpec{
				ID: core.PlatformID(id), Requests: r, Workers: w, Radius: radius,
				RequestSpatial: sq, Values: workload.DefaultRealValues(),
			}
		}
		return workload.Config{Platforms: []workload.PlatformSpec{
			mk(1, workers/2, requests/2),
			mk(2, workers-workers/2, requests-requests/2),
		}}, nil
	}}
}

func (s streamSpec) generate(seed int64) (*core.Stream, error) {
	cfg, err := s.cfg()
	if err != nil {
		return nil, fmt.Errorf("stream %s: %w", s.name, err)
	}
	st, err := workload.Generate(cfg, seed)
	if err != nil {
		return nil, fmt.Errorf("stream %s: %w", s.name, err)
	}
	return st, nil
}

// factoryFor builds the matcher factory the way every driver in the
// repo does: the stream's max value is the a-priori bound the threshold
// algorithms assume.
func factoryFor(alg string, stream *core.Stream) (platform.MatcherFactory, error) {
	return platform.FactoryConfigured(alg, platform.AlgConfig{MaxValue: stream.MaxValue()})
}

// digest is the equality every path must reproduce: offline Run ≡
// incremental Engine ≡ serve replay ≡ WAL-recovered (≡ per-shard fleet
// oracle). Counts and the revenue bit pattern come from the per-platform
// Stats in ascending platform order; Assign hashes every (request,
// worker, payment bits) triple in assignment order, so two runs that
// differ in a single assignment differ here even if revenue happens to
// tie.
type digest struct {
	Requests    int64
	Matched     int64
	Outer       int64
	RevenueBits uint64
	Assign      uint64
}

func (d digest) String() string {
	return fmt.Sprintf("requests=%d matched=%d outer=%d revenue=%016x assign=%016x",
		d.Requests, d.Matched, d.Outer, d.RevenueBits, d.Assign)
}

func digestOf(res *platform.Result) digest {
	pids := make([]core.PlatformID, 0, len(res.Platforms))
	for pid := range res.Platforms {
		pids = append(pids, pid)
	}
	sort.Slice(pids, func(i, j int) bool { return pids[i] < pids[j] })
	var d digest
	revenue := 0.0
	h := fnv.New64a()
	var buf [24]byte
	put := func(off int, v uint64) {
		for i := 0; i < 8; i++ {
			buf[off+i] = byte(v >> (8 * i))
		}
	}
	for _, pid := range pids {
		p := res.Platforms[pid]
		d.Requests += int64(p.Stats.Requests)
		d.Matched += int64(p.Stats.Served)
		d.Outer += int64(p.Stats.ServedOuter)
		revenue += p.Stats.Revenue
		for _, a := range p.Matching.Assignments() {
			put(0, uint64(a.Request.ID))
			put(8, uint64(a.Worker.ID))
			put(16, math.Float64bits(a.Payment))
			h.Write(buf[:])
		}
	}
	d.RevenueBits = math.Float64bits(revenue)
	d.Assign = h.Sum64()
	return d
}

// expectation is the per-request view of the offline reference that a
// client checks wire decisions against: which worker served each
// request and at what payment.
type assignment struct {
	worker  int64
	payment uint64 // IEEE-754 bits
}

func expectationOf(res *platform.Result) map[int64]assignment {
	out := make(map[int64]assignment)
	for _, p := range res.Platforms {
		for _, a := range p.Matching.Assignments() {
			out[a.Request.ID] = assignment{worker: a.Worker.ID, payment: math.Float64bits(a.Payment)}
		}
	}
	return out
}

// reference runs the offline oracle, platform.Run, over the stream.
func reference(stream *core.Stream, alg string, seed int64) (*platform.Result, error) {
	factory, err := factoryFor(alg, stream)
	if err != nil {
		return nil, err
	}
	res, err := platform.Run(stream, factory, platform.Config{Seed: seed})
	if err != nil {
		return nil, fmt.Errorf("offline reference: %w", err)
	}
	return res, nil
}

// eventID and eventLoc read the identity and location of an arrival of
// either kind.
func eventID(ev core.Event) int64 {
	if ev.Kind == core.WorkerArrival {
		return ev.Worker.ID
	}
	return ev.Request.ID
}

func eventLoc(ev core.Event) geo.Point {
	if ev.Kind == core.WorkerArrival {
		return ev.Worker.Loc
	}
	return ev.Request.Loc
}

// countKinds returns the number of request and worker events.
func countKinds(events []core.Event) (requests, workers int) {
	for _, ev := range events {
		if ev.Kind == core.RequestArrival {
			requests++
		} else {
			workers++
		}
	}
	return requests, workers
}
