package crossmatch_test

import (
	"context"
	"fmt"
	"log"
	"math/rand"

	"crossmatch"
	"crossmatch/internal/geo"
)

// The paper's running Example 1: five requests, five workers, two
// platforms. TOTA is deterministic (greedy nearest inner worker), so
// its outcome is exactly the hand-computed 16.
func ExampleSimulateContext() {
	stream, err := crossmatch.ExampleStream()
	if err != nil {
		log.Fatal(err)
	}
	res, err := crossmatch.SimulateContext(context.Background(), stream,
		crossmatch.TOTA, crossmatch.WithSeed(1))
	if err != nil {
		log.Fatal(err)
	}
	fmt.Printf("revenue %.1f, served %d of %d\n",
		res.TotalRevenue(), res.TotalServed(), len(stream.Requests()))
	// Output: revenue 16.0, served 3 of 5
}

// The offline optimum (OFF) serves all five requests of Example 1 by
// borrowing the two outer workers at their cheapest historical fees.
func ExampleOffline() {
	stream, err := crossmatch.ExampleStream()
	if err != nil {
		log.Fatal(err)
	}
	off, err := crossmatch.Offline(stream)
	if err != nil {
		log.Fatal(err)
	}
	fmt.Printf("optimum %.1f, served %d\n", off.TotalWeight, off.TotalServed)
	// Output: optimum 24.5, served 5
}

// Building a stream by hand: one worker, one request it can serve.
func ExampleNewStream() {
	w := &crossmatch.Worker{ID: 1, Arrival: 1, Radius: 2, Platform: 1}
	r := &crossmatch.Request{ID: 1, Arrival: 5, Value: 12, Platform: 1}
	stream, err := crossmatch.NewStream([]*crossmatch.Worker{w}, []*crossmatch.Request{r})
	if err != nil {
		log.Fatal(err)
	}
	res, err := crossmatch.SimulateContext(context.Background(), stream, crossmatch.TOTA)
	if err != nil {
		log.Fatal(err)
	}
	fmt.Printf("revenue %.0f\n", res.TotalRevenue())
	// Output: revenue 12
}

// Cooperation can be disabled to measure what borrowing is worth: with
// the hub off, DemCOM degrades exactly to the TOTA baseline.
func ExampleSimulateContext_withCoopDisabled() {
	stream, err := crossmatch.ExampleStream()
	if err != nil {
		log.Fatal(err)
	}
	solo, err := crossmatch.SimulateContext(context.Background(), stream,
		crossmatch.DemCOM, crossmatch.WithSeed(1), crossmatch.WithCoopDisabled())
	if err != nil {
		log.Fatal(err)
	}
	fmt.Printf("revenue %.1f, cooperative %d\n", solo.TotalRevenue(), solo.CooperativeServed())
	// Output: revenue 16.0, cooperative 0
}

// A shared Metrics collector tallies matches, rejections, acceptance
// probes and per-platform decision latencies; it is safe to share
// across concurrent simulations.
func ExampleSimulateContext_withMetrics() {
	stream, err := crossmatch.ExampleStream()
	if err != nil {
		log.Fatal(err)
	}
	m := crossmatch.NewMetrics()
	if _, err := crossmatch.SimulateContext(context.Background(), stream,
		crossmatch.TOTA, crossmatch.WithSeed(1), crossmatch.WithMetrics(m)); err != nil {
		log.Fatal(err)
	}
	rep := m.Snapshot()
	fmt.Printf("runs %d, matched %d, rejected %d\n",
		rep.Counters.Runs, rep.Counters.InnerMatches, rep.Counters.Rejections)
	// Output: runs 1, matched 3, rejected 2
}

// Cross online matching on Example 1: platform 1 borrows w3 and w5
// from platform 2 at an outer payment, lifting revenue above TOTA's 16.
// The acceptance probes of Algorithm 1 are random, as in the paper, so
// the best of a few seeds is shown.
func ExampleSimulateContext_demCOM() {
	stream, err := crossmatch.ExampleStream()
	if err != nil {
		log.Fatal(err)
	}
	best := 0.0
	for seed := int64(0); seed < 10; seed++ {
		res, err := crossmatch.SimulateContext(context.Background(), stream,
			crossmatch.DemCOM, crossmatch.WithSeed(seed))
		if err != nil {
			log.Fatal(err)
		}
		best = max(best, res.TotalRevenue())
	}
	fmt.Printf("DemCOM revenue %.1f (best of 10 seeds)\n", best)
	// Output: DemCOM revenue 23.8 (best of 10 seeds)
}

// Ridesharing: two taxi platforms in a Chengdu-like city whose riders
// concentrate where the other platform's drivers do (the paper's Fig. 2
// scenario). The COM algorithms serve the stranded riders by borrowing
// the other platform's idle drivers.
func ExampleGenerateSynthetic() {
	// 4,000 ride requests and 600 drivers over two platforms; drivers
	// re-join the pool about 4 times a day, 1 km pickup radius,
	// log-normal ("real") fares.
	stream, err := crossmatch.GenerateSynthetic(4000, 600, 1.0, "real", 2024)
	if err != nil {
		log.Fatal(err)
	}
	for _, alg := range []string{crossmatch.TOTA, crossmatch.DemCOM, crossmatch.RamCOM} {
		res, err := crossmatch.SimulateContext(context.Background(), stream, alg, crossmatch.WithSeed(7))
		if err != nil {
			log.Fatal(err)
		}
		for _, pid := range stream.Platforms() {
			s := res.Platforms[pid].Stats
			fmt.Printf("%-6s platform %d: revenue %.1f, served %d, borrowed %d\n", alg, pid, s.Revenue, s.Served, s.ServedOuter)
		}
	}
	// Output:
	// TOTA   platform 1: revenue 7717.0, served 439, borrowed 0
	// TOTA   platform 2: revenue 12906.3, served 733, borrowed 0
	// DemCOM platform 1: revenue 9014.7, served 633, borrowed 201
	// DemCOM platform 2: revenue 13527.1, served 866, borrowed 144
	// RamCOM platform 1: revenue 11019.4, served 771, borrowed 353
	// RamCOM platform 2: revenue 16535.6, served 1152, borrowed 457
}

// Food delivery: three platforms with their own turfs, courier radii
// and fee histories share one downtown, the stream built by hand. Every
// platform gets orders its own fleet cannot reach; with cooperation
// disabled DemCOM degrades to TOTA.
func ExampleNewStream_foodDelivery() {
	rng := rand.New(rand.NewSource(99))
	var workers []*crossmatch.Worker
	var requests []*crossmatch.Request
	// Each courier appears twice over the lunch rush (ticks 0..4000):
	// platform 1 in the west, 2 in the east, 3 city-wide with a large
	// radius and higher historic fees.
	nextID := int64(1)
	fleet := func(p crossmatch.PlatformID, n int, rad, histLo, histHi, xLo, xHi float64) {
		for i := 0; i < n; i++ {
			hist := make([]float64, 15)
			for k := range hist {
				hist[k] = histLo + rng.Float64()*(histHi-histLo)
			}
			for appearance := 0; appearance < 2; appearance++ {
				workers = append(workers, &crossmatch.Worker{
					ID: nextID, Arrival: crossmatch.Time(rng.Int63n(4000)),
					Loc:    geo.Point{X: xLo + rng.Float64()*(xHi-xLo), Y: rng.Float64() * 8},
					Radius: rad, Platform: p, History: hist,
				})
				nextID++
			}
		}
	}
	fleet(1, 60, 0.9, 4, 12, 0, 4)
	fleet(2, 40, 1.2, 5, 15, 4, 8)
	fleet(3, 20, 2.2, 8, 20, 0, 8)
	for i := 0; i < 400; i++ {
		requests = append(requests, &crossmatch.Request{
			ID: int64(i + 1), Arrival: crossmatch.Time(rng.Int63n(4000)),
			Loc:   geo.Point{X: rng.Float64() * 8, Y: rng.Float64() * 8},
			Value: 6 + rng.Float64()*24, Platform: crossmatch.PlatformID(1 + rng.Intn(3)),
		})
	}
	stream, err := crossmatch.NewStream(workers, requests)
	if err != nil {
		log.Fatal(err)
	}
	run := func(name, alg string, opts ...crossmatch.Option) {
		res, err := crossmatch.SimulateContext(context.Background(), stream, alg,
			append(opts, crossmatch.WithSeed(5))...)
		if err != nil {
			log.Fatal(err)
		}
		fmt.Printf("%-6s revenue %.1f, served %d, borrowed %d\n",
			name, res.TotalRevenue(), res.TotalServed(), res.CooperativeServed())
	}
	run(crossmatch.TOTA, crossmatch.TOTA)
	run(crossmatch.DemCOM, crossmatch.DemCOM)
	run(crossmatch.RamCOM, crossmatch.RamCOM)
	run("solo", crossmatch.DemCOM, crossmatch.WithCoopDisabled())
	// Output:
	// TOTA   revenue 2587.5, served 147, borrowed 0
	// DemCOM revenue 2597.3, served 177, borrowed 57
	// RamCOM revenue 2620.1, served 206, borrowed 122
	// solo   revenue 2587.5, served 147, borrowed 0
}
