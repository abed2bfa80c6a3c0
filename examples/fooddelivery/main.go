// Food delivery: three competing delivery platforms with different
// courier service radii share one downtown. Builds the stream by hand
// with the public API (no generator), demonstrating multi-platform
// cooperation where couriers' acceptance histories differ per platform.
package main

import (
	"context"
	"fmt"
	"log"
	"math/rand"

	"crossmatch"
	"crossmatch/internal/geo"
)

const (
	meituanLike crossmatch.PlatformID = 1 // dense fleet, small radius
	eleLike     crossmatch.PlatformID = 2 // mid fleet
	baiduLike   crossmatch.PlatformID = 3 // sparse fleet, large radius
)

func main() {
	rng := rand.New(rand.NewSource(99))
	var workers []*crossmatch.Worker
	var requests []*crossmatch.Request

	// Couriers: each platform's fleet concentrates in its home turf —
	// platform 1 in the west, platform 2 in the east, platform 3 spread
	// thin across the whole city with a large radius. Each courier
	// appears twice over the lunch rush (ticks 0..4000). Historic
	// delivery fees run 4-12 for p1, 5-15 for p2, 8-20 for p3.
	nextID := int64(1)
	addFleet := func(p crossmatch.PlatformID, n int, rad, histLo, histHi, xLo, xHi float64) {
		for i := 0; i < n; i++ {
			hist := make([]float64, 15)
			for k := range hist {
				hist[k] = histLo + rng.Float64()*(histHi-histLo)
			}
			for appearance := 0; appearance < 2; appearance++ {
				workers = append(workers, &crossmatch.Worker{
					ID:       nextID,
					Arrival:  crossmatch.Time(rng.Int63n(4000)),
					Loc:      geo.Point{X: xLo + rng.Float64()*(xHi-xLo), Y: rng.Float64() * 8},
					Radius:   rad,
					Platform: p,
					History:  hist,
				})
				nextID++
			}
		}
	}
	addFleet(meituanLike, 60, 0.9, 4, 12, 0, 4) // west turf
	addFleet(eleLike, 40, 1.2, 5, 15, 4, 8)     // east turf
	addFleet(baiduLike, 20, 2.2, 8, 20, 0, 8)   // city-wide

	// Orders: 400 spread over the whole city — every platform gets
	// orders from both halves, so each constantly faces requests its
	// own fleet cannot reach (the Fig. 2 scenario of the paper).
	for i := 0; i < 400; i++ {
		requests = append(requests, &crossmatch.Request{
			ID:       int64(i + 1),
			Arrival:  crossmatch.Time(rng.Int63n(4000)),
			Loc:      geo.Point{X: rng.Float64() * 8, Y: rng.Float64() * 8},
			Value:    6 + rng.Float64()*24,
			Platform: crossmatch.PlatformID(1 + rng.Intn(3)),
		})
	}

	stream, err := crossmatch.NewStream(workers, requests)
	if err != nil {
		log.Fatal(err)
	}
	fmt.Printf("Lunch rush: %d orders, %d courier pool-joins, 3 platforms\n\n",
		len(stream.Requests()), len(stream.Workers()))

	for _, alg := range []string{crossmatch.TOTA, crossmatch.DemCOM, crossmatch.RamCOM} {
		res, err := crossmatch.SimulateContext(context.Background(), stream, alg, crossmatch.WithSeed(5))
		if err != nil {
			log.Fatal(err)
		}
		fmt.Printf("%-7s total %8.1f  served %3d  borrowed couriers %3d\n",
			alg, res.TotalRevenue(), res.TotalServed(), res.CooperativeServed())
	}

	// With cooperation disabled every platform is on its own.
	solo, err := crossmatch.SimulateContext(context.Background(), stream, crossmatch.DemCOM,
		crossmatch.WithSeed(5), crossmatch.WithCoopDisabled())
	if err != nil {
		log.Fatal(err)
	}
	fmt.Printf("\nDemCOM with cooperation disabled: %.1f (degrades to TOTA)\n", solo.TotalRevenue())
}
