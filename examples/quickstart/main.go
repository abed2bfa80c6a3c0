// Quickstart: run the paper's Example 1 (Fig. 3, Tables I-II) through
// TOTA and DemCOM and show how borrowing outer workers lifts revenue —
// the smallest end-to-end use of the public API.
package main

import (
	"context"
	"fmt"
	"log"

	"crossmatch"
)

func main() {
	stream, err := crossmatch.ExampleStream()
	if err != nil {
		log.Fatal(err)
	}
	fmt.Printf("Example 1: %d workers, %d requests on 2 platforms\n",
		len(stream.Workers()), len(stream.Requests()))

	// Single-platform baseline: platform 1 can only use its own workers
	// w1, w2, w4; requests r3 and r5 go unserved.
	tota, err := crossmatch.SimulateContext(context.Background(), stream, crossmatch.TOTA, crossmatch.WithSeed(1))
	if err != nil {
		log.Fatal(err)
	}
	fmt.Printf("TOTA:   revenue %5.1f, served %d/5\n", tota.TotalRevenue(), tota.TotalServed())

	// Cross online matching: platform 1 borrows w3 and w5 from platform
	// 2 at an outer payment. Try a few seeds; the acceptance probes of
	// Algorithm 1 are random, exactly as in the paper.
	best := 0.0
	for seed := int64(0); seed < 10; seed++ {
		dem, err := crossmatch.SimulateContext(context.Background(), stream, crossmatch.DemCOM, crossmatch.WithSeed(seed))
		if err != nil {
			log.Fatal(err)
		}
		if rev := dem.TotalRevenue(); rev > best {
			best = rev
		}
	}
	fmt.Printf("DemCOM: revenue %5.1f (best of 10 seeds)\n", best)

	// The offline optimum (OFF) upper-bounds everything.
	off, err := crossmatch.Offline(stream)
	if err != nil {
		log.Fatal(err)
	}
	fmt.Printf("OFF:    revenue %5.1f, served %d/5 (upper bound)\n",
		off.TotalWeight, off.TotalServed)
}
