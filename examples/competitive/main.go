// Competitive: measure empirical random-order competitive ratios
// (Definition 2.8) of the online algorithms against the exact offline
// optimum on small instances — the study behind Theorems 1 and 2
// (DemCOM matches greedy's CR; RamCOM is guaranteed 1/(8e) ~ 0.046 in
// the worst case but does far better on typical inputs).
package main

import (
	"context"
	"fmt"
	"log"

	"crossmatch"
)

func main() {
	const (
		instances = 8
		orders    = 5
	)
	algs := []string{crossmatch.TOTA, crossmatch.GreedyRT, crossmatch.DemCOM, crossmatch.RamCOM}
	minRatio := map[string]float64{}
	sumRatio := map[string]float64{}
	for _, a := range algs {
		minRatio[a] = 1
	}

	for inst := 0; inst < instances; inst++ {
		// A fresh small instance: 150 requests, 40 workers.
		for ord := 0; ord < orders; ord++ {
			seed := int64(inst*1000 + ord)
			stream, err := crossmatch.GenerateSynthetic(150, 40, 1.5, "real", seed)
			if err != nil {
				log.Fatal(err)
			}
			off, err := crossmatch.Offline(stream)
			if err != nil {
				log.Fatal(err)
			}
			if off.TotalWeight <= 0 {
				continue
			}
			for _, a := range algs {
				run, err := crossmatch.SimulateContext(context.Background(), stream, a, crossmatch.WithSeed(seed))
				if err != nil {
					log.Fatal(err)
				}
				ratio := run.TotalRevenue() / off.TotalWeight
				sumRatio[a] += ratio / float64(instances*orders)
				if ratio < minRatio[a] {
					minRatio[a] = ratio
				}
			}
		}
	}

	fmt.Printf("%-10s %12s %12s\n", "Method", "min ALG/OPT", "mean ALG/OPT")
	for _, a := range algs {
		fmt.Printf("%-10s %12.3f %12.3f\n", a, minRatio[a], sumRatio[a])
	}
	fmt.Println("\nRamCOM's proven floor is 1/(8e) ~ 0.046; the measured ratios sit far")
	fmt.Println("above it because the adversarial order arises with probability ~1/k!")
	fmt.Println("(Section II-B of the paper).")
}
