package platform

import (
	"math/rand"
	"testing"

	"crossmatch/internal/core"
	"crossmatch/internal/pricing"
	"crossmatch/internal/workload"
)

// TestSimulationInvariantsUnderRandomConfigs sweeps randomized workload
// shapes through every algorithm and checks the engine-level invariants
// that must hold regardless of configuration:
//
//   - every matching validates (all Definition 2.6 constraints),
//   - stats are internally consistent,
//   - no online algorithm exceeds the offline optimum,
//   - cooperative counts are zero when cooperation is disabled.
func TestSimulationInvariantsUnderRandomConfigs(t *testing.T) {
	rng := rand.New(rand.NewSource(20240706))
	for trial := 0; trial < 12; trial++ {
		requests := 50 + rng.Intn(400)
		workers := 10 + rng.Intn(80)
		radius := 0.4 + rng.Float64()*2
		dist := "real"
		if rng.Intn(2) == 0 {
			dist = "normal"
		}
		cfg, err := workload.Synthetic(requests, workers, radius, dist)
		if err != nil {
			t.Fatal(err)
		}
		// Occasionally mutate the config into odd shapes: lopsided
		// platforms, tiny histories, many appearances.
		switch trial % 4 {
		case 1:
			cfg.Platforms[0].Requests = 0 // platform with no demand
		case 2:
			cfg.Platforms[1].Workers = 0 // platform with no supply
		case 3:
			cfg.Platforms[0].HistoryMin = 1
			cfg.Platforms[0].HistoryMax = 2
			cfg.Platforms[0].Appearances = 9
		}
		stream, err := workload.Generate(cfg, int64(trial)*31+7)
		if err != nil {
			t.Fatal(err)
		}
		off, err := Offline(stream)
		if err != nil {
			t.Fatal(err)
		}

		maxV := cfg.MaxValue()
		factories := map[string]MatcherFactory{
			AlgTOTA:     totaFactory(),
			AlgGreedyRT: greedyRTFactory(maxV),
			AlgDemCOM:   DemCOMFactory(pricing.DefaultMonteCarlo, false),
			AlgRamCOM:   RamCOMFactory(maxV, RamCOMOptions{}),
		}
		for name, f := range factories {
			for _, disable := range []bool{false, true} {
				run, err := Run(stream, f, Config{Seed: int64(trial), DisableCoop: disable})
				if err != nil {
					t.Fatalf("trial %d %s: %v", trial, name, err)
				}
				if err := run.Validate(); err != nil {
					t.Fatalf("trial %d %s: %v", trial, name, err)
				}
				if run.TotalRevenue() > off.TotalWeight+1e-6 {
					t.Fatalf("trial %d %s: online %v beats OFF %v",
						trial, name, run.TotalRevenue(), off.TotalWeight)
				}
				if disable && run.CooperativeServed() != 0 {
					t.Fatalf("trial %d %s: cooperation with hub disabled", trial, name)
				}
				for pid, pr := range run.Platforms {
					s := pr.Stats
					if s.Served != s.ServedInner+s.ServedOuter {
						t.Fatalf("trial %d %s p%d: served split inconsistent: %+v", trial, name, pid, s)
					}
					if s.ServedOuter > s.CoopAttempted {
						t.Fatalf("trial %d %s p%d: outer > attempted: %+v", trial, name, pid, s)
					}
					if s.Revenue < 0 {
						t.Fatalf("trial %d %s p%d: negative revenue", trial, name, pid)
					}
					if pr.Matching.Len() != s.Served {
						t.Fatalf("trial %d %s p%d: matching len %d != served %d",
							trial, name, pid, pr.Matching.Len(), s.Served)
					}
				}
			}
		}
	}
}

// TestRecyclingNeverBreaksInvariants stresses the ServiceTicks engine
// extension: recycled workers must produce valid matchings and strictly
// more (or equal) service than one-shot workers.
func TestRecyclingNeverBreaksInvariants(t *testing.T) {
	cfg, err := workload.Synthetic(400, 40, 1.0, "real")
	if err != nil {
		t.Fatal(err)
	}
	stream, err := workload.Generate(cfg, 5)
	if err != nil {
		t.Fatal(err)
	}
	plain, err := Run(stream, totaFactory(), Config{Seed: 1})
	if err != nil {
		t.Fatal(err)
	}
	for _, ticks := range []core.Time{1, 50, 5000} {
		rec, err := Run(stream, totaFactory(), Config{Seed: 1, ServiceTicks: ticks})
		if err != nil {
			t.Fatal(err)
		}
		if err := rec.Validate(); err != nil {
			t.Fatalf("ticks %d: %v", ticks, err)
		}
		if rec.TotalServed() < plain.TotalServed() {
			t.Fatalf("ticks %d: recycling served %d < one-shot %d",
				ticks, rec.TotalServed(), plain.TotalServed())
		}
	}
}
