package platform

import (
	"testing"

	"crossmatch/internal/core"
	"crossmatch/internal/pricing"
	"crossmatch/internal/workload"
)

// TestLentAccounting checks the cooperation ledger: the number of
// workers a platform lends equals the number of outer services the other
// platforms book from it (two-platform case: lent(1) == servedOuter(2)).
func TestLentAccounting(t *testing.T) {
	cfg, err := workload.Synthetic(800, 160, 1.0, "real")
	if err != nil {
		t.Fatal(err)
	}
	stream, err := workload.Generate(cfg, 9)
	if err != nil {
		t.Fatal(err)
	}
	run, err := Run(stream, DemCOMFactory(pricing.DefaultMonteCarlo, false), Config{Seed: 2})
	if err != nil {
		t.Fatal(err)
	}
	if run.Lent == nil {
		t.Fatal("lending ledger missing")
	}
	if got, want := run.Lent[1], run.Platforms[2].Stats.ServedOuter; got != want {
		t.Errorf("platform 1 lent %d != platform 2 served-outer %d", got, want)
	}
	if got, want := run.Lent[2], run.Platforms[1].Stats.ServedOuter; got != want {
		t.Errorf("platform 2 lent %d != platform 1 served-outer %d", got, want)
	}
	totalLent := run.Lent[1] + run.Lent[2]
	if totalLent != run.CooperativeServed() {
		t.Errorf("total lent %d != cooperative served %d", totalLent, run.CooperativeServed())
	}
}

// TestCooperationIsWinWin verifies the paper's headline claim at the
// per-platform level: with both platforms running a COM algorithm on
// the complementary city, EACH platform's revenue is at least its TOTA
// revenue (averaged over seeds — single runs can dip within noise).
func TestCooperationIsWinWin(t *testing.T) {
	cfg, err := workload.Synthetic(2000, 400, 1.0, "real")
	if err != nil {
		t.Fatal(err)
	}
	const seeds = 5
	totaRev := map[int]float64{}
	demRev := map[int]float64{}
	for s := int64(0); s < seeds; s++ {
		stream, err := workload.Generate(cfg, 100+s)
		if err != nil {
			t.Fatal(err)
		}
		tota, err := Run(stream, totaFactory(), Config{Seed: s})
		if err != nil {
			t.Fatal(err)
		}
		dem, err := Run(stream, DemCOMFactory(pricing.DefaultMonteCarlo, false), Config{Seed: s})
		if err != nil {
			t.Fatal(err)
		}
		for pid := 1; pid <= 2; pid++ {
			totaRev[pid] += tota.Platforms[core.PlatformID(pid)].Stats.Revenue
			demRev[pid] += dem.Platforms[core.PlatformID(pid)].Stats.Revenue
		}
	}
	for pid := 1; pid <= 2; pid++ {
		if demRev[pid] < totaRev[pid] {
			t.Errorf("platform %d: DemCOM %.1f below TOTA %.1f — cooperation not win-win",
				pid, demRev[pid]/seeds, totaRev[pid]/seeds)
		}
	}
}
