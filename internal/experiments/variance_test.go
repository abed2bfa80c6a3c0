package experiments

import (
	"bytes"
	"strings"
	"testing"

	"crossmatch/internal/platform"
)

func TestRunVariance(t *testing.T) {
	res, err := RunVariance(Grid{Requests: 400, Workers: 80, Repeats: 5, Seed: 3})
	if err != nil {
		t.Fatal(err)
	}
	if len(res.Rows) != 3 {
		t.Fatalf("rows = %d", len(res.Rows))
	}
	byName := map[string]VarianceRow{}
	for _, r := range res.Rows {
		byName[r.Algorithm] = r
	}
	// TOTA is deterministic on a fixed stream: zero spread.
	tota := byName[platform.AlgTOTA]
	if tota.Summary.RevenueStdDevFrac != 0 {
		t.Errorf("TOTA spread = %v, want 0", tota.Summary.RevenueStdDevFrac)
	}
	if tota.Summary.MinRevenue != tota.Summary.MaxRevenue {
		t.Errorf("TOTA min %v != max %v", tota.Summary.MinRevenue, tota.Summary.MaxRevenue)
	}
	// RamCOM's threshold draw makes it the noisiest of the three.
	ram := byName[platform.AlgRamCOM]
	dem := byName[platform.AlgDemCOM]
	if ram.Summary.RevenueStdDevFrac < dem.Summary.RevenueStdDevFrac {
		t.Logf("note: RamCOM spread %v below DemCOM %v on this instance (possible on small workloads)",
			ram.Summary.RevenueStdDevFrac, dem.Summary.RevenueStdDevFrac)
	}
	if ram.Summary.RevenueStdDevFrac <= 0 {
		t.Errorf("RamCOM spread = %v, want > 0", ram.Summary.RevenueStdDevFrac)
	}
	var buf bytes.Buffer
	if err := res.Table().Render(&buf); err != nil {
		t.Fatal(err)
	}
	if !strings.Contains(buf.String(), "StdDev/Mean") {
		t.Error("table missing spread column")
	}
}
