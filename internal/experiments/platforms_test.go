package experiments

import (
	"bytes"
	"strings"
	"testing"

	"crossmatch/internal/platform"
	"crossmatch/internal/workload"
)

func TestSyntheticMulti(t *testing.T) {
	cfg, err := workload.SyntheticMulti(3, 900, 90, 1.0, "real")
	if err != nil {
		t.Fatal(err)
	}
	if len(cfg.Platforms) != 3 {
		t.Fatalf("platforms = %d", len(cfg.Platforms))
	}
	total := 0
	for _, p := range cfg.Platforms {
		total += p.Requests
	}
	if total != 900 {
		t.Errorf("total requests = %d", total)
	}
	s, err := workload.Generate(cfg, 3)
	if err != nil {
		t.Fatal(err)
	}
	if got := len(s.Platforms()); got != 3 {
		t.Errorf("stream platforms = %d", got)
	}

	// Validation failures.
	if _, err := workload.SyntheticMulti(1, 100, 10, 1, "real"); err == nil {
		t.Error("single platform accepted")
	}
	if _, err := workload.SyntheticMulti(7, 100, 10, 1, "real"); err == nil {
		t.Error("more platforms than ring hot spots accepted")
	}
	if _, err := workload.SyntheticMulti(3, 100, 10, -1, "real"); err == nil {
		t.Error("negative radius accepted")
	}
	if _, err := workload.SyntheticMulti(3, 100, 10, 1, "weird"); err == nil {
		t.Error("bad distribution accepted")
	}
}

func TestRunPlatformCount(t *testing.T) {
	res, err := RunPlatformCount(PlatformCountOptions{
		Counts: []int{2, 4}, Grid: Grid{Requests: 600, Workers: 120, Repeats: 1, Seed: 5},
	})
	if err != nil {
		t.Fatal(err)
	}
	if len(res.Rows) != 6 { // 2 counts x 3 algorithms
		t.Fatalf("rows = %d", len(res.Rows))
	}
	for _, n := range []int{2, 4} {
		tota, ok := res.Row(n, platform.AlgTOTA)
		if !ok {
			t.Fatalf("missing TOTA row for n=%d", n)
		}
		dem, _ := res.Row(n, platform.AlgDemCOM)
		if dem.Revenue < tota.Revenue-1e-9 {
			t.Errorf("n=%d: DemCOM %v below TOTA %v", n, dem.Revenue, tota.Revenue)
		}
		if n > 2 && dem.CoR <= 0 {
			t.Errorf("n=%d: no cooperation recorded", n)
		}
	}
	var buf bytes.Buffer
	if err := res.Table().Render(&buf); err != nil {
		t.Fatal(err)
	}
	if !strings.Contains(buf.String(), "Platforms") {
		t.Error("table header missing")
	}
}
