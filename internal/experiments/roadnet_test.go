package experiments

import (
	"bytes"
	"strings"
	"testing"

	"crossmatch/internal/platform"
)

func TestRunRoadNet(t *testing.T) {
	res, err := RunRoadNet(RoadNetOptions{Grid: Grid{Requests: 300, Workers: 60, Repeats: 1, Seed: 13}})
	if err != nil {
		t.Fatal(err)
	}
	if len(res.Rows) != 6 { // 3 algorithms x 2 range models
		t.Fatalf("rows = %d, want 6", len(res.Rows))
	}
	for _, alg := range []string{platform.AlgTOTA, platform.AlgDemCOM, platform.AlgRamCOM} {
		euc, ok1 := res.Row(alg, "euclidean")
		road, ok2 := res.Row(alg, "road")
		if !ok1 || !ok2 {
			t.Fatalf("missing rows for %s", alg)
		}
		// Road ranges are strict subsets of Euclidean disks: the served
		// count can only drop (revenue usually too, but randomized
		// matching makes that not a hard invariant at small scale).
		if road.Served > euc.Served {
			t.Errorf("%s: road served %v exceeds euclidean %v", alg, road.Served, euc.Served)
		}
	}
	// The COM advantage survives road ranges.
	tota, _ := res.Row(platform.AlgTOTA, "road")
	dem, _ := res.Row(platform.AlgDemCOM, "road")
	if dem.Revenue < tota.Revenue-1e-9 {
		t.Errorf("road DemCOM %v below road TOTA %v", dem.Revenue, tota.Revenue)
	}
	var buf bytes.Buffer
	if err := res.Table().Render(&buf); err != nil {
		t.Fatal(err)
	}
	if !strings.Contains(buf.String(), "road") || !strings.Contains(buf.String(), "euclidean") {
		t.Error("table missing range kinds")
	}
}
