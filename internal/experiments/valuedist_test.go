package experiments

import (
	"bytes"
	"strings"
	"testing"

	"crossmatch/internal/platform"
)

func TestRunValueDist(t *testing.T) {
	res, err := RunValueDist(Grid{Requests: 500, Workers: 100, Repeats: 1, Seed: 17})
	if err != nil {
		t.Fatal(err)
	}
	if len(res.Rows) != 6 { // 3 algorithms x 2 distributions
		t.Fatalf("rows = %d, want 6", len(res.Rows))
	}
	// The paper's ordering must be distribution-stable: COM >= TOTA
	// under both distributions.
	for _, dist := range []string{"real", "normal"} {
		tota, ok := res.Row(platform.AlgTOTA, dist)
		if !ok {
			t.Fatalf("missing TOTA/%s", dist)
		}
		dem, _ := res.Row(platform.AlgDemCOM, dist)
		if dem.Revenue < tota.Revenue-1e-9 {
			t.Errorf("%s: DemCOM %v below TOTA %v", dist, dem.Revenue, tota.Revenue)
		}
		if dem.PayRate <= 0 || dem.PayRate > 1 {
			t.Errorf("%s: DemCOM payment rate %v out of range", dist, dem.PayRate)
		}
	}
	var buf bytes.Buffer
	if err := res.Table().Render(&buf); err != nil {
		t.Fatal(err)
	}
	if !strings.Contains(buf.String(), "normal") || !strings.Contains(buf.String(), "real") {
		t.Error("table missing distributions")
	}
	if _, ok := res.Row("nope", "real"); ok {
		t.Error("unknown row found")
	}
}
