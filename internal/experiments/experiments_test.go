package experiments

import (
	"bytes"
	"strings"
	"testing"

	"crossmatch/internal/core"
	"crossmatch/internal/geo"
	"crossmatch/internal/platform"
	"crossmatch/internal/workload"
)

// smallTable runs Table V at a tiny scale; shared by several tests.
func smallTable(t *testing.T) *TableResult {
	t.Helper()
	preset, err := workload.PresetFor("RDC10+RYC10")
	if err != nil {
		t.Fatal(err)
	}
	res, err := RunTable(preset, TableOptions{Scale: 0.004, Seed: 11})
	if err != nil {
		t.Fatal(err)
	}
	return res
}

func TestRunTableShape(t *testing.T) {
	res := smallTable(t)
	if len(res.Rows) != 4 {
		t.Fatalf("rows = %d, want 4 (OFF, TOTA, DemCOM, RamCOM)", len(res.Rows))
	}
	wantOrder := []string{platform.AlgOFF, platform.AlgTOTA, platform.AlgDemCOM, platform.AlgRamCOM}
	for i, w := range wantOrder {
		if res.Rows[i].Method != w {
			t.Errorf("row %d = %q, want %q", i, res.Rows[i].Method, w)
		}
	}
	for _, r := range res.Rows {
		if r.RevD < 0 || r.RevY < 0 || r.CpRD < 0 || r.CpRY < 0 {
			t.Errorf("%s: negative metrics: %+v", r.Method, r)
		}
		if r.MemoryMB <= 0 {
			t.Errorf("%s: memory not captured", r.Method)
		}
	}
}

// The paper's headline ordering: OFF >= RamCOM, DemCOM, TOTA and
// COM algorithms >= TOTA on both revenue and completed requests.
func TestRunTablePaperOrdering(t *testing.T) {
	res := smallTable(t)
	off, _ := res.Row(platform.AlgOFF)
	tota, _ := res.Row(platform.AlgTOTA)
	dem, _ := res.Row(platform.AlgDemCOM)
	ram, _ := res.Row(platform.AlgRamCOM)

	offRev := off.RevD + off.RevY
	for _, r := range []TableRow{tota, dem, ram} {
		if r.RevD+r.RevY > offRev+1e-6 {
			t.Errorf("%s revenue %v exceeds OFF %v", r.Method, r.RevD+r.RevY, offRev)
		}
	}
	if dem.RevD+dem.RevY < tota.RevD+tota.RevY-1e-9 {
		t.Errorf("DemCOM revenue %v below TOTA %v", dem.RevD+dem.RevY, tota.RevD+tota.RevY)
	}
	if dem.CpRD+dem.CpRY < tota.CpRD+tota.CpRY {
		t.Errorf("DemCOM served %d below TOTA %d", dem.CpRD+dem.CpRY, tota.CpRD+tota.CpRY)
	}
	// Cooperative metrics: only COM rows carry them.
	if tota.HasCoop || off.HasCoop {
		t.Error("OFF/TOTA must not report cooperative metrics")
	}
	if !dem.HasCoop || !ram.HasCoop {
		t.Error("COM rows must report cooperative metrics")
	}
	if dem.CoR > 0 && (dem.PayRate <= 0 || dem.PayRate > 1) {
		t.Errorf("DemCOM payment rate %v outside (0,1]", dem.PayRate)
	}
}

func TestTableRender(t *testing.T) {
	res := smallTable(t)
	var buf bytes.Buffer
	if err := res.Table().Render(&buf); err != nil {
		t.Fatal(err)
	}
	out := buf.String()
	for _, want := range []string{"RDC10+RYC10", "Methods", "Rev_D", "OFF", "TOTA", "DemCOM", "RamCOM", "AcpRt"} {
		if !strings.Contains(out, want) {
			t.Errorf("table output missing %q:\n%s", want, out)
		}
	}
}

func TestRunTableSkipOFF(t *testing.T) {
	preset, err := workload.PresetFor("RDX11+RYX11")
	if err != nil {
		t.Fatal(err)
	}
	res, err := RunTable(preset, TableOptions{Scale: 0.004, Seed: 3, SkipOFF: true})
	if err != nil {
		t.Fatal(err)
	}
	if len(res.Rows) != 3 {
		t.Fatalf("rows = %d, want 3", len(res.Rows))
	}
	if _, ok := res.Row(platform.AlgOFF); ok {
		t.Error("OFF row present despite SkipOFF")
	}
}

// TestRunTableKeepsRowsPastOFFBound: a table whose stream OFF refuses
// (TestOfflineRefusesPastWorkBound's: n isolated workers and requests
// and one k × k cluster, min(|W|,|R|) × |E| past the bound) reads OFF
// as refused and still fills the three online rows.
func TestRunTableKeepsRowsPastOFFBound(t *testing.T) {
	const n, k = 100_000, 710
	events := make([]core.Event, 0, 2*(n+k))
	for i := range n + k {
		wLoc, rLoc, radius := geo.Point{X: -1000}, geo.Point{X: 1000}, 0.1
		if i < k {
			wLoc, rLoc, radius = geo.Point{}, geo.Point{}, 1
		}
		events = append(events,
			core.Event{Time: 0, Kind: core.WorkerArrival, Worker: &core.Worker{
				ID: int64(i), Loc: wLoc, Radius: radius, Platform: 1, History: []float64{1}}},
			core.Event{Time: 1, Kind: core.RequestArrival, Request: &core.Request{
				ID: int64(i), Arrival: 1, Loc: rLoc, Value: 1, Platform: 1}},
		)
	}
	stream, err := core.NewStream(events)
	if err != nil {
		t.Fatal(err)
	}
	preset, err := workload.PresetFor("RDC10+RYC10")
	if err != nil {
		t.Fatal(err)
	}
	cfg, err := preset.Config(0.004)
	if err != nil {
		t.Fatal(err)
	}
	res, err := runTable("bound", cfg, stream, TableOptions{Scale: 1, Seed: 1, Repeats: 1})
	if err != nil {
		t.Fatalf("the table failed with OFF past its bound: %v", err)
	}
	if off, ok := res.Row(platform.AlgOFF); !ok || !off.Refused {
		t.Errorf("OFF row %+v, want it refused", off)
	}
	for _, alg := range []string{platform.AlgTOTA, platform.AlgDemCOM, platform.AlgRamCOM} {
		if r, ok := res.Row(alg); !ok || r.Refused || r.CpRD != k {
			t.Errorf("%s row %+v, want the %d cluster requests served", alg, r, k)
		}
	}
	var buf bytes.Buffer
	if err := res.Table().Render(&buf); err != nil {
		t.Fatal(err)
	}
	if !strings.Contains(buf.String(), "refused") {
		t.Errorf("the rendered table does not read refused:\n%s", buf.String())
	}
}

func TestRunSweepRequests(t *testing.T) {
	res, err := RunSweep(AxisRequests, SweepOptions{Seed: 5, ScaleCap: 2500})
	if err != nil {
		t.Fatal(err)
	}
	if len(res.Xs) != 3 { // 500, 1000, 2500
		t.Fatalf("xs = %v, want 3 points", res.Xs)
	}
	for _, algo := range res.Algos {
		pts := res.Points[algo]
		if len(pts) != len(res.Xs) {
			t.Fatalf("%s has %d points, want %d", algo, len(pts), len(res.Xs))
		}
		// Revenue grows with |R| for every algorithm (Fig. 5a).
		for i := 1; i < len(pts); i++ {
			if pts[i].Revenue < pts[i-1].Revenue {
				t.Errorf("%s revenue not increasing in |R|: %v -> %v", algo, pts[i-1].Revenue, pts[i].Revenue)
			}
		}
	}
	// COM beats TOTA at the largest |R| (workers scarce).
	last := len(res.Xs) - 1
	tota, _ := res.Get(platform.AlgTOTA, last)
	dem, _ := res.Get(platform.AlgDemCOM, last)
	ram, _ := res.Get(platform.AlgRamCOM, last)
	if dem.Revenue < tota.Revenue {
		t.Errorf("DemCOM %v below TOTA %v at |R|=2500", dem.Revenue, tota.Revenue)
	}
	if ram.Revenue < tota.Revenue {
		t.Errorf("RamCOM %v below TOTA %v at |R|=2500", ram.Revenue, tota.Revenue)
	}
	rev, respS, mem, acc := res.Series()
	for _, s := range []interface{ Lines() []string }{rev, respS, mem, acc} {
		if len(s.Lines()) == 0 {
			t.Error("empty series line set")
		}
	}
	// TOTA has no acceptance-ratio line (Fig. 5d omits it).
	for _, name := range acc.Lines() {
		if name == platform.AlgTOTA {
			t.Error("TOTA should not appear in the acceptance series")
		}
	}
}

func TestRunSweepRadius(t *testing.T) {
	res, err := RunSweep(AxisRadius, SweepOptions{Seed: 6, ScaleCap: 1.5})
	if err != nil {
		t.Fatal(err)
	}
	if len(res.Xs) != 3 { // 0.5, 1.0, 1.5
		t.Fatalf("xs = %v", res.Xs)
	}
	// Revenue grows (weakly) with rad for the COM algorithms (Fig. 5i):
	// more coverage means more serviceable requests. Allow small noise.
	for _, algo := range []string{platform.AlgDemCOM, platform.AlgRamCOM} {
		first, _ := res.Get(algo, 0)
		lastP, _ := res.Get(algo, len(res.Xs)-1)
		if lastP.Revenue < first.Revenue*0.95 {
			t.Errorf("%s revenue dropped with radius: %v -> %v", algo, first.Revenue, lastP.Revenue)
		}
	}
}

func TestRunSweepValidation(t *testing.T) {
	if _, err := RunSweep("bogus", SweepOptions{}); err == nil {
		t.Error("unknown axis accepted")
	}
	if _, err := RunSweep(AxisRequests, SweepOptions{ScaleCap: 1}); err == nil {
		t.Error("empty axis accepted")
	}
}

func TestRunCompetitiveRatio(t *testing.T) {
	res, err := RunCompetitiveRatio(CROptions{
		Instances: 4, Orders: 3, Requests: 60, Workers: 20, Radius: 2, Seed: 9,
	})
	if err != nil {
		t.Fatal(err)
	}
	for _, alg := range []string{platform.AlgTOTA, platform.AlgGreedyRT, platform.AlgDemCOM, platform.AlgRamCOM} {
		minR, meanR := res.MinRatio[alg], res.MeanRatio[alg]
		if minR < 0 || minR > 1+1e-9 {
			t.Errorf("%s min ratio %v outside [0,1]", alg, minR)
		}
		if meanR < minR-1e-9 {
			t.Errorf("%s mean %v below min %v", alg, meanR, minR)
		}
	}
	// DemCOM dominates TOTA instance-by-instance in expectation: its
	// empirical CR cannot be materially below TOTA's.
	if res.MeanRatio[platform.AlgDemCOM] < res.MeanRatio[platform.AlgTOTA]-0.05 {
		t.Errorf("DemCOM mean CR %v far below TOTA %v",
			res.MeanRatio[platform.AlgDemCOM], res.MeanRatio[platform.AlgTOTA])
	}
	var buf bytes.Buffer
	if err := res.Table().Render(&buf); err != nil {
		t.Fatal(err)
	}
	if !strings.Contains(buf.String(), "Greedy-RT") {
		t.Error("CR table missing Greedy-RT")
	}
}

func TestRunAblations(t *testing.T) {
	res, err := RunAblations(Grid{Requests: 400, Workers: 80, Repeats: 2, Seed: 21})
	if err != nil {
		t.Fatal(err)
	}
	if len(res.Rows) != 9 {
		t.Fatalf("rows = %d, want 9", len(res.Rows))
	}
	tota, _ := res.Row(VarTOTA)
	demNoCoop, _ := res.Row(VarDemCOMNoCoop)
	ramNoCoop, _ := res.Row(VarRamCOMNoCoop)
	dem, _ := res.Row(VarDemCOM)

	// Degradation claim: with the hub disabled, DemCOM equals TOTA
	// exactly (same greedy inner path, no cooperation possible).
	if demNoCoop.Revenue != tota.Revenue || demNoCoop.CoR != 0 {
		t.Errorf("DemCOM(no hub) revenue %v != TOTA %v or CoR %v != 0",
			demNoCoop.Revenue, tota.Revenue, demNoCoop.CoR)
	}
	if ramNoCoop.CoR != 0 {
		t.Errorf("RamCOM(no hub) served cooperative requests: %v", ramNoCoop.CoR)
	}
	// Cooperation pays: DemCOM with the hub is at least TOTA.
	if dem.Revenue < tota.Revenue-1e-9 {
		t.Errorf("DemCOM %v below TOTA %v", dem.Revenue, tota.Revenue)
	}
	var buf bytes.Buffer
	if err := res.Table().Render(&buf); err != nil {
		t.Fatal(err)
	}
	if !strings.Contains(buf.String(), "oracle") {
		t.Error("ablation table missing oracle row")
	}
}
