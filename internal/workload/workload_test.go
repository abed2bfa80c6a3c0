package workload

import (
	"bytes"
	"errors"
	"math"
	"math/rand"
	"slices"
	"testing"
	"unsafe"

	"crossmatch/internal/core"
	"crossmatch/internal/geo"
)

func TestUniformRectSamplesInBounds(t *testing.T) {
	m := NewUniformSquare(10)
	rng := rand.New(rand.NewSource(1))
	for i := 0; i < 1000; i++ {
		p := m.Sample(rng)
		if !m.Bounds().Contains(p) {
			t.Fatalf("sample %v outside bounds", p)
		}
	}
}

func TestHotspotMixValidation(t *testing.T) {
	region := geo.NewRect(geo.Point{}, geo.Point{X: 10, Y: 10})
	good := []Hotspot{{Center: geo.Point{X: 5, Y: 5}, Sigma: 1, Weight: 1}}
	if _, err := NewHotspotMix(region, good, 0.1); err != nil {
		t.Fatalf("valid mix rejected: %v", err)
	}
	cases := []struct {
		name  string
		spots []Hotspot
		bg    float64
	}{
		{"no mass", nil, 0},
		{"bad sigma", []Hotspot{{Center: geo.Point{X: 5, Y: 5}, Sigma: 0, Weight: 1}}, 0},
		{"bad weight", []Hotspot{{Center: geo.Point{X: 5, Y: 5}, Sigma: 1, Weight: -1}}, 0},
		{"center outside", []Hotspot{{Center: geo.Point{X: 50, Y: 5}, Sigma: 1, Weight: 1}}, 0},
		{"bad background", good, 1.5},
	}
	for _, c := range cases {
		t.Run(c.name, func(t *testing.T) {
			if _, err := NewHotspotMix(region, c.spots, c.bg); err == nil {
				t.Error("accepted")
			}
		})
	}
}

func TestHotspotMixConcentratesMass(t *testing.T) {
	region := geo.NewRect(geo.Point{}, geo.Point{X: 20, Y: 20})
	center := geo.Point{X: 10, Y: 10}
	m, err := NewHotspotMix(region, []Hotspot{{Center: center, Sigma: 1, Weight: 1}}, 0.1)
	if err != nil {
		t.Fatal(err)
	}
	rng := rand.New(rand.NewSource(2))
	nearCount := 0
	const n = 5000
	for i := 0; i < n; i++ {
		p := m.Sample(rng)
		if !region.Contains(p) {
			t.Fatalf("sample %v outside region", p)
		}
		if p.Dist(center) < 3 {
			nearCount++
		}
	}
	// ~90% of mass is within 3 sigma of the single hotspot.
	if frac := float64(nearCount) / n; frac < 0.7 {
		t.Errorf("only %v of samples near hotspot", frac)
	}
}

func TestValueModels(t *testing.T) {
	rng := rand.New(rand.NewSource(4))
	models := map[string]ValueModel{
		"real":   DefaultRealValues(),
		"normal": DefaultNormalValues(),
	}
	for name, m := range models {
		t.Run(name, func(t *testing.T) {
			for i := 0; i < 2000; i++ {
				v := m.Sample(rng)
				if v <= 0 || v > m.Max()+1e-9 || math.IsNaN(v) {
					t.Fatalf("sample %v outside (0, %v]", v, m.Max())
				}
			}
		})
	}
}

func TestValueModelValidation(t *testing.T) {
	if _, err := NewNormalValues(0, 1, 1, 10); err == nil {
		t.Error("bad normal accepted")
	}
	if _, err := NewNormalValues(5, -1, 1, 10); err == nil {
		t.Error("negative sigma accepted")
	}
	if _, err := NewRealValues(1, 0.5, 5, 2); err == nil {
		t.Error("cap < min accepted")
	}
}

func TestRealValuesHeavierTailThanNormal(t *testing.T) {
	rng := rand.New(rand.NewSource(5))
	real, normal := DefaultRealValues(), DefaultNormalValues()
	const n = 20000
	highReal, highNormal := 0, 0
	for i := 0; i < n; i++ {
		if real.Sample(rng) > 50 {
			highReal++
		}
		if normal.Sample(rng) > 50 {
			highNormal++
		}
	}
	if highReal <= highNormal {
		t.Errorf("real tail (%d) not heavier than normal tail (%d)", highReal, highNormal)
	}
}

func TestGenerateBasicShape(t *testing.T) {
	cfg, err := Synthetic(100, 20, 1.0, "real")
	if err != nil {
		t.Fatal(err)
	}
	s, err := Generate(cfg, 42)
	if err != nil {
		t.Fatal(err)
	}
	if got := len(s.Requests()); got != 100 {
		t.Errorf("requests = %d, want 100", got)
	}
	if got := len(s.Workers()); got != 20*SyntheticAppearances {
		t.Errorf("worker vertices = %d, want %d", got, 20*SyntheticAppearances)
	}
	plats := s.Platforms()
	if len(plats) != 2 {
		t.Fatalf("platforms = %v, want 2", plats)
	}
	// Even split between the two platforms.
	reqs1, workers2 := 0, 0
	for _, r := range s.Requests() {
		if r.Platform == 1 {
			reqs1++
		}
	}
	for _, w := range s.Workers() {
		if w.Platform == 2 {
			workers2++
		}
	}
	if reqs1 != 50 {
		t.Errorf("platform 1 requests = %d, want 50", reqs1)
	}
	if workers2 != 10*SyntheticAppearances {
		t.Errorf("platform 2 worker vertices = %d, want %d", workers2, 10*SyntheticAppearances)
	}
	for _, w := range s.Workers() {
		if w.Radius != 1.0 {
			t.Fatalf("worker radius = %v", w.Radius)
		}
		if len(w.History) < 20 || len(w.History) > 60 {
			t.Fatalf("history length %d outside default [20,60]", len(w.History))
		}
	}
}

func TestGenerateDeterministic(t *testing.T) {
	cfg, err := Synthetic(2500, 500, 1.0, "real")
	if err != nil {
		t.Fatal(err)
	}
	a, err := Generate(cfg, 7)
	if err != nil {
		t.Fatal(err)
	}
	b, err := Generate(cfg, 7)
	if err != nil {
		t.Fatal(err)
	}
	if a.Len() != b.Len() {
		t.Fatalf("lengths differ: %d vs %d", a.Len(), b.Len())
	}
	for i := range a.Events() {
		ea, eb := a.Events()[i], b.Events()[i]
		if ea.Time != eb.Time || ea.Kind != eb.Kind {
			t.Fatalf("event %d differs", i)
		}
		if ea.Kind == core.RequestArrival && ea.Request.Value != eb.Request.Value {
			t.Fatalf("request value differs at %d", i)
		}
	}
	c, err := Generate(cfg, 8)
	if err != nil {
		t.Fatal(err)
	}
	same := true
	for i := range a.Events() {
		ea, ec := a.Events()[i], c.Events()[i]
		if ea.Time != ec.Time || ea.Kind != ec.Kind {
			same = false
			break
		}
	}
	if same {
		t.Error("different seeds produced identical streams")
	}
}

func TestGenerateValidation(t *testing.T) {
	if _, err := Generate(Config{}, 1); err == nil {
		t.Error("empty config accepted")
	}
	bad := Config{Platforms: []PlatformSpec{{ID: 1, Requests: 10, Workers: 5, Radius: 0,
		RequestSpatial: NewUniformSquare(10), Values: DefaultRealValues()}}}
	if _, err := Generate(bad, 1); err == nil {
		t.Error("zero radius accepted")
	}
	noSpatial := Config{Platforms: []PlatformSpec{{ID: 1, Requests: 10, Workers: 5, Radius: 1,
		Values: DefaultRealValues()}}}
	if _, err := Generate(noSpatial, 1); err == nil {
		t.Error("missing spatial model accepted")
	}
}

func TestPresets(t *testing.T) {
	ps := Presets()
	if len(ps) != 3 {
		t.Fatalf("presets = %d, want 3", len(ps))
	}
	if _, err := PresetFor("RDC10+RYC10"); err != nil {
		t.Error(err)
	}
	if _, err := PresetFor("nope"); !errors.Is(err, ErrUnknownPreset) {
		t.Errorf("unknown preset: %v, want ErrUnknownPreset", err)
	}
	if names := PresetNames(); len(names) != 3 {
		t.Errorf("names = %v", names)
	}
	// Xi'an preset must have the worker-scarce ratio (~25x rather than ~10x).
	xian, _ := PresetFor("RDX11+RYX11")
	if ratio := float64(xian.R1) / float64(xian.W1); ratio < 20 {
		t.Errorf("Xi'an ratio = %v, want > 20", ratio)
	}
}

func TestPresetConfigScaling(t *testing.T) {
	p, _ := PresetFor("RDC10+RYC10")
	cfg, err := p.Config(0.01)
	if err != nil {
		t.Fatal(err)
	}
	if got := cfg.Platforms[0].Requests; got != 913 {
		t.Errorf("scaled requests = %d, want 913", got)
	}
	if got := cfg.Platforms[1].Workers; got != 70 {
		t.Errorf("scaled workers = %d, want 70", got)
	}
	if _, err := p.Config(0); err == nil {
		t.Error("scale 0 accepted")
	}
	if _, err := p.Config(2); err == nil {
		t.Error("scale 2 accepted")
	}
	s, err := Generate(cfg, 1)
	if err != nil {
		t.Fatal(err)
	}
	// Each physical worker appears PresetAppearances times.
	want := 913 + 905 + (91+70)*PresetAppearances
	if s.Len() != want {
		t.Errorf("stream len = %d, want %d", s.Len(), want)
	}
}

func TestSyntheticValidation(t *testing.T) {
	if _, err := Synthetic(-1, 10, 1, "real"); err == nil {
		t.Error("negative requests accepted")
	}
	if _, err := Synthetic(10, 10, 0, "real"); err == nil {
		t.Error("zero radius accepted")
	}
	if _, err := Synthetic(10, 10, 1, "weird"); err == nil {
		t.Error("unknown distribution accepted")
	}
	if _, err := Synthetic(10, 10, 1, "normal"); err != nil {
		t.Error("normal distribution rejected")
	}
}

func TestConfigMaxValue(t *testing.T) {
	cfg, err := Synthetic(2500, 500, 1.0, "real")
	if err != nil {
		t.Fatal(err)
	}
	if got := cfg.MaxValue(); got != 100 {
		t.Errorf("MaxValue = %v, want 100 (value cap)", got)
	}
}

func TestCSVRoundTrip(t *testing.T) {
	cfg, err := Synthetic(40, 10, 1.0, "real")
	if err != nil {
		t.Fatal(err)
	}
	s, err := Generate(cfg, 9)
	if err != nil {
		t.Fatal(err)
	}
	var buf bytes.Buffer
	if err := WriteCSV(&buf, s); err != nil {
		t.Fatal(err)
	}
	back, err := ReadCSV(&buf)
	if err != nil {
		t.Fatal(err)
	}
	if back.Len() != s.Len() {
		t.Fatalf("round trip len %d != %d", back.Len(), s.Len())
	}
	for i := range s.Events() {
		a, b := s.Events()[i], back.Events()[i]
		if a.Kind != b.Kind || a.Time != b.Time {
			t.Fatalf("event %d differs", i)
		}
		switch a.Kind {
		case core.WorkerArrival:
			if a.Worker.ID != b.Worker.ID || a.Worker.Loc != b.Worker.Loc ||
				a.Worker.Radius != b.Worker.Radius || len(a.Worker.History) != len(b.Worker.History) {
				t.Fatalf("worker %d differs after round trip", a.Worker.ID)
			}
		case core.RequestArrival:
			if a.Request.ID != b.Request.ID || a.Request.Value != b.Request.Value || a.Request.Loc != b.Request.Loc {
				t.Fatalf("request %d differs after round trip", a.Request.ID)
			}
		}
	}
}

// builtStreams is one stream from each builder in this package, each
// made from the one before: Generate (platform 1's workers appear three
// times each, platform 2's SyntheticAppearances), ReorderUniform, and
// ReadCSV of what WriteCSV wrote.
func builtStreams(t *testing.T) map[string]*core.Stream {
	t.Helper()
	cfg, err := Synthetic(400, 150, 1.0, "real")
	if err != nil {
		t.Fatal(err)
	}
	cfg.Platforms[0].Appearances = 3
	generated, err := Generate(cfg, 9)
	if err != nil {
		t.Fatal(err)
	}
	reordered, err := ReorderUniform(generated, 10)
	if err != nil {
		t.Fatal(err)
	}
	var buf bytes.Buffer
	if err := WriteCSV(&buf, reordered); err != nil {
		t.Fatal(err)
	}
	read, err := ReadCSV(&buf)
	if err != nil {
		t.Fatal(err)
	}
	return map[string]*core.Stream{"Generate": generated, "ReorderUniform": reordered, "ReadCSV": read}
}

// TestBuiltStreamsArePackedInArrivalOrder: every builder in this package
// owns the payloads it hands core, so each of their streams has them in
// two slabs in arrival order — walking Events() sees worker addresses
// and request addresses strictly ascend.
func TestBuiltStreamsArePackedInArrivalOrder(t *testing.T) {
	for name, s := range builtStreams(t) {
		var lastW, lastR uintptr
		for i, e := range s.Events() {
			at, last := uintptr(unsafe.Pointer(e.Worker)), &lastW
			if e.Kind == core.RequestArrival {
				at, last = uintptr(unsafe.Pointer(e.Request)), &lastR
			}
			if at <= *last {
				t.Fatalf("%s: event %d (%v) has its payload at %#x, not after %#x", name, i, e.Kind, at, *last)
			}
			*last = at
		}
	}
}

// TestBuiltStreamsCarryAscendingHistories: every worker of every built
// stream has its history in ascending order, so a run shares each one
// (pricing.MakeHistory's zero-copy branch) instead of copying and
// sorting it at every arrival; and the generator sorts once per
// physical worker, whose appearances share the one slice.
func TestBuiltStreamsCarryAscendingHistories(t *testing.T) {
	streams := builtStreams(t)
	for name, s := range streams {
		workers := s.Workers()
		if len(workers) == 0 {
			t.Fatalf("%s: no workers", name)
		}
		for _, w := range workers {
			if len(w.History) < 20 {
				t.Fatalf("%s: worker %d has %d history values, want the generator's 20 to 60", name, w.ID, len(w.History))
			}
			if !slices.IsSorted(w.History) {
				t.Fatalf("%s: worker %d: history %v is not ascending", name, w.ID, w.History)
			}
		}
	}
	arrivals := map[*float64]int{} // by a history's first element
	for _, w := range streams["Generate"].Workers() {
		arrivals[&w.History[0]]++
	}
	for _, w := range streams["Generate"].Workers() {
		want := SyntheticAppearances
		if w.Platform == 1 {
			want = 3 // builtStreams' own
		}
		if got := arrivals[&w.History[0]]; got != want {
			t.Fatalf("worker %d of platform %d: its history slice is shared by %d arrivals, want %d", w.ID, w.Platform, got, want)
		}
	}
}

func TestReadCSVRejectsGarbage(t *testing.T) {
	cases := []string{
		"",
		"bogus,header\n",
		"kind,id,arrival,platform,x,y,value,radius,history\nworker,x,0,1,0,0,,1,\n",
		"kind,id,arrival,platform,x,y,value,radius,history\nalien,1,0,1,0,0,5,,\n",
		"kind,id,arrival,platform,x,y,value,radius,history\nrequest,1,0,1,0,0,notanumber,,\n",
	}
	for i, c := range cases {
		if _, err := ReadCSV(bytes.NewBufferString(c)); err == nil {
			t.Errorf("case %d accepted", i)
		}
	}
}
