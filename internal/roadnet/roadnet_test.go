package roadnet

import (
	"math"
	"math/rand"
	"testing"

	"crossmatch/internal/core"
	"crossmatch/internal/geo"
)

// line builds a 1-D chain network 0 -- 1 -- 2 -- ... at unit spacing.
func line(t *testing.T, n int) *Network {
	t.Helper()
	nodes := make([]geo.Point, n)
	var edges [][2]int
	for i := range nodes {
		nodes[i] = geo.Point{X: float64(i)}
		if i > 0 {
			edges = append(edges, [2]int{i - 1, i})
		}
	}
	net, err := NewNetwork(nodes, edges, 1)
	if err != nil {
		t.Fatal(err)
	}
	return net
}

func TestNewNetworkValidation(t *testing.T) {
	if _, err := NewNetwork(nil, nil, 1); err == nil {
		t.Error("empty network accepted")
	}
	nodes := []geo.Point{{X: 0}, {X: 1}}
	if _, err := NewNetwork(nodes, [][2]int{{0, 2}}, 1); err == nil {
		t.Error("out-of-range edge accepted")
	}
	if _, err := NewNetwork(nodes, [][2]int{{0, 0}}, 1); err == nil {
		t.Error("self-loop accepted")
	}
	if _, err := NewNetwork(nodes, nil, 0.5); err == nil {
		t.Error("detour < 1 accepted")
	}
	if _, err := NewNetwork([]geo.Point{{X: math.NaN()}}, nil, 1); err == nil {
		t.Error("NaN node accepted")
	}
}

func TestSnap(t *testing.T) {
	net := line(t, 10)
	tests := []struct {
		p    geo.Point
		want NodeID
	}{
		{geo.Point{X: 0}, 0},
		{geo.Point{X: 4.4}, 4},
		{geo.Point{X: 4.6}, 5},
		{geo.Point{X: 100}, 9},
		{geo.Point{X: -7, Y: 3}, 0},
	}
	for _, tt := range tests {
		if got := net.Snap(tt.p); got != tt.want {
			t.Errorf("Snap(%v) = %d, want %d", tt.p, got, tt.want)
		}
	}
}

func TestSnapMatchesLinearScan(t *testing.T) {
	net, err := NewGridNetwork(geo.NewRect(geo.Point{}, geo.Point{X: 5, Y: 5}), GridOptions{Spacing: 0.5, Seed: 3})
	if err != nil {
		t.Fatal(err)
	}
	rng := rand.New(rand.NewSource(9))
	for i := 0; i < 300; i++ {
		p := geo.Point{X: rng.Float64()*7 - 1, Y: rng.Float64()*7 - 1}
		got := net.Snap(p)
		// Oracle: linear scan.
		best, bestD := NodeID(-1), math.Inf(1)
		for id := 0; id < net.Len(); id++ {
			if d := net.nodes[NodeID(id)].Dist2(p); d < bestD {
				best, bestD = NodeID(id), d
			}
		}
		gotD := net.nodes[got].Dist2(p)
		if math.Abs(gotD-bestD) > 1e-12 {
			t.Fatalf("Snap(%v) = node %d at d2=%v, oracle node %d at d2=%v", p, got, gotD, best, bestD)
		}
	}
}

func TestWithinOnLine(t *testing.T) {
	net := line(t, 10)
	f := net.Within(geo.Point{X: 3}, 2.5)
	// Nodes 1..5 are within 2.5 of node 3.
	wantReached := 5
	if f.Reached() != wantReached {
		t.Fatalf("Reached = %d, want %d", f.Reached(), wantReached)
	}
	if d, ok := f.DistTo(geo.Point{X: 5}); !ok || math.Abs(d-2) > 1e-12 {
		t.Errorf("DistTo(5) = %v, %v", d, ok)
	}
	if _, ok := f.DistTo(geo.Point{X: 9}); ok {
		t.Error("node beyond budget reported reachable")
	}
	// Negative budget: empty field.
	if net.Within(geo.Point{X: 3}, -1).Reached() != 0 {
		t.Error("negative budget reached nodes")
	}
}

func TestDistDisconnected(t *testing.T) {
	nodes := []geo.Point{{X: 0}, {X: 1}, {X: 5}, {X: 6}}
	net, err := NewNetwork(nodes, [][2]int{{0, 1}, {2, 3}}, 1)
	if err != nil {
		t.Fatal(err)
	}
	if d, ok := net.Dist(geo.Point{X: 0}, geo.Point{X: 1}); !ok || math.Abs(d-1) > 1e-12 {
		t.Errorf("Dist connected = %v, %v", d, ok)
	}
	if _, ok := net.Dist(geo.Point{X: 0}, geo.Point{X: 6}); ok {
		t.Error("disconnected pair reported reachable")
	}
}

func TestDetourScalesDistances(t *testing.T) {
	nodes := []geo.Point{{X: 0}, {X: 1}}
	net, err := NewNetwork(nodes, [][2]int{{0, 1}}, 1.3)
	if err != nil {
		t.Fatal(err)
	}
	if d, ok := net.Dist(geo.Point{X: 0}, geo.Point{X: 1}); !ok || math.Abs(d-1.3) > 1e-12 {
		t.Errorf("detour distance = %v, want 1.3", d)
	}
}

func TestGridNetworkConnectivityAndDominance(t *testing.T) {
	region := geo.NewRect(geo.Point{}, geo.Point{X: 4, Y: 4})
	net, err := NewGridNetwork(region, GridOptions{Spacing: 0.5, DropProb: 0.15, Seed: 7})
	if err != nil {
		t.Fatal(err)
	}
	// Fully connected: a generous budget from the center reaches all.
	f := net.Within(region.Center(), 1e9)
	if f.Reached() != net.Len() {
		t.Fatalf("grid not connected: reached %d of %d", f.Reached(), net.Len())
	}
	// Road distance dominates Euclidean distance.
	rng := rand.New(rand.NewSource(2))
	for i := 0; i < 100; i++ {
		a := geo.Point{X: rng.Float64() * 4, Y: rng.Float64() * 4}
		b := geo.Point{X: rng.Float64() * 4, Y: rng.Float64() * 4}
		road, ok := net.Dist(a, b)
		if !ok {
			t.Fatalf("connected grid reported unreachable pair")
		}
		sa, sb := net.nodes[net.Snap(a)], net.nodes[net.Snap(b)]
		if road+1e-9 < sa.Dist(sb) {
			t.Fatalf("road %v shorter than straight line %v", road, sa.Dist(sb))
		}
	}
}

func TestGridNetworkValidation(t *testing.T) {
	if _, err := NewGridNetwork(geo.Rect{Min: geo.Point{X: 1}, Max: geo.Point{}}, GridOptions{}); err == nil {
		t.Error("invalid region accepted")
	}
	tiny := geo.NewRect(geo.Point{}, geo.Point{X: 0.01, Y: 0.01})
	if _, err := NewGridNetwork(tiny, GridOptions{Spacing: 50}); err == nil {
		t.Error("degenerate grid accepted")
	}
	huge := geo.NewRect(geo.Point{}, geo.Point{X: 10000, Y: 10000})
	if _, err := NewGridNetwork(huge, GridOptions{Spacing: 0.1}); err == nil {
		t.Error("oversized grid accepted")
	}
}

func TestGridNetworkDeterministic(t *testing.T) {
	region := geo.NewRect(geo.Point{}, geo.Point{X: 3, Y: 3})
	a, err := NewGridNetwork(region, GridOptions{Seed: 5})
	if err != nil {
		t.Fatal(err)
	}
	b, err := NewGridNetwork(region, GridOptions{Seed: 5})
	if err != nil {
		t.Fatal(err)
	}
	if a.Len() != b.Len() {
		t.Fatal("node counts differ")
	}
	for i := 0; i < a.Len(); i++ {
		if a.nodes[NodeID(i)] != b.nodes[NodeID(i)] {
			t.Fatalf("node %d differs between identical seeds", i)
		}
	}
}

func TestCoverageFiltersAndCaches(t *testing.T) {
	net := line(t, 20) // road along the x axis only
	cov := NewCoverage(net, 5)
	r := &core.Request{ID: 1, Arrival: 10, Loc: geo.Point{X: 10}, Value: 5, Platform: 1}
	near := &core.Worker{ID: 1, Arrival: 0, Loc: geo.Point{X: 8}, Radius: 3, Platform: 1}
	far := &core.Worker{ID: 2, Arrival: 0, Loc: geo.Point{X: 2}, Radius: 3, Platform: 1}
	// Off-road worker: Euclidean close (y offset small is irrelevant —
	// the network is a line, snap projects to it).
	if !cov.Covers(near, r) {
		t.Error("near worker should cover by road")
	}
	if cov.Covers(far, r) {
		t.Error("far worker covered: road distance 8 > radius 3")
	}
	if cov.Fields() != 1 {
		t.Errorf("fields computed = %d, want 1 (cached per request)", cov.Fields())
	}
	r2 := &core.Request{ID: 2, Arrival: 11, Loc: geo.Point{X: 3}, Value: 5, Platform: 1}
	if !cov.Covers(far, r2) {
		t.Error("far worker should cover request 2 (distance 1)")
	}
	if cov.Fields() != 2 {
		t.Errorf("fields = %d, want 2", cov.Fields())
	}
}

func TestCoverageNeverAdmitsBeyondEuclideanPrefilter(t *testing.T) {
	// Property: road coverage implies Euclidean-snap coverage cannot be
	// exceeded materially — road >= straight-line between snapped nodes.
	region := geo.NewRect(geo.Point{}, geo.Point{X: 5, Y: 5})
	net, err := NewGridNetwork(region, GridOptions{Spacing: 0.4, Seed: 11})
	if err != nil {
		t.Fatal(err)
	}
	cov := NewCoverage(net, 2)
	rng := rand.New(rand.NewSource(4))
	for i := 0; i < 200; i++ {
		w := &core.Worker{ID: int64(i), Arrival: 0,
			Loc:    geo.Point{X: rng.Float64() * 5, Y: rng.Float64() * 5},
			Radius: 0.3 + rng.Float64(), Platform: 1}
		r := &core.Request{ID: int64(i), Arrival: 1,
			Loc:   geo.Point{X: rng.Float64() * 5, Y: rng.Float64() * 5},
			Value: 1, Platform: 1}
		if cov.Covers(w, r) {
			sw, sr := net.nodes[net.Snap(w.Loc)], net.nodes[net.Snap(r.Loc)]
			if sw.Dist(sr) > w.Radius+1e-9 {
				t.Fatalf("road coverage admitted a pair with straight-line snap distance %v > radius %v",
					sw.Dist(sr), w.Radius)
			}
		}
	}
}
