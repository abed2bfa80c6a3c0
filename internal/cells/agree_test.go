package cells_test

// Cross-package agreement: the fleet router's per-line dispatch
// (route.Owner over route.Cell), its offline twin route.SplitStream and
// internal/cells itself resolve cell ownership the same way, so a
// recorded stream split for a replay fleet puts every event on the
// process the router would send it to.

import (
	"math"
	"testing"

	"crossmatch/internal/cells"
	"crossmatch/internal/core"
	"crossmatch/internal/geo"
	"crossmatch/internal/route"
)

func FuzzRouteShardAgree(f *testing.F) {
	f.Add(0.0, 0.0, uint8(4), 1.0)
	f.Add(-3.7, 12.2, uint8(1), 0.5)
	f.Add(1e6, -1e6, uint8(16), 2.0)
	f.Fuzz(func(t *testing.T, x, y float64, n uint8, cellSize float64) {
		if n == 0 || n > 16 {
			t.Skip()
		}
		if math.IsNaN(x) || math.IsInf(x, 0) || math.IsNaN(y) || math.IsInf(y, 0) {
			t.Skip()
		}
		if math.IsNaN(cellSize) || math.IsInf(cellSize, 0) {
			t.Skip()
		}
		loc := geo.Point{X: x, Y: y}
		names := cells.Names(int(n))

		// Layer 1: the fleet router's per-line dispatch.
		routeOwner := route.Owner(route.Cell(loc, cellSize), names)

		// Layer 2: the shared package directly.
		cellsOwner := cells.Owner(cells.Of(loc, cellSize), names)
		cellsIdx := cells.OwnerIndex(cells.Of(loc, cellSize), names)

		if routeOwner != cellsOwner {
			t.Fatalf("route owner %q != cells owner %q at %v", routeOwner, cellsOwner, loc)
		}
		if names[cellsIdx] != cellsOwner {
			t.Fatalf("OwnerIndex %d (%s) != Owner %s", cellsIdx, names[cellsIdx], cellsOwner)
		}

		// Layer 3: the offline split a replay fleet is built from.
		r := &core.Request{ID: 1, Arrival: 1, Loc: loc, Value: 1, Platform: 1}
		stream, err := core.NewStream([]core.Event{{Time: 1, Kind: core.RequestArrival, Request: r}})
		if err != nil {
			t.Fatal(err)
		}
		subs, err := route.SplitStream(stream, names, cellSize)
		if err != nil {
			t.Fatal(err)
		}
		for name, sub := range subs {
			want := 0
			if name == routeOwner {
				want = 1
			}
			if sub.Len() != want {
				t.Fatalf("SplitStream put %d events on %s, the router sends %v to %s", sub.Len(), name, loc, routeOwner)
			}
		}
	})
}
