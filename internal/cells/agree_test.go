package cells_test

// Cross-package agreement: the fleet router's per-line dispatch, its
// offline twin route.SplitStream and cells.OwnerIndex resolve cell
// ownership the same way, so a recorded stream split for a replay fleet
// puts every event on the process the router would send it to.

import (
	"encoding/json"
	"math"
	"net/http"
	"net/http/httptest"
	"strconv"
	"strings"
	"testing"

	"crossmatch/internal/cells"
	"crossmatch/internal/core"
	"crossmatch/internal/geo"
	"crossmatch/internal/route"
	"crossmatch/internal/serve"
)

// keySpellings are the spellings of the coordinate keys that a shard's
// encoding/json decoder reads as x and y: it matches keys
// case-insensitively and resolves escapes, so the router must too.
var keySpellings = [][2]string{{"x", "y"}, {"X", "Y"}, {`\u0078`, `\u0079`}}

func FuzzRouteShardAgree(f *testing.F) {
	// Every shard points at a server that is never ready, so the router
	// refuses each line and stamps the refusal with the owner its
	// dispatch chose.
	dark := httptest.NewServer(http.NotFoundHandler())
	f.Cleanup(dark.Close)

	f.Add(0.0, 0.0, uint8(4), 1.0, uint8(0))
	f.Add(-3.7, 12.2, uint8(1), 0.5, uint8(0))
	f.Add(1e6, -1e6, uint8(16), 2.0, uint8(0))
	f.Add(2.5, 2.5, uint8(3), -1.0, uint8(0))
	// Points whose owner is not the owner of (0, 0), with keys a reader
	// that matches only lower-case "x"/"y" would miss.
	f.Add(2.0, 2.0, uint8(2), 1.0, uint8(1))
	f.Add(2.5, 2.5, uint8(2), 0.0, uint8(2))
	f.Fuzz(func(t *testing.T, x, y float64, n uint8, cellSize float64, spelling uint8) {
		if n == 0 || n > 16 || int(spelling) >= len(keySpellings) {
			t.Skip()
		}
		if math.IsNaN(x) || math.IsInf(x, 0) || math.IsNaN(y) || math.IsInf(y, 0) {
			t.Skip()
		}
		loc := geo.Point{X: x, Y: y}
		names := cells.Names(int(n))
		owner := names[cells.OwnerIndex(cells.Of(loc, cellSize), names)]
		req := &core.Request{ID: 1, Arrival: 1, Loc: loc, Value: 1, Platform: 1}
		stream, err := core.NewStream([]core.Event{{Time: 1, Kind: core.RequestArrival, Request: req}})
		if err != nil {
			t.Fatal(err)
		}

		// Layer 1: the fleet router's per-line dispatch.
		var shards []route.ShardConfig
		for _, name := range names {
			shards = append(shards, route.ShardConfig{Name: name, URL: dark.URL})
		}
		r, err := route.New(route.Options{Shards: shards, CellSize: cellSize})
		if err != nil {
			// Not a positive, finite cell size: the split must refuse it too.
			if _, serr := route.SplitStream(stream, names, cellSize); serr == nil {
				t.Fatalf("route.New refused cell size %v (%v), SplitStream took it", cellSize, err)
			}
			return
		}
		defer r.Close()
		keys := keySpellings[spelling]
		line := `{"id":1,"` + keys[0] + `":` + strconv.FormatFloat(x, 'g', -1, 64) +
			`,"` + keys[1] + `":` + strconv.FormatFloat(y, 'g', -1, 64) + `,"platform":1,"value":1}`
		rec := httptest.NewRecorder()
		r.Handler().ServeHTTP(rec, httptest.NewRequest(http.MethodPost, "/v1/requests", strings.NewReader(line)))
		var d serve.WireDecision
		if err := json.Unmarshal(rec.Body.Bytes(), &d); err != nil {
			t.Fatalf("router reply %q: %v", rec.Body.String(), err)
		}
		if d.Status != serve.StatusUnavailable || d.Shard != owner {
			t.Fatalf("router answered %+v for %v, cells.OwnerIndex says %s", d, loc, owner)
		}

		// Layer 2: the offline split a replay fleet is built from.
		subs, err := route.SplitStream(stream, names, cellSize)
		if err != nil {
			t.Fatal(err)
		}
		for name, sub := range subs {
			want := 0
			if name == owner {
				want = 1
			}
			if sub.Len() != want {
				t.Fatalf("SplitStream put %d events on %s, the owner of %v is %s", sub.Len(), name, loc, owner)
			}
		}
	})
}
