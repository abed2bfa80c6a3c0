package match

import (
	"math"
	"testing"
)

// fuzzGraph decodes a graph from fuzzer bytes: one byte each for the
// side sizes (1-16), then four bytes per edge (worker, request, two
// weight bytes), up to 64 edges. Small sides make parallel edges common.
// One weight code in 13 is non-positive (0 or a negative integer); the
// rest are log-uniform over 1e-4..1e4, the span from COM's thin outer
// margins v − v' to its largest request values.
func fuzzGraph(data []byte) *Graph {
	if len(data) < 2 {
		return &Graph{}
	}
	g := &Graph{NWorkers: 1 + int(data[0]%16), NRequests: 1 + int(data[1]%16)}
	for rest := data[2:]; len(rest) >= 4 && len(g.Edges) < 64; rest = rest[4:] {
		code := uint16(rest[2])<<8 | uint16(rest[3])
		weight := -float64(code % 7)
		if code%13 != 0 {
			weight = 1e-4 * math.Pow(10, 8*float64(code)/math.MaxUint16)
		}
		g.Edges = append(g.Edges, Edge{
			Worker:  int(rest[0]) % g.NWorkers,
			Request: int(rest[1]) % g.NRequests,
			Weight:  weight,
		})
	}
	return g
}

// FuzzMaxWeightFlow holds the production solver to the dense Hungarian
// on every decoded graph, and to exhaustive search when the graph is
// small enough to enumerate: the matching must validate and its weight
// must equal the oracle's within 1e-9 relative.
func FuzzMaxWeightFlow(f *testing.F) {
	f.Add([]byte{1, 1, 0, 0, 0x40, 0x00})
	f.Add([]byte{2, 2, 0, 0, 0x80, 0x01, 0, 1, 0x70, 0x02, 1, 0, 0x60, 0x03})
	f.Add([]byte{0, 0, 0, 0, 0x10, 0x00, 0, 0, 0xf0, 0x01, 0, 0, 0x00, 0x0d})
	f.Add([]byte{3, 5, 0, 0, 0xff, 0xff, 1, 2, 0x00, 0x01, 2, 4, 0x00, 0x1a, 3, 1, 0x12, 0x34, 0, 3, 0x9a, 0xbc})
	f.Fuzz(func(t *testing.T, data []byte) {
		g := fuzzGraph(data)
		got := MaxWeightFlow(g)
		if err := got.Validate(g); err != nil {
			t.Fatalf("MaxWeightFlow: %v on %+v", err, g)
		}
		oracles := map[string]*Result{"Hungarian": Hungarian(g)}
		if len(g.Edges) <= 14 {
			oracles["BruteForce"] = BruteForce(g)
		}
		for name, want := range oracles {
			if math.Abs(got.Weight-want.Weight) > 1e-9*math.Abs(want.Weight) {
				t.Fatalf("MaxWeightFlow weight %v, %s %v on %+v", got.Weight, name, want.Weight, g)
			}
		}
	})
}
