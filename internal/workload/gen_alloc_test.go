package workload

import (
	"testing"

	"crossmatch/internal/core"
)

// generateAllocsCeiling is what one Generate call of
// TestGenerateAllocsAmortized's config may allocate: the count measured
// once the payloads went straight into the two slabs the stream keeps —
// one allocation per slab, not per entity or per chunk of entities.
const generateAllocsCeiling = 15

// TestGenerateAllocsAmortized holds generation to a handful of heap
// allocations however many events it builds: the two payload slabs, the
// events, the sort's keys and counters, the history blocks and the
// spatial models' own. A return to per-entity or per-chunk allocation
// fails here.
func TestGenerateAllocsAmortized(t *testing.T) {
	cfg, err := Synthetic(9000, 1000, 1.0, "real")
	if err != nil {
		t.Fatal(err)
	}
	var stream *core.Stream
	allocs := testing.AllocsPerRun(3, func() {
		s, gerr := Generate(cfg, 5)
		if gerr != nil {
			t.Fatal(gerr)
		}
		stream = s
	})
	if stream.Len() < 10000 {
		t.Fatalf("stream has %d events, want >= 10000", stream.Len())
	}
	if allocs > generateAllocsCeiling {
		t.Fatalf("%.0f allocations for %d events, ceiling %d", allocs, stream.Len(), generateAllocsCeiling)
	}
}

func BenchmarkGenerateCity(b *testing.B) {
	cfg, err := Synthetic(45000, 5000, 1.0, "real")
	if err != nil {
		b.Fatal(err)
	}
	b.ReportAllocs()
	for i := 0; i < b.N; i++ {
		s, err := Generate(cfg, int64(i))
		if err != nil {
			b.Fatal(err)
		}
		if s.Len() < 50000 {
			b.Fatal("bad length")
		}
	}
}
