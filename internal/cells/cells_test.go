package cells

import (
	"math/rand"
	"testing"

	"crossmatch/internal/geo"
)

func TestOwnerIndexAgreesWithOwner(t *testing.T) {
	for _, n := range []int{1, 2, 3, 4, 8} {
		names := Names(n)
		for cx := int32(-40); cx <= 40; cx++ {
			for cy := int32(-40); cy <= 40; cy++ {
				c := Key{CX: cx, CY: cy}
				i := OwnerIndex(c, names)
				if i < 0 || i >= n {
					t.Fatalf("OwnerIndex(%v, %d shards) = %d out of range", c, n, i)
				}
				if names[i] != Owner(c, names) {
					t.Fatalf("cell %v: OwnerIndex→%s, Owner→%s", c, names[i], Owner(c, names))
				}
			}
		}
	}
}

func TestOwnerEmptyAndSingle(t *testing.T) {
	if got := Owner(Key{CX: 1, CY: 2}, nil); got != "" {
		t.Fatalf("Owner with no shards = %q, want empty", got)
	}
	if got := OwnerIndex(Key{CX: 1, CY: 2}, nil); got != -1 {
		t.Fatalf("OwnerIndex with no shards = %d, want -1", got)
	}
	one := []string{"only"}
	for cx := int32(-10); cx <= 10; cx++ {
		if Owner(Key{CX: cx, CY: -cx}, one) != "only" {
			t.Fatal("single shard must own every cell")
		}
	}
}

func TestNames(t *testing.T) {
	got := Names(3)
	want := []string{"s1", "s2", "s3"}
	for i := range want {
		if got[i] != want[i] {
			t.Fatalf("Names(3) = %v, want %v", got, want)
		}
	}
	if len(Names(0)) != 0 {
		t.Fatal("Names(0) must be empty")
	}
}

func TestOwnershipBalance(t *testing.T) {
	// The avalanche finalizer should spread ownership within a factor
	// of ~2 of fair across a contiguous grid (the guarantee the route
	// package relied on before the extraction).
	names := Names(4)
	counts := map[string]int{}
	for cx := int32(0); cx < 64; cx++ {
		for cy := int32(0); cy < 64; cy++ {
			counts[Owner(Key{CX: cx, CY: cy}, names)]++
		}
	}
	total := 64 * 64
	fair := total / len(names)
	for name, n := range counts {
		if n < fair/2 || n > fair*2 {
			t.Fatalf("shard %s owns %d of %d cells (fair share %d): skewed", name, n, total, fair)
		}
	}
}

func TestOfMatchesIndexGrid(t *testing.T) {
	c := Of(geo.Point{X: 1.2, Y: -0.3}, 1.0)
	if (c != Key{CX: 1, CY: -1}) {
		t.Fatalf("Of(1.2,-0.3) = %v, want {1 -1}", c)
	}
}

func TestWeightIsStable(t *testing.T) {
	// Pin the hash output: ownership must be stable across processes,
	// platforms and releases (recorded fleet manifests and WAL replay
	// depend on it). If this test ever fails the hash changed, which
	// silently re-partitions every recorded deployment.
	got := Weight(Key{CX: 3, CY: -7}, "s2")
	const want = uint64(0x8722e88f96d08111)
	if got != want {
		t.Fatalf("Weight({3,-7}, s2) = %#x, want %#x", got, want)
	}
}

func FuzzOwnerTotalOrder(f *testing.F) {
	f.Add(int32(0), int32(0), uint8(3))
	f.Add(int32(-5), int32(17), uint8(1))
	f.Add(int32(1000), int32(-1000), uint8(8))
	f.Fuzz(func(t *testing.T, cx, cy int32, n uint8) {
		if n == 0 || n > 16 {
			t.Skip()
		}
		names := Names(int(n))
		c := Key{CX: cx, CY: cy}
		owner := Owner(c, names)
		idx := OwnerIndex(c, names)
		if names[idx] != owner {
			t.Fatalf("OwnerIndex %d (%s) != Owner %s", idx, names[idx], owner)
		}
		// The owner is the smallest name among the shards of maximum
		// weight.
		var top uint64
		for _, name := range names {
			top = max(top, Weight(c, name))
		}
		best := ""
		for _, name := range names {
			if Weight(c, name) == top && (best == "" || name < best) {
				best = name
			}
		}
		if owner != best {
			t.Fatalf("Owner %s != maximum-weight shard %s", owner, best)
		}
		// Permuting the name list must not change the winner.
		perm := append([]string(nil), names...)
		r := rand.New(rand.NewSource(int64(cx)<<32 | int64(uint32(cy))))
		r.Shuffle(len(perm), func(i, j int) { perm[i], perm[j] = perm[j], perm[i] })
		if got := Owner(c, perm); got != owner {
			t.Fatalf("Owner depends on name order: %s vs %s (perm %v)", got, owner, perm)
		}
	})
}

func BenchmarkOwnerIndex(b *testing.B) {
	names := Names(8)
	b.ReportAllocs()
	for i := 0; i < b.N; i++ {
		c := Key{CX: int32(i % 512), CY: int32(i % 251)}
		if OwnerIndex(c, names) < 0 {
			b.Fatal("no owner")
		}
	}
}
