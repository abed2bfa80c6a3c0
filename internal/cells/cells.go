// Package cells is the single source of truth for cell→shard
// ownership: the spatial-hash cell key (internal/index grid geometry)
// and the rendezvous (highest-random-weight) hash that assigns each
// cell to one shard of a named shard set.
//
// The fleet router (internal/route) partitions arrival events across
// comserve processes through this package, live per line and offline in
// SplitStream, so a recorded stream split for a replay fleet can never
// disagree with the router about which shard owns a cell. A
// cross-package fuzz test (internal/cells/agree_test.go) pins the
// agreement.
package cells

import (
	"fmt"

	"crossmatch/internal/geo"
	"crossmatch/internal/index"
)

// Key identifies one spatial-hash cell, the unit of shard ownership.
type Key struct {
	CX, CY int32
}

// Of returns the owning cell of a point under the shared grid
// geometry (index.CellOf).
func Of(p geo.Point, cellSize float64) Key {
	cx, cy := index.CellOf(p, cellSize)
	return Key{CX: cx, CY: cy}
}

// Weight is the rendezvous (highest-random-weight) score of a shard
// for a cell: a 64-bit FNV-1a hash over the cell coordinates and the
// shard name, passed through a murmur-style avalanche finalizer. The
// finalizer matters: raw FNV-1a mixes the final input byte weakly, and
// shard names that differ only in their last character ("s1".."s4" —
// the natural naming) would make the rendezvous winner correlate with
// a couple of hash bits, skewing ownership badly (one shard can end up
// with half the cells). Everything here is fixed arithmetic, stable
// across processes and platforms — the splitter↔router↔engine
// agreement depends on that; speed is irrelevant at one hash per shard
// per event.
func Weight(c Key, shardName string) uint64 {
	const offset64 = 14695981039346656037
	const prime64 = 1099511628211
	h := uint64(offset64)
	mix := func(b byte) {
		h ^= uint64(b)
		h *= prime64
	}
	for _, v := range []int32{c.CX, c.CY} {
		u := uint32(v)
		mix(byte(u))
		mix(byte(u >> 8))
		mix(byte(u >> 16))
		mix(byte(u >> 24))
	}
	mix(0xfe) // domain separator between coordinates and name
	for i := 0; i < len(shardName); i++ {
		mix(shardName[i])
	}
	// fmix64 avalanche (MurmurHash3 finalizer constants).
	h ^= h >> 33
	h *= 0xff51afd7ed558ccd
	h ^= h >> 33
	h *= 0xc4ceb9fe1a85ec53
	h ^= h >> 33
	return h
}

// Owner returns the rendezvous owner of a cell, or "" for an empty
// shard set.
func Owner(c Key, shardNames []string) string {
	if i := OwnerIndex(c, shardNames); i >= 0 {
		return shardNames[i]
	}
	return ""
}

// OwnerIndex returns the index into shardNames of a cell's rendezvous
// owner — the shard of highest Weight, ties to the smaller name, so the
// winner does not depend on the order of the list — or -1 for an empty
// shard set. Adding or removing one shard moves only the cells that
// hashed to it: the consistent-hashing property that keeps a resize
// from reshuffling the whole fleet.
func OwnerIndex(c Key, shardNames []string) int {
	if len(shardNames) == 0 {
		return -1
	}
	best := 0
	bw := Weight(c, shardNames[0])
	for i, name := range shardNames[1:] {
		if w := Weight(c, name); w > bw || (w == bw && name < shardNames[best]) {
			best, bw = i+1, w
		}
	}
	return best
}

// Names returns the canonical shard names for an n-shard deployment:
// "s1".."sN" — the naming every layer (route fleet manifests,
// serve_smoke.sh) uses so that ownership agrees by construction.
func Names(n int) []string {
	out := make([]string, n)
	for i := range out {
		out[i] = fmt.Sprintf("s%d", i+1)
	}
	return out
}
