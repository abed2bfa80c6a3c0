// Package roadnet implements the road-network distance model the paper
// sketches: Section II notes that COM "can be equivalently changed into
// the shortest path distance in road networks by just changing the
// service range from circulars to irregular shapes", and Section VII
// lists routing-aware cooperation as future work. The package provides
//
//   - Network: an undirected weighted road graph with a deterministic
//     city-grid builder (perturbed Manhattan grid with occasional missing
//     segments, so service ranges really are irregular);
//   - bounded single-source shortest paths (Dijkstra with a distance
//     budget) and DistField, a reusable result that answers "how far by
//     road from the query point?" in O(1) per probe;
//   - Coverage, a drop-in range filter for online.Pool that replaces the
//     Euclidean range constraint of Definition 2.6 with road distance.
//
// Road distance dominates Euclidean distance, so the spatial index's
// circle prefilter stays correct as a superset; Coverage only prunes.
package roadnet

import (
	"fmt"
	"math"
	"math/rand"

	"crossmatch/internal/geo"
)

// NodeID indexes a network node.
type NodeID int32

// edge is one directed half of an undirected road segment.
type edge struct {
	to   NodeID
	dist float64
}

// Network is an undirected road graph embedded in the plane.
type Network struct {
	nodes []geo.Point
	adj   [][]edge
	// snap grid
	region  geo.Rect
	cell    float64
	buckets map[[2]int32][]NodeID
}

// NewNetwork builds a network from explicit nodes and undirected edges
// (pairs of node indices). Edge lengths are the Euclidean distances
// between endpoints scaled by detour >= 1.
func NewNetwork(nodes []geo.Point, edges [][2]int, detour float64) (*Network, error) {
	if len(nodes) == 0 {
		return nil, fmt.Errorf("roadnet: no nodes")
	}
	if detour < 1 {
		return nil, fmt.Errorf("roadnet: detour factor %v must be >= 1", detour)
	}
	n := &Network{
		nodes: append([]geo.Point(nil), nodes...),
		adj:   make([][]edge, len(nodes)),
	}
	for i, p := range nodes {
		if !p.IsFinite() {
			return nil, fmt.Errorf("roadnet: node %d has non-finite location", i)
		}
	}
	for _, e := range edges {
		a, b := e[0], e[1]
		if a < 0 || a >= len(nodes) || b < 0 || b >= len(nodes) || a == b {
			return nil, fmt.Errorf("roadnet: bad edge (%d, %d)", a, b)
		}
		d := nodes[a].Dist(nodes[b]) * detour
		n.adj[a] = append(n.adj[a], edge{to: NodeID(b), dist: d})
		n.adj[b] = append(n.adj[b], edge{to: NodeID(a), dist: d})
	}
	n.buildSnap()
	return n, nil
}

// GridOptions configures NewGridNetwork.
type GridOptions struct {
	// Spacing is the block edge length in km (default 0.25).
	Spacing float64
	// Jitter displaces each intersection by up to Jitter*Spacing in
	// each axis (default 0.2) so ranges are irregular.
	Jitter float64
	// DropProb removes each street segment with this probability
	// (default 0.08), creating detours. The builder keeps the grid
	// connected by never dropping the segments of the first row and
	// first column.
	DropProb float64
	// Detour scales edge lengths over the crow-flies distance
	// (default 1.0; city networks are often modelled at 1.2-1.4).
	Detour float64
	// Seed drives the jitter and drops.
	Seed int64
}

func (o GridOptions) withDefaults() GridOptions {
	if o.Spacing <= 0 {
		o.Spacing = 0.25
	}
	if o.Jitter < 0 {
		o.Jitter = 0
	} else if o.Jitter == 0 {
		o.Jitter = 0.2
	}
	if o.DropProb < 0 {
		o.DropProb = 0
	} else if o.DropProb == 0 {
		o.DropProb = 0.08
	}
	if o.Detour < 1 {
		o.Detour = 1.0
	}
	return o
}

// NewGridNetwork builds a perturbed Manhattan street grid covering the
// region. Deterministic for a given options struct.
func NewGridNetwork(region geo.Rect, opts GridOptions) (*Network, error) {
	if !region.Valid() || region.Area() == 0 {
		return nil, fmt.Errorf("roadnet: invalid region %v", region)
	}
	o := opts.withDefaults()
	if o.Spacing > region.Width() || o.Spacing > region.Height() {
		return nil, fmt.Errorf("roadnet: spacing %v exceeds region extent %v", o.Spacing, region)
	}
	cols := int(math.Ceil(region.Width()/o.Spacing)) + 1
	rows := int(math.Ceil(region.Height()/o.Spacing)) + 1
	if cols*rows > 4_000_000 {
		return nil, fmt.Errorf("roadnet: %d x %d grid too large", cols, rows)
	}
	rng := rand.New(rand.NewSource(o.Seed))
	nodes := make([]geo.Point, 0, cols*rows)
	for r := 0; r < rows; r++ {
		for c := 0; c < cols; c++ {
			p := geo.Point{
				X: region.Min.X + float64(c)*o.Spacing + (rng.Float64()*2-1)*o.Jitter*o.Spacing,
				Y: region.Min.Y + float64(r)*o.Spacing + (rng.Float64()*2-1)*o.Jitter*o.Spacing,
			}
			nodes = append(nodes, region.ClosestPoint(p))
		}
	}
	id := func(r, c int) int { return r*cols + c }
	var edges [][2]int
	for r := 0; r < rows; r++ {
		for c := 0; c < cols; c++ {
			// Horizontal segment to the east neighbour.
			if c+1 < cols {
				keep := r == 0 || rng.Float64() >= o.DropProb
				if keep {
					edges = append(edges, [2]int{id(r, c), id(r, c+1)})
				}
			}
			// Vertical segment to the north neighbour.
			if r+1 < rows {
				keep := c == 0 || rng.Float64() >= o.DropProb
				if keep {
					edges = append(edges, [2]int{id(r, c), id(r+1, c)})
				}
			}
		}
	}
	return NewNetwork(nodes, edges, o.Detour)
}

// Len returns the number of nodes.
func (n *Network) Len() int { return len(n.nodes) }

func (n *Network) buildSnap() {
	n.region = geo.Rect{Min: n.nodes[0], Max: n.nodes[0]}
	for _, p := range n.nodes[1:] {
		n.region = geo.NewRect(
			geo.Point{X: math.Min(n.region.Min.X, p.X), Y: math.Min(n.region.Min.Y, p.Y)},
			geo.Point{X: math.Max(n.region.Max.X, p.X), Y: math.Max(n.region.Max.Y, p.Y)},
		)
	}
	// Aim for a handful of nodes per bucket.
	n.cell = math.Max(0.1, math.Sqrt(n.region.Area()/float64(len(n.nodes)))*2)
	n.buckets = make(map[[2]int32][]NodeID)
	for i, p := range n.nodes {
		k := n.bucketKey(p)
		n.buckets[k] = append(n.buckets[k], NodeID(i))
	}
}

func (n *Network) bucketKey(p geo.Point) [2]int32 {
	return [2]int32{int32(math.Floor(p.X / n.cell)), int32(math.Floor(p.Y / n.cell))}
}

// Snap returns the network node nearest to p.
func (n *Network) Snap(p geo.Point) NodeID {
	// Far-outside queries degrade the ring search; a linear scan is both
	// simpler and faster there.
	if !n.region.Expand(2 * n.cell).Contains(p) {
		return n.snapLinear(p)
	}
	best := NodeID(-1)
	bestD := math.Inf(1)
	k := n.bucketKey(p)
	maxRing := int32(math.Ceil((n.region.Width()+n.region.Height())/n.cell)) + 2
	for ring := int32(0); ring <= maxRing; ring++ {
		for dx := -ring; dx <= ring; dx++ {
			for dy := -ring; dy <= ring; dy++ {
				if dx > -ring && dx < ring && dy > -ring && dy < ring {
					continue // interior already scanned on earlier rings
				}
				for _, id := range n.buckets[[2]int32{k[0] + dx, k[1] + dy}] {
					if d := n.nodes[id].Dist2(p); d < bestD {
						best, bestD = id, d
					}
				}
			}
		}
		// Every unscanned node lies in a bucket at Chebyshev ring
		// distance > ring, hence at least ring*cell away from p; the
		// current best is final once it is at most that.
		if best != -1 && math.Sqrt(bestD) <= float64(ring)*n.cell {
			return best
		}
	}
	return n.snapLinear(p) // defensive; unreachable for in-region queries
}

func (n *Network) snapLinear(p geo.Point) NodeID {
	best := NodeID(-1)
	bestD := math.Inf(1)
	for i, q := range n.nodes {
		if d := q.Dist2(p); d < bestD {
			best, bestD = NodeID(i), d
		}
	}
	return best
}
