package roadnet

import (
	"container/heap"
	"crossmatch/internal/geo"
)

// DistField is the result of a budget-bounded single-source shortest
// path run: road distances from a source point to every node within the
// budget. It answers point probes in O(1) plus a snap.
type DistField struct {
	net  *Network
	dist map[NodeID]float64
}

// DistTo returns the road distance from the source to p (snapped to its
// nearest node), with ok=false when p is beyond the budget or
// unreachable.
func (f *DistField) DistTo(p geo.Point) (float64, bool) {
	d, ok := f.dist[f.net.Snap(p)]
	return d, ok
}

// Reached returns the number of nodes within the budget.
func (f *DistField) Reached() int { return len(f.dist) }

// Within computes road distances from `from` (snapped) to every node
// within the given budget, using Dijkstra with early cutoff.
func (n *Network) Within(from geo.Point, budget float64) *DistField {
	f := &DistField{net: n, dist: map[NodeID]float64{}}
	if budget < 0 {
		return f
	}
	src := n.Snap(from)
	if src < 0 {
		return f
	}
	pq := &nodeHeap{{id: src, dist: 0}}
	f.dist[src] = 0
	for pq.Len() > 0 {
		it := heap.Pop(pq).(nodeItem)
		if d, ok := f.dist[it.id]; !ok || it.dist > d {
			continue // stale entry
		}
		for _, e := range n.adj[it.id] {
			nd := it.dist + e.dist
			if nd > budget {
				continue
			}
			if d, ok := f.dist[e.to]; !ok || nd < d {
				f.dist[e.to] = nd
				heap.Push(pq, nodeItem{id: e.to, dist: nd})
			}
		}
	}
	return f
}

// Dist returns the road distance between two points (both snapped),
// with ok=false when disconnected. Unbounded search; prefer Within for
// repeated probes around one source.
func (n *Network) Dist(a, b geo.Point) (float64, bool) {
	// Bound by an optimistic expanding budget to avoid scanning the
	// whole graph for nearby pairs.
	budget := a.Dist(b)*2 + 1
	for i := 0; i < 8; i++ {
		f := n.Within(a, budget)
		if d, ok := f.DistTo(b); ok {
			return d, true
		}
		if f.Reached() == n.Len() {
			return 0, false // whole component scanned; b unreachable
		}
		budget *= 2
	}
	return 0, false
}

type nodeItem struct {
	id   NodeID
	dist float64
}

type nodeHeap []nodeItem

func (h nodeHeap) Len() int            { return len(h) }
func (h nodeHeap) Less(i, j int) bool  { return h[i].dist < h[j].dist }
func (h nodeHeap) Swap(i, j int)       { h[i], h[j] = h[j], h[i] }
func (h *nodeHeap) Push(x interface{}) { *h = append(*h, x.(nodeItem)) }
func (h *nodeHeap) Pop() interface{} {
	old := *h
	n := len(old)
	it := old[n-1]
	*h = old[:n-1]
	return it
}
