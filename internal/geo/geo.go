// Package geo provides the 2-D geometry primitives used throughout the
// cross online matching (COM) system: points, distances, circles (worker
// service ranges) and axis-aligned rectangles (index cells and city
// bounding boxes).
//
// The paper models locations as points in a Euclidean 2-D plane and a
// worker's service range as a disk of radius rad centered at the worker
// (Definition 2.2). All coordinates in this package are kilometres in a
// local plane.
package geo

import (
	"fmt"
	"math"
)

// Point is a location in the 2-D plane. Units are kilometres.
type Point struct {
	X, Y float64
}

// Dist returns the Euclidean distance between p and q.
func (p Point) Dist(q Point) float64 {
	dx, dy := p.X-q.X, p.Y-q.Y
	return math.Sqrt(dx*dx + dy*dy)
}

// Dist2 returns the squared Euclidean distance between p and q. It avoids
// the square root and is the preferred comparison primitive on hot paths.
func (p Point) Dist2(q Point) float64 {
	dx, dy := p.X-q.X, p.Y-q.Y
	return dx*dx + dy*dy
}

// String implements fmt.Stringer.
func (p Point) String() string { return fmt.Sprintf("(%.4f, %.4f)", p.X, p.Y) }

// IsFinite reports whether both coordinates are finite numbers.
func (p Point) IsFinite() bool {
	return !math.IsNaN(p.X) && !math.IsInf(p.X, 0) &&
		!math.IsNaN(p.Y) && !math.IsInf(p.Y, 0)
}

// Circle is a disk: the service range of a worker (Definition 2.2: a
// worker can serve exactly the requests whose location falls inside it).
type Circle struct {
	Center Point
	Radius float64
}

// Contains reports whether p lies inside or on the boundary of c.
// A zero- or negative-radius circle contains only its own center
// (negative radii arise from invalid input and are rejected upstream,
// but Contains is total so indexes never misbehave on them).
func (c Circle) Contains(p Point) bool {
	if c.Radius < 0 {
		return false
	}
	return c.Center.Dist2(p) <= c.Radius*c.Radius
}

// Bounds returns the tight axis-aligned bounding rectangle of c.
func (c Circle) Bounds() Rect {
	r := math.Max(c.Radius, 0)
	return Rect{
		Min: Point{c.Center.X - r, c.Center.Y - r},
		Max: Point{c.Center.X + r, c.Center.Y + r},
	}
}

// Rect is an axis-aligned rectangle, closed on all sides. The zero Rect
// is the single point at the origin.
type Rect struct {
	Min, Max Point
}

// NewRect returns the rectangle spanning the two corner points in any order.
func NewRect(a, b Point) Rect {
	return Rect{
		Min: Point{math.Min(a.X, b.X), math.Min(a.Y, b.Y)},
		Max: Point{math.Max(a.X, b.X), math.Max(a.Y, b.Y)},
	}
}

// Contains reports whether p lies inside or on the boundary of r.
func (r Rect) Contains(p Point) bool {
	return p.X >= r.Min.X && p.X <= r.Max.X && p.Y >= r.Min.Y && p.Y <= r.Max.Y
}

// Width returns the horizontal extent of r.
func (r Rect) Width() float64 { return r.Max.X - r.Min.X }

// Height returns the vertical extent of r.
func (r Rect) Height() float64 { return r.Max.Y - r.Min.Y }

// Area returns the area of r; degenerate rectangles have zero area.
func (r Rect) Area() float64 {
	w, h := r.Width(), r.Height()
	if w < 0 || h < 0 {
		return 0
	}
	return w * h
}

// Center returns the midpoint of r.
func (r Rect) Center() Point {
	return Point{(r.Min.X + r.Max.X) / 2, (r.Min.Y + r.Max.Y) / 2}
}

// Valid reports whether Min is component-wise <= Max and all coordinates
// are finite.
func (r Rect) Valid() bool {
	return r.Min.IsFinite() && r.Max.IsFinite() &&
		r.Min.X <= r.Max.X && r.Min.Y <= r.Max.Y
}

// Expand returns r grown by d on every side. Negative d shrinks; the
// result may become invalid, which Valid detects.
func (r Rect) Expand(d float64) Rect {
	return Rect{
		Min: Point{r.Min.X - d, r.Min.Y - d},
		Max: Point{r.Max.X + d, r.Max.Y + d},
	}
}

// ClosestPoint returns the point of r closest to p (p itself when inside).
func (r Rect) ClosestPoint(p Point) Point {
	return Point{clamp(p.X, r.Min.X, r.Max.X), clamp(p.Y, r.Min.Y, r.Max.Y)}
}

func clamp(v, lo, hi float64) float64 {
	if v < lo {
		return lo
	}
	if v > hi {
		return hi
	}
	return v
}
