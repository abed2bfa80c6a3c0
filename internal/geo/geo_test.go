package geo

import (
	"math"
	"testing"
	"testing/quick"
)

func almostEqual(a, b, eps float64) bool { return math.Abs(a-b) <= eps }

func TestPointDist(t *testing.T) {
	tests := []struct {
		name string
		p, q Point
		want float64
	}{
		{"same point", Point{1, 2}, Point{1, 2}, 0},
		{"unit x", Point{0, 0}, Point{1, 0}, 1},
		{"unit y", Point{0, 0}, Point{0, 1}, 1},
		{"3-4-5", Point{0, 0}, Point{3, 4}, 5},
		{"negative coords", Point{-1, -1}, Point{2, 3}, 5},
		{"symmetric", Point{7, -2}, Point{-3, 5}, math.Sqrt(100 + 49)},
	}
	for _, tt := range tests {
		t.Run(tt.name, func(t *testing.T) {
			if got := tt.p.Dist(tt.q); !almostEqual(got, tt.want, 1e-12) {
				t.Errorf("Dist(%v, %v) = %v, want %v", tt.p, tt.q, got, tt.want)
			}
			if got := tt.q.Dist(tt.p); !almostEqual(got, tt.want, 1e-12) {
				t.Errorf("Dist not symmetric: %v vs %v", got, tt.want)
			}
		})
	}
}

func TestDist2MatchesDistSquared(t *testing.T) {
	f := func(ax, ay, bx, by float64) bool {
		// Constrain to a sane coordinate range; quick generates huge values
		// whose squares overflow the comparison tolerance.
		p := Point{math.Mod(ax, 1e3), math.Mod(ay, 1e3)}
		q := Point{math.Mod(bx, 1e3), math.Mod(by, 1e3)}
		d := p.Dist(q)
		return almostEqual(p.Dist2(q), d*d, 1e-6)
	}
	if err := quick.Check(f, nil); err != nil {
		t.Error(err)
	}
}

func TestTriangleInequality(t *testing.T) {
	f := func(ax, ay, bx, by, cx, cy float64) bool {
		a := Point{math.Mod(ax, 1e3), math.Mod(ay, 1e3)}
		b := Point{math.Mod(bx, 1e3), math.Mod(by, 1e3)}
		c := Point{math.Mod(cx, 1e3), math.Mod(cy, 1e3)}
		return a.Dist(c) <= a.Dist(b)+b.Dist(c)+1e-9
	}
	if err := quick.Check(f, nil); err != nil {
		t.Error(err)
	}
}

func TestPointIsFinite(t *testing.T) {
	if !(Point{1, 2}).IsFinite() {
		t.Error("finite point reported non-finite")
	}
	for _, p := range []Point{
		{math.NaN(), 0}, {0, math.NaN()},
		{math.Inf(1), 0}, {0, math.Inf(-1)},
	} {
		if p.IsFinite() {
			t.Errorf("%v reported finite", p)
		}
	}
}

func TestCircleContains(t *testing.T) {
	c := Circle{Center: Point{0, 0}, Radius: 2}
	tests := []struct {
		name string
		p    Point
		want bool
	}{
		{"center", Point{0, 0}, true},
		{"inside", Point{1, 1}, true},
		{"on boundary", Point{2, 0}, true},
		{"outside", Point{2.001, 0}, false},
		{"diagonal outside", Point{1.5, 1.5}, false},
	}
	for _, tt := range tests {
		t.Run(tt.name, func(t *testing.T) {
			if got := c.Contains(tt.p); got != tt.want {
				t.Errorf("Contains(%v) = %v, want %v", tt.p, got, tt.want)
			}
		})
	}
}

func TestCircleContainsDegenerate(t *testing.T) {
	zero := Circle{Center: Point{1, 1}, Radius: 0}
	if !zero.Contains(Point{1, 1}) {
		t.Error("zero-radius circle must contain its center")
	}
	if zero.Contains(Point{1, 1.0001}) {
		t.Error("zero-radius circle contains a distinct point")
	}
	neg := Circle{Center: Point{0, 0}, Radius: -1}
	if neg.Contains(Point{0, 0}) {
		t.Error("negative-radius circle contains a point")
	}
}

func TestCircleBounds(t *testing.T) {
	c := Circle{Center: Point{1, -1}, Radius: 2}
	b := c.Bounds()
	want := Rect{Min: Point{-1, -3}, Max: Point{3, 1}}
	if b != want {
		t.Errorf("Bounds = %v, want %v", b, want)
	}
	if nb := (Circle{Center: Point{0, 0}, Radius: -5}).Bounds(); nb != (Rect{}) {
		t.Errorf("negative radius bounds = %v, want zero rect", nb)
	}
}

func TestCircleContainsImpliesBoundsContains(t *testing.T) {
	f := func(cx, cy, r, px, py float64) bool {
		c := Circle{Point{math.Mod(cx, 100), math.Mod(cy, 100)}, math.Abs(math.Mod(r, 50))}
		p := Point{math.Mod(px, 100), math.Mod(py, 100)}
		if c.Contains(p) {
			return c.Bounds().Contains(p)
		}
		return true
	}
	if err := quick.Check(f, nil); err != nil {
		t.Error(err)
	}
}

func TestNewRectNormalizes(t *testing.T) {
	r := NewRect(Point{3, -1}, Point{-2, 4})
	want := Rect{Min: Point{-2, -1}, Max: Point{3, 4}}
	if r != want {
		t.Errorf("NewRect = %v, want %v", r, want)
	}
	if !r.Valid() {
		t.Error("normalized rect must be valid")
	}
}

func TestRectContains(t *testing.T) {
	r := NewRect(Point{0, 0}, Point{2, 2})
	for _, p := range []Point{{0, 0}, {2, 2}, {1, 1}, {0, 2}} {
		if !r.Contains(p) {
			t.Errorf("should contain %v", p)
		}
	}
	for _, p := range []Point{{-0.1, 1}, {1, 2.1}, {3, 3}} {
		if r.Contains(p) {
			t.Errorf("should not contain %v", p)
		}
	}
}

func TestRectGeometry(t *testing.T) {
	r := NewRect(Point{0, 0}, Point{4, 2})
	if r.Width() != 4 || r.Height() != 2 || r.Area() != 8 {
		t.Errorf("w/h/area = %v/%v/%v", r.Width(), r.Height(), r.Area())
	}
	if r.Center() != (Point{2, 1}) {
		t.Errorf("Center = %v", r.Center())
	}
	e := r.Expand(1)
	if e != NewRect(Point{-1, -1}, Point{5, 3}) {
		t.Errorf("Expand = %v", e)
	}
	if shrunk := r.Expand(-3); shrunk.Valid() {
		t.Error("over-shrunk rect should be invalid")
	}
}

func TestRectClosestPointAndDist(t *testing.T) {
	r := NewRect(Point{0, 0}, Point{2, 2})
	tests := []struct {
		p        Point
		wantPt   Point
		wantDist float64
	}{
		{Point{1, 1}, Point{1, 1}, 0},
		{Point{-1, 1}, Point{0, 1}, 1},
		{Point{3, 3}, Point{2, 2}, math.Sqrt2},
		{Point{1, -2}, Point{1, 0}, 2},
	}
	for _, tt := range tests {
		if got := r.ClosestPoint(tt.p); got != tt.wantPt {
			t.Errorf("ClosestPoint(%v) = %v, want %v", tt.p, got, tt.wantPt)
		}
		if got := r.ClosestPoint(tt.p).Dist(tt.p); !almostEqual(got, tt.wantDist, 1e-12) {
			t.Errorf("distance to %v = %v, want %v", tt.p, got, tt.wantDist)
		}
	}
}
