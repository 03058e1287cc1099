// Package geom provides the planar geometry underlying the detection model:
// points, segments, point-to-segment distance (the sensing coverage test),
// circle and stadium areas, and the circle-circle lens area that the paper's
// detectable-region decompositions reduce to.
//
// Conventions: coordinates are meters; areas are square meters.
package geom

import "math"

// Point is a location in the plane.
type Point struct {
	X, Y float64
}

// Vec is a displacement in the plane.
type Vec struct {
	X, Y float64
}

// Add returns p translated by v.
func (p Point) Add(v Vec) Point { return Point{p.X + v.X, p.Y + v.Y} }

// Sub returns the displacement from q to p.
func (p Point) Sub(q Point) Vec { return Vec{p.X - q.X, p.Y - q.Y} }

// Dist returns the Euclidean distance between p and q.
func (p Point) Dist(q Point) float64 { return math.Hypot(p.X-q.X, p.Y-q.Y) }

// Nearest returns the index of the point in pts nearest c by Dist; the
// first index wins a tie, and an empty pts gives 0. It is the
// base-station rule: the base is the sensor nearest the field centre.
func Nearest(pts []Point, c Point) int {
	best := 0
	for i, p := range pts {
		if p.Dist(c) < pts[best].Dist(c) {
			best = i
		}
	}
	return best
}

// Dist2 returns the squared Euclidean distance between p and q.
func (p Point) Dist2(q Point) float64 {
	dx, dy := p.X-q.X, p.Y-q.Y
	return dx*dx + dy*dy
}

// Scale returns v scaled by s.
func (v Vec) Scale(s float64) Vec { return Vec{v.X * s, v.Y * s} }

// Dot returns the dot product of v and w.
func (v Vec) Dot(w Vec) float64 { return v.X*w.X + v.Y*w.Y }

// Norm returns the Euclidean length of v.
func (v Vec) Norm() float64 { return math.Hypot(v.X, v.Y) }

// Unit returns v normalized to length 1. The zero vector is returned
// unchanged.
func (v Vec) Unit() Vec {
	n := v.Norm()
	if n == 0 {
		return v
	}
	return Vec{v.X / n, v.Y / n}
}

// Heading returns the unit vector at angle theta radians from the +X axis.
func Heading(theta float64) Vec {
	return Vec{math.Cos(theta), math.Sin(theta)}
}

// Angle returns the angle of v from the +X axis in (-pi, pi].
func (v Vec) Angle() float64 { return math.Atan2(v.Y, v.X) }

// Segment is the line segment from A to B. A == B degenerates to a point.
type Segment struct {
	A, B Point
}

// Length returns the segment length.
func (s Segment) Length() float64 { return s.A.Dist(s.B) }

// ClosestPoint returns the point on s nearest to p.
func (s Segment) ClosestPoint(p Point) Point {
	ab := s.B.Sub(s.A)
	den := ab.Dot(ab)
	if den == 0 {
		return s.A
	}
	t := p.Sub(s.A).Dot(ab) / den
	switch {
	case t <= 0:
		return s.A
	case t >= 1:
		return s.B
	default:
		return s.A.Add(ab.Scale(t))
	}
}

// Dist returns the distance from p to the segment.
func (s Segment) Dist(p Point) float64 {
	return p.Dist(s.ClosestPoint(p))
}

// Dist2 returns the squared distance from p to the segment. This is the hot
// call in the simulator's coverage test, so it avoids the square root.
func (s Segment) Dist2(p Point) float64 {
	return p.Dist2(s.ClosestPoint(p))
}

// Rect is an axis-aligned rectangle spanning [MinX, MaxX] x [MinY, MaxY].
type Rect struct {
	MinX, MinY, MaxX, MaxY float64
}

// Square returns the square [0, side] x [0, side].
func Square(side float64) Rect {
	return Rect{0, 0, side, side}
}

// Area returns the rectangle's area (zero for inverted rectangles).
func (r Rect) Area() float64 {
	w := r.MaxX - r.MinX
	h := r.MaxY - r.MinY
	if w <= 0 || h <= 0 {
		return 0
	}
	return w * h
}

// Contains reports whether p lies inside r (inclusive of the boundary).
func (r Rect) Contains(p Point) bool {
	return p.X >= r.MinX && p.X <= r.MaxX && p.Y >= r.MinY && p.Y <= r.MaxY
}

// CircleArea returns pi*r^2 (zero for negative radii).
func CircleArea(r float64) float64 {
	if r <= 0 {
		return 0
	}
	return math.Pi * r * r
}

// StadiumArea returns the area of a stadium (capsule): the set of points
// within distance r of a segment of length l. This is the detectable region
// of a target that moves distance l in one sensing period with sensing
// range r: 2*r*l + pi*r^2 (Figure 1 of the paper).
func StadiumArea(l, r float64) float64 {
	if r <= 0 {
		return 0
	}
	if l < 0 {
		l = 0
	}
	return 2*r*l + CircleArea(r)
}

// LensArea returns the area of the intersection of two circles of equal
// radius r whose centers are distance d apart:
//
//	2 r^2 acos(d/(2r)) - (d/2) sqrt(4 r^2 - d^2)
//
// which is the "2 Rs^2 arccos(dVt/2Rs) - dVt sqrt(Rs^2 - (dVt/2)^2)" term in
// Eq. (6) of the paper. Centers coinciding gives the full circle; centers at
// distance >= 2r give zero.
func LensArea(r, d float64) float64 {
	if r <= 0 {
		return 0
	}
	if d < 0 {
		d = -d
	}
	if d >= 2*r {
		return 0
	}
	if d == 0 {
		return CircleArea(r)
	}
	half := d / 2
	a := 2*r*r*math.Acos(half/r) - d*math.Sqrt(r*r-half*half)
	// Near tangency (d -> 2r) the two terms cancel catastrophically and
	// rounding can produce a tiny negative result; the analytic value is
	// non-negative, so clamp.
	if a < 0 {
		return 0
	}
	return a
}

// SegmentCircleOverlapLength returns the length of the portion of segment
// s that lies inside the circle of the given center and radius. It is the
// chord geometry behind exposure-based sensing: the time a constant-speed
// target spends inside a sensor's disk during one period is this length
// divided by the speed.
func SegmentCircleOverlapLength(s Segment, center Point, r float64) float64 {
	if r <= 0 {
		return 0
	}
	d := s.B.Sub(s.A)
	segLen := d.Norm()
	if segLen == 0 {
		return 0 // a point has zero dwell length even when inside
	}
	// Solve |A + t*d - C|^2 = r^2 for t in [0, 1].
	f := s.A.Sub(center)
	a := d.Dot(d)
	b := 2 * f.Dot(d)
	c := f.Dot(f) - r*r
	disc := b*b - 4*a*c
	if disc <= 0 {
		return 0 // tangent or no intersection: zero-length overlap
	}
	sq := math.Sqrt(disc)
	t1 := (-b - sq) / (2 * a)
	t2 := (-b + sq) / (2 * a)
	lo := math.Max(0, t1)
	hi := math.Min(1, t2)
	if hi <= lo {
		return 0
	}
	return (hi - lo) * segLen
}
