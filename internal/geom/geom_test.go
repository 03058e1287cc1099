package geom

import (
	"math"
	"math/rand"
	"testing"
	"testing/quick"

	"github.com/groupdetect/gbd/internal/numeric"
)

func TestPointVecBasics(t *testing.T) {
	p := Point{1, 2}
	q := p.Add(Vec{3, 4})
	if q != (Point{4, 6}) {
		t.Errorf("Add = %v", q)
	}
	if v := q.Sub(p); v != (Vec{3, 4}) {
		t.Errorf("Sub = %v", v)
	}
	if d := p.Dist(q); !numeric.AlmostEqual(d, 5, 1e-12, 1e-12) {
		t.Errorf("Dist = %v, want 5", d)
	}
	if d2 := p.Dist2(q); d2 != 25 {
		t.Errorf("Dist2 = %v, want 25", d2)
	}
}

func TestVecOps(t *testing.T) {
	v := Vec{3, 4}
	if n := v.Norm(); n != 5 {
		t.Errorf("Norm = %v", n)
	}
	u := v.Unit()
	if !numeric.AlmostEqual(u.Norm(), 1, 1e-12, 1e-12) {
		t.Errorf("Unit norm = %v", u.Norm())
	}
	if z := (Vec{}).Unit(); z != (Vec{}) {
		t.Errorf("zero Unit = %v", z)
	}
	if d := v.Dot(Vec{1, 1}); d != 7 {
		t.Errorf("Dot = %v", d)
	}
	if s := v.Scale(2); s != (Vec{6, 8}) {
		t.Errorf("Scale = %v", s)
	}
	h := Heading(math.Pi / 2)
	if !numeric.AlmostEqual(h.Y, 1, 1e-12, 1e-12) || math.Abs(h.X) > 1e-12 {
		t.Errorf("Heading(pi/2) = %v", h)
	}
	if a := (Vec{0, 1}).Angle(); !numeric.AlmostEqual(a, math.Pi/2, 1e-12, 1e-12) {
		t.Errorf("Angle = %v", a)
	}
}

func TestSegmentDistance(t *testing.T) {
	s := Segment{Point{0, 0}, Point{10, 0}}
	tests := []struct {
		p    Point
		want float64
	}{
		{Point{5, 3}, 3},      // perpendicular foot inside
		{Point{-4, 3}, 5},     // clamps to A
		{Point{14, 3}, 5},     // clamps to B
		{Point{5, 0}, 0},      // on the segment
		{Point{0, 0}, 0},      // endpoint
		{Point{5, -2}, 2},     // below
		{Point{10.5, 0}, 0.5}, // past B on the line
		{Point{-0.5, 0}, 0.5}, // before A on the line
	}
	for _, tt := range tests {
		if got := s.Dist(tt.p); !numeric.AlmostEqual(got, tt.want, 1e-12, 1e-12) {
			t.Errorf("Dist(%v) = %v, want %v", tt.p, got, tt.want)
		}
		if got := s.Dist2(tt.p); !numeric.AlmostEqual(got, tt.want*tt.want, 1e-12, 1e-12) {
			t.Errorf("Dist2(%v) = %v, want %v", tt.p, got, tt.want*tt.want)
		}
	}
}

func TestDegenerateSegment(t *testing.T) {
	s := Segment{Point{2, 2}, Point{2, 2}}
	if got := s.Dist(Point{5, 6}); got != 5 {
		t.Errorf("point-segment Dist = %v, want 5", got)
	}
	if s.Length() != 0 {
		t.Errorf("Length = %v", s.Length())
	}
}

func TestSegmentDistMatchesBruteForce(t *testing.T) {
	rng := rand.New(rand.NewSource(11))
	for trial := 0; trial < 200; trial++ {
		s := Segment{
			Point{rng.Float64() * 10, rng.Float64() * 10},
			Point{rng.Float64() * 10, rng.Float64() * 10},
		}
		p := Point{rng.Float64()*20 - 5, rng.Float64()*20 - 5}
		// Brute-force: sample the segment densely.
		best := math.Inf(1)
		const steps = 2000
		for i := 0; i <= steps; i++ {
			tt := float64(i) / steps
			q := Point{s.A.X + tt*(s.B.X-s.A.X), s.A.Y + tt*(s.B.Y-s.A.Y)}
			if d := p.Dist(q); d < best {
				best = d
			}
		}
		got := s.Dist(p)
		if !numeric.AlmostEqual(got, best, 1e-4, 1e-4) {
			t.Fatalf("Dist(%v,%v) = %v, brute force %v", s, p, got, best)
		}
	}
}

func TestRect(t *testing.T) {
	r := Square(10)
	if r.Area() != 100 {
		t.Errorf("Area = %v", r.Area())
	}
	if !r.Contains(Point{0, 0}) || !r.Contains(Point{10, 10}) {
		t.Error("boundary points should be contained")
	}
	if r.Contains(Point{10.01, 5}) {
		t.Error("outside point contained")
	}
	if inv := (Rect{5, 5, 1, 1}).Area(); inv != 0 {
		t.Errorf("inverted rect area = %v, want 0", inv)
	}
}

func TestCircleStadiumArea(t *testing.T) {
	if got := CircleArea(2); !numeric.AlmostEqual(got, 4*math.Pi, 1e-12, 1e-12) {
		t.Errorf("CircleArea(2) = %v", got)
	}
	if CircleArea(-1) != 0 {
		t.Error("negative radius should give 0")
	}
	if got := StadiumArea(10, 1); !numeric.AlmostEqual(got, 20+math.Pi, 1e-12, 1e-12) {
		t.Errorf("StadiumArea = %v", got)
	}
	if got := StadiumArea(0, 1); !numeric.AlmostEqual(got, math.Pi, 1e-12, 1e-12) {
		t.Errorf("StadiumArea(l=0) = %v, want pi", got)
	}
	if got := StadiumArea(-5, 1); !numeric.AlmostEqual(got, math.Pi, 1e-12, 1e-12) {
		t.Errorf("StadiumArea(l<0) = %v, want pi", got)
	}
	if StadiumArea(5, 0) != 0 {
		t.Error("zero radius stadium should be 0")
	}
}

func TestLensAreaEdges(t *testing.T) {
	r := 3.0
	if got := LensArea(r, 0); !numeric.AlmostEqual(got, CircleArea(r), 1e-12, 1e-12) {
		t.Errorf("coincident lens = %v, want full circle", got)
	}
	if got := LensArea(r, 2*r); got != 0 {
		t.Errorf("tangent lens = %v, want 0", got)
	}
	if got := LensArea(r, 100); got != 0 {
		t.Errorf("disjoint lens = %v, want 0", got)
	}
	if got := LensArea(r, -1); !numeric.AlmostEqual(got, LensArea(r, 1), 1e-12, 1e-12) {
		t.Error("lens should be symmetric in d")
	}
	if LensArea(0, 1) != 0 {
		t.Error("zero radius lens should be 0")
	}
}

func TestLensAreaAgainstMonteCarlo(t *testing.T) {
	r := 2.0
	rng := rand.New(rand.NewSource(5))
	for _, d := range []float64{0.5, 1.0, 2.0, 3.0, 3.9} {
		c1 := Point{0, 0}
		c2 := Point{d, 0}
		bounds := Rect{-r, -r, d + r, r}
		est := MonteCarloArea(bounds, 400_000, rng, func(p Point) bool {
			return p.Dist(c1) <= r && p.Dist(c2) <= r
		})
		want := LensArea(r, d)
		if !numeric.AlmostEqual(est, want, 0.05, 0.02) {
			t.Errorf("d=%v: MC lens = %v, closed form %v", d, est, want)
		}
	}
}

func TestLensAreaMonotoneDecreasing(t *testing.T) {
	f := func(d1Raw, d2Raw float64) bool {
		r := 5.0
		d1 := math.Abs(math.Mod(d1Raw, 2*r))
		d2 := math.Abs(math.Mod(d2Raw, 2*r))
		if d1 > d2 {
			d1, d2 = d2, d1
		}
		return LensArea(r, d1) >= LensArea(r, d2)-1e-9
	}
	cfg := &quick.Config{MaxCount: 500, Rand: rand.New(rand.NewSource(3))}
	if err := quick.Check(f, cfg); err != nil {
		t.Error(err)
	}
}

func TestMonteCarloAreaEdges(t *testing.T) {
	rng := rand.New(rand.NewSource(1))
	always := func(Point) bool { return true }
	if got := MonteCarloArea(Square(2), 100, rng, always); got != 4 {
		t.Errorf("full-hit MC = %v, want 4", got)
	}
	if got := MonteCarloArea(Square(2), 0, rng, always); got != 0 {
		t.Errorf("n=0 MC = %v, want 0", got)
	}
	if got := MonteCarloArea(Rect{1, 1, 1, 1}, 100, rng, always); got != 0 {
		t.Errorf("empty rect MC = %v, want 0", got)
	}
}

func TestSegmentCircleOverlapLength(t *testing.T) {
	c := Point{X: 0, Y: 0}
	tests := []struct {
		name string
		seg  Segment
		r    float64
		want float64
	}{
		{"through center", Segment{Point{-10, 0}, Point{10, 0}}, 2, 4},
		{"fully inside", Segment{Point{-1, 0}, Point{1, 0}}, 5, 2},
		{"misses", Segment{Point{-10, 3}, Point{10, 3}}, 2, 0},
		{"tangent", Segment{Point{-10, 2}, Point{10, 2}}, 2, 0},
		{"enters only", Segment{Point{-10, 0}, Point{0, 0}}, 2, 2},
		{"chord off-axis", Segment{Point{-10, 1}, Point{10, 1}}, 2, 2 * math.Sqrt(3)},
		{"degenerate", Segment{Point{1, 0}, Point{1, 0}}, 2, 0},
		{"zero radius", Segment{Point{-1, 0}, Point{1, 0}}, 0, 0},
	}
	for _, tt := range tests {
		got := SegmentCircleOverlapLength(tt.seg, c, tt.r)
		if !numeric.AlmostEqual(got, tt.want, 1e-9, 1e-9) {
			t.Errorf("%s: overlap = %v, want %v", tt.name, got, tt.want)
		}
	}
}

func TestSegmentCircleOverlapMonteCarlo(t *testing.T) {
	// Sample points along random segments and compare the inside fraction
	// with the analytic overlap.
	rng := rand.New(rand.NewSource(19))
	c := Point{X: 5, Y: 5}
	r := 3.0
	for trial := 0; trial < 50; trial++ {
		seg := Segment{
			Point{rng.Float64() * 10, rng.Float64() * 10},
			Point{rng.Float64() * 10, rng.Float64() * 10},
		}
		want := SegmentCircleOverlapLength(seg, c, r)
		const steps = 20000
		inside := 0
		for i := 0; i < steps; i++ {
			tt := (float64(i) + 0.5) / steps
			p := Point{seg.A.X + tt*(seg.B.X-seg.A.X), seg.A.Y + tt*(seg.B.Y-seg.A.Y)}
			if p.Dist(c) <= r {
				inside++
			}
		}
		got := float64(inside) / steps * seg.Length()
		if !numeric.AlmostEqual(got, want, 0.01, 0.01) {
			t.Fatalf("trial %d: MC %v vs analytic %v (seg %v)", trial, got, want, seg)
		}
	}
}

// TestNearest: the base-station rule picks the point nearest the centre,
// the first index on a tie, and 0 for no points.
func TestNearest(t *testing.T) {
	c := Point{5, 5}
	for _, tc := range []struct {
		pts  []Point
		want int
	}{
		{nil, 0},
		{[]Point{{0, 0}}, 0},
		{[]Point{{0, 0}, {4, 4}, {9, 9}}, 1},
		{[]Point{{9, 9}, {5, 6}, {6, 5}, {5, 4}}, 1}, // three at distance 1
		{[]Point{{1, 1}, {9, 9}}, 0},                 // mirrored: first wins
	} {
		if got := Nearest(tc.pts, c); got != tc.want {
			t.Errorf("Nearest(%v, %v) = %d, want %d", tc.pts, c, got, tc.want)
		}
	}
}
