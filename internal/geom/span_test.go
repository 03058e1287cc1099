package geom

import (
	"math"
	"math/rand"
	"testing"
)

// straightTrack returns the m+1 period-boundary positions of a track that
// starts at start and moves step per period, accumulated the way
// target.Straight builds its tracks.
func straightTrack(start Point, step Vec, m int) []Point {
	pts := make([]Point, m+1)
	pts[0] = start
	for i := 1; i <= m; i++ {
		pts[i] = pts[i-1].Add(step)
	}
	return pts
}

// bruteCover is the per-period scan Line.Cover replaces: the first and
// last period whose segment passes Dist2 <= rs², and how many pass.
func bruteCover(pts []Point, x Point, rs float64) (first, last, n int) {
	first, last = 1, 0
	for p := 1; p < len(pts); p++ {
		if (Segment{A: pts[p-1], B: pts[p]}).Dist2(x) <= rs*rs {
			if n == 0 {
				first = p
			}
			last = p
			n++
		}
	}
	return first, last, n
}

// checkCover compares Cover against the brute-force scan for one point.
func checkCover(t *testing.T, name string, pts []Point, x Point, rs float64) {
	t.Helper()
	first, last := NewLine(pts).Cover(x, rs)
	bf, bl, n := bruteCover(pts, x, rs)
	if n > 0 && n != bl-bf+1 {
		t.Fatalf("%s: x=%v rs=%v: the covered periods %d..%d have %d gaps", name, x, rs, bf, bl, bl-bf+1-n)
	}
	if max(last-first+1, 0) != n || (n > 0 && (first != bf || last != bl)) {
		t.Fatalf("%s: x=%v rs=%v m=%d: Cover %d..%d, brute force %d..%d (%d periods)",
			name, x, rs, len(pts)-1, first, last, bf, bl, n)
	}
}

// ulps returns v moved k units in the last place (down for negative k).
func ulps(v float64, k int) float64 {
	for ; k > 0; k-- {
		v = math.Nextafter(v, math.Inf(1))
	}
	for ; k < 0; k++ {
		v = math.Nextafter(v, math.Inf(-1))
	}
	return v
}

func TestLineCoverMatchesBruteForce(t *testing.T) {
	rng := rand.New(rand.NewSource(28))
	logUniform := func(lo, hi float64) float64 {
		return math.Exp(math.Log(lo) + rng.Float64()*(math.Log(hi)-math.Log(lo)))
	}
	for trial := 0; trial < 3000; trial++ {
		start := Point{(rng.Float64() - 0.5) * 4e4, (rng.Float64() - 0.5) * 4e4}
		u := Heading(rng.Float64() * 2 * math.Pi)
		n := Vec{-u.Y, u.X}
		step := logUniform(1e-2, 1e3)
		rs := logUniform(1e-2, 2e3)
		m := 1 + rng.Intn(60)
		pts := straightTrack(start, u.Scale(step), m)
		along := func(a, d float64) Point { return start.Add(u.Scale(a)).Add(n.Scale(d)) }
		length := step * float64(m)

		// Uniform points around the track.
		for i := 0; i < 20; i++ {
			a := -2*rs + rng.Float64()*(length+4*rs)
			d := (2*rng.Float64() - 1) * 2 * rs
			checkCover(t, "uniform", pts, along(a, d), rs)
		}
		// Tangent to the track at offsets rs ± a few ulps, the foot inside
		// a segment and on a period boundary.
		for _, a := range []float64{rng.Float64() * length, float64(rng.Intn(m+1)) * step} {
			for k := -4; k <= 4; k++ {
				checkCover(t, "tangent", pts, along(a, ulps(rs, k)), rs)
				checkCover(t, "tangent", pts, along(a, -ulps(rs, k)), rs)
			}
		}
		// Exactly rs from a period boundary, in every direction, and the
		// boundary itself.
		for _, p := range []Point{pts[0], pts[m], pts[rng.Intn(m+1)]} {
			for _, dir := range []Vec{u, u.Scale(-1), n, Heading(rng.Float64() * 2 * math.Pi)} {
				checkCover(t, "endpoint", pts, p.Add(dir.Scale(rs)), rs)
			}
			checkCover(t, "on track", pts, p, rs)
		}
		// On the track between boundaries.
		checkCover(t, "on track", pts, along(rng.Float64()*length, 0), rs)
	}
}

func TestLineCoverScales(t *testing.T) {
	rng := rand.New(rand.NewSource(29))
	cases := []struct {
		name     string
		step, rs float64
		m        int
	}{
		{"rs << step", 1000, 0.5, 40},
		{"rs << step, tiny", 600, 1e-6, 20},
		{"step << rs", 0.5, 100, 600},
		{"step << rs, short track", 1e-3, 1000, 50},
		{"paper scale", 600, 1000, 20},
	}
	for _, c := range cases {
		for trial := 0; trial < 200; trial++ {
			start := Point{rng.Float64() * 32000, rng.Float64() * 32000}
			u := Heading(rng.Float64() * 2 * math.Pi)
			n := Vec{-u.Y, u.X}
			pts := straightTrack(start, u.Scale(c.step), c.m)
			length := c.step * float64(c.m)
			for i := 0; i < 50; i++ {
				a := -2*c.rs + rng.Float64()*(length+4*c.rs)
				d := (2*rng.Float64() - 1) * 1.5 * c.rs
				checkCover(t, c.name, pts, start.Add(u.Scale(a)).Add(n.Scale(d)), c.rs)
			}
			for k := -3; k <= 3; k++ {
				a := rng.Float64() * length
				checkCover(t, c.name+" tangent", pts, start.Add(u.Scale(a)).Add(n.Scale(ulps(c.rs, k))), c.rs)
			}
		}
	}
}

func TestLineCoverDegenerate(t *testing.T) {
	x := Point{1, 1}
	for _, tc := range []struct {
		name string
		pts  []Point
		rs   float64
	}{
		{"no periods", []Point{{0, 0}}, 5},
		{"empty", nil, 5},
		{"negative rs", straightTrack(Point{0, 0}, Vec{1, 0}, 5), -1},
		{"NaN rs", straightTrack(Point{0, 0}, Vec{1, 0}, 5), math.NaN()},
	} {
		if first, last := NewLine(tc.pts).Cover(x, tc.rs); first <= last {
			t.Errorf("%s: covers %d..%d", tc.name, first, last)
		}
	}
	// A parked target: every period is the same point.
	parked := straightTrack(Point{0, 0}, Vec{}, 4)
	if first, last := NewLine(parked).Cover(x, 2); first != 1 || last != 4 {
		t.Errorf("parked target in range: %d..%d, want 1..4", first, last)
	}
	if first, last := NewLine(parked).Cover(x, 1); first <= last {
		t.Errorf("parked target out of range: %d..%d", first, last)
	}
	if first, last := NewLine(straightTrack(Point{0, 0}, Vec{1, 0}, 5)).Cover(Point{math.NaN(), 0}, 5); first <= last {
		t.Errorf("NaN point covers %d..%d", first, last)
	}
}
