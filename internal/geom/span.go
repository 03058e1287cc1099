package geom

import "math"

// Line is a straight constant-speed track prepared for Cover: the
// period-boundary positions pts[0..m], period p sweeping the segment from
// pts[p-1] to pts[p]. It holds pts, which must not change while it is used.
type Line struct {
	pts  []Point
	u    Vec     // unit heading, pts[0] toward pts[m]
	step float64 // mean travel per period
}

// NewLine prepares the straight track pts for Cover.
func NewLine(pts []Point) Line {
	l := Line{pts: pts}
	if m := len(pts) - 1; m > 0 {
		d := pts[m].Sub(pts[0])
		if n := d.Norm(); n > 0 {
			l.u = Vec{d.X / n, d.Y / n}
			l.step = n / float64(m)
		}
	}
	return l
}

// Cover returns the first and last of the track's periods whose segment
// lies within rs of x by the sensing predicate Segment.Dist2(x) <= rs*rs,
// and last < first when none does (a negative rs covers nothing). A point
// at perpendicular distance d from the track sees it along one chord,
// u ± √(rs² − d²), so the periods it covers are one contiguous range: the
// span of the paper's Region(i).
//
// The chord gives a candidate range one period wider on each side, and a
// point farther than rs plus one period from the line is out at once; the
// slack absorbs the rounding of the chord and of the track's accumulated
// positions. The exact predicate then confirms the two ends, each moving
// inward past uncovered periods. So the span holds exactly the periods the
// predicate covers wherever those are contiguous, which a straight track's
// are unless its step is at the rounding scale of its coordinates.
func (l Line) Cover(x Point, rs float64) (first, last int) {
	m := len(l.pts) - 1
	if m < 1 || !(rs >= 0) {
		return 1, 0
	}
	w := x.Sub(l.pts[0])
	d := l.u.X*w.Y - l.u.Y*w.X // signed offset from the line
	if math.Abs(d) > rs+l.step {
		return 1, 0
	}
	lo, hi := 1.0, float64(m)
	if l.step > 0 {
		a := l.u.Dot(w)
		h := math.Sqrt(max(rs*rs-d*d, 0))
		// Period p meets the chord iff (p-1)·step <= a+h and p·step >= a-h.
		lo = max(lo, math.Ceil((a-h)/l.step)-1)
		hi = min(hi, math.Floor((a+h)/l.step)+2)
	}
	if !(lo <= hi) {
		return 1, 0
	}
	r2 := rs * rs
	covered := func(p int) bool {
		return Segment{A: l.pts[p-1], B: l.pts[p]}.Dist2(x) <= r2
	}
	first, last = int(lo), int(hi)
	for first <= last && !covered(first) {
		first++
	}
	if first > last {
		return 1, 0
	}
	for !covered(last) {
		last--
	}
	return first, last
}
