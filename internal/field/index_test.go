package field

import (
	"errors"
	"math"
	"slices"
	"testing"

	"github.com/groupdetect/gbd/internal/geom"
)

// TestPairsMatchesQueryCircle checks the contract netsim relies on: a
// single in-order sweep over the Pairs stream rebuilds, for every point,
// exactly the neighbor list (same members, same order) that a QueryCircle
// around that point reports, minus the point itself.
func TestPairsMatchesQueryCircle(t *testing.T) {
	bounds := geom.Square(1000)
	for _, r := range []float64{60, 170, 400, 2000} {
		for seed := int64(0); seed < 6; seed++ {
			rng := NewRand(seed)
			pts, err := Uniform(70, bounds, rng)
			if err != nil {
				t.Fatal(err)
			}
			idx, err := NewIndex(pts, bounds, r)
			if err != nil {
				t.Fatal(err)
			}

			want := make([][]int32, len(pts))
			buf := make([]int, 0, len(pts))
			for i, p := range pts {
				buf = idx.QueryCircle(p, r, buf[:0])
				for _, j := range buf {
					if j != i {
						want[i] = append(want[i], int32(j))
					}
				}
			}

			got := make([][]int32, len(pts))
			for _, e := range idx.Pairs(r, nil) {
				got[e[0]] = append(got[e[0]], e[1])
				got[e[1]] = append(got[e[1]], e[0])
			}

			for i := range want {
				if len(want[i]) != len(got[i]) {
					t.Fatalf("r=%v seed=%d: point %d has %d pair neighbors, QueryCircle reports %d", r, seed, i, len(got[i]), len(want[i]))
				}
				for k := range want[i] {
					if want[i][k] != got[i][k] {
						t.Fatalf("r=%v seed=%d: point %d neighbor %d is %d via Pairs, %d via QueryCircle", r, seed, i, k, got[i][k], want[i][k])
					}
				}
			}
		}
	}
}

// TestPairsNegativeRadius checks the degenerate guard.
func TestPairsNegativeRadius(t *testing.T) {
	idx, err := NewIndex([]geom.Point{{X: 1, Y: 1}, {X: 2, Y: 2}}, geom.Square(10), 5)
	if err != nil {
		t.Fatal(err)
	}
	if got := idx.Pairs(-1, nil); len(got) != 0 {
		t.Fatalf("Pairs(-1) returned %d pairs, want none", len(got))
	}
}

// TestWindowedIndexMatchesFullField checks the window contract the trial
// kernel relies on: an index windowed to a track's bounding box inflated
// by the query radius answers every query along that track — segments
// and circles — with exactly the ids, in exactly the order, of an index
// over the whole field. The cell sizes are the kernel's
// max(Rs, fieldSide/256) at Rs = 1000 m over 32 km and at a small Rs
// where fieldSide/256 wins (denser, so its queries still find sensors);
// the tracks start up to 3 km outside the field and run 10 km, so many
// windows cross or lie past its edge.
func TestWindowedIndexMatchesFullField(t *testing.T) {
	const side = 32000.0
	bounds := geom.Square(side)
	for _, tc := range []struct {
		rs float64
		n  int
	}{{1000, 240}, {100, 5000}} {
		rs := tc.rs
		cell := max(rs, side/256)
		hits := 0
		for seed := int64(0); seed < 8; seed++ {
			rng := NewRand(seed)
			pts, err := Uniform(tc.n, bounds, rng)
			if err != nil {
				t.Fatal(err)
			}
			full, err := NewIndex(pts, bounds, cell)
			if err != nil {
				t.Fatal(err)
			}
			var win Index
			var got, want []int
			for trk := 0; trk < 20; trk++ {
				track := make([]geom.Point, 21)
				track[0] = geom.Point{X: -3000 + rng.Float64()*(side+6000), Y: -3000 + rng.Float64()*(side+6000)}
				step := geom.Heading(2 * math.Pi * rng.Float64()).Scale(500)
				box := geom.Rect{MinX: math.Inf(1), MinY: math.Inf(1), MaxX: math.Inf(-1), MaxY: math.Inf(-1)}
				for i := range track {
					if i > 0 {
						track[i] = track[i-1].Add(step)
					}
					box.MinX, box.MaxX = min(box.MinX, track[i].X), max(box.MaxX, track[i].X)
					box.MinY, box.MaxY = min(box.MinY, track[i].Y), max(box.MaxY, track[i].Y)
				}
				window := geom.Rect{MinX: box.MinX - rs, MinY: box.MinY - rs, MaxX: box.MaxX + rs, MaxY: box.MaxY + rs}
				if err := win.Rebuild(pts, bounds, window, cell); err != nil {
					t.Fatal(err)
				}
				for i := 1; i < len(track); i++ {
					seg := geom.Segment{A: track[i-1], B: track[i]}
					want = full.QuerySegment(seg, rs, want[:0])
					got = win.QuerySegment(seg, rs, got[:0])
					if !slices.Equal(got, want) {
						t.Fatalf("rs=%v seed=%d track %d segment %d: windowed %v, full field %v", rs, seed, trk, i, got, want)
					}
					hits += len(want)
					mid := geom.Point{X: (seg.A.X + seg.B.X) / 2, Y: (seg.A.Y + seg.B.Y) / 2}
					for _, c := range []geom.Point{seg.A, mid} {
						want = full.QueryCircle(c, rs, want[:0])
						got = win.QueryCircle(c, rs, got[:0])
						if !slices.Equal(got, want) {
							t.Fatalf("rs=%v seed=%d track %d circle at %v: windowed %v, full field %v", rs, seed, trk, c, got, want)
						}
					}
				}
			}
		}
		if hits < 1000 {
			t.Fatalf("rs=%v: segment queries found only %d sensors; the comparison is too thin", rs, hits)
		}
	}
}

// TestRebuildRejectsBadWindow checks that an inverted or non-finite
// window is a typed error that leaves the index as it was.
func TestRebuildRejectsBadWindow(t *testing.T) {
	bounds := geom.Square(100)
	pts := []geom.Point{{X: 10, Y: 10}, {X: 90, Y: 90}}
	idx, err := NewIndex(pts, bounds, 10)
	if err != nil {
		t.Fatal(err)
	}
	for _, w := range []geom.Rect{
		{MinX: 50, MinY: 0, MaxX: 40, MaxY: 100},
		{MinX: 0, MinY: 0, MaxX: math.NaN(), MaxY: 100},
		{MinX: math.Inf(-1), MinY: 0, MaxX: 100, MaxY: 100},
	} {
		if err := idx.Rebuild(pts[:1], bounds, w, 10); !errors.Is(err, ErrDeploy) {
			t.Errorf("window %+v: err = %v, want ErrDeploy", w, err)
		}
	}
	if got := idx.QueryCircle(geom.Point{X: 90, Y: 90}, 1, nil); len(got) != 1 || got[0] != 1 {
		t.Errorf("after rejected rebuilds the index answers %v, want [1]", got)
	}
}
