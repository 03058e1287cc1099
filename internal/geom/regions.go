package geom

import (
	"errors"
	"fmt"
	"math"
)

// ErrBadGeometry reports a non-positive sensing range or per-period travel,
// or travel so short that ms overflows an int.
var ErrBadGeometry = errors.New("geom: invalid sensing range or per-period travel")

// DRGeometry captures the detectable-region decomposition for a target that
// travels in a straight line at constant speed. It provides the subarea
// sizes from Section 3.4 of the paper:
//
//   - AreaH(i), Eq. (6): subareas of the Head-stage NEDR (the full DR of
//     period 1) by the number of periods i a sensor placed there covers the
//     target.
//   - AreaB(i), Eq. (8): subareas of a Body-stage NEDR (a crescent of area
//     2*Rs*Vt).
//   - AreaT(j, i), Eq. (10): subareas of the NEDR of tail period Tj, which
//     overlaps only the ms-j remaining DRs.
//
// All indices are 1-based like the paper's.
type DRGeometry struct {
	// Rs is the sensing range in meters.
	Rs float64
	// Vt is the distance the target travels in one sensing period (V*t).
	Vt float64
	// Ms is ceil(2*Rs/Vt): the number of sensing periods the target takes
	// to traverse a full sensing diameter. A sensor can cover the target
	// for at most Ms+1 consecutive periods.
	Ms int
}

// NewDRGeometry builds the decomposition for sensing range rs and
// per-period travel vt (both must be positive).
func NewDRGeometry(rs, vt float64) (DRGeometry, error) {
	if rs <= 0 || vt <= 0 || math.IsNaN(rs) || math.IsNaN(vt) || math.IsInf(rs, 0) || math.IsInf(vt, 0) {
		return DRGeometry{}, fmt.Errorf("rs=%v vt=%v: %w", rs, vt, ErrBadGeometry)
	}
	// In floating point: a tiny vt gives a value no int holds, which a
	// conversion would wrap.
	ms := math.Ceil(2 * rs / vt)
	if !(ms < math.MaxInt) {
		return DRGeometry{}, fmt.Errorf("ms = ⌈2·rs/vt⌉ = %g does not fit an int (rs=%v vt=%v): %w", ms, rs, vt, ErrBadGeometry)
	}
	return DRGeometry{Rs: rs, Vt: vt, Ms: int(ms)}, nil
}

// DRArea returns the detectable region size of one sensing period:
// 2*Rs*Vt + pi*Rs^2 (Figure 1).
func (g DRGeometry) DRArea() float64 { return StadiumArea(g.Vt, g.Rs) }

// HeadNEDRArea returns the Head-stage NEDR size, which equals the whole DR
// of period 1.
func (g DRGeometry) HeadNEDRArea() float64 { return g.DRArea() }

// BodyNEDRArea returns the NEDR size of any period after the first:
// the crescent of area 2*Rs*Vt.
func (g DRGeometry) BodyNEDRArea() float64 { return 2 * g.Rs * g.Vt }

// ARegionArea returns the size of the Aggregate Region over M periods:
// 2*M*Rs*Vt + pi*Rs^2.
func (g DRGeometry) ARegionArea(m int) float64 {
	if m < 1 {
		return 0
	}
	return StadiumArea(float64(m)*g.Vt, g.Rs)
}

// lens returns the overlap area of the period-1 sensing disk with the disk
// centered k*Vt farther along the track.
func (g DRGeometry) lens(k int) float64 {
	return LensArea(g.Rs, float64(k)*g.Vt)
}

// AreaH returns AreaH(i) per Eq. (6) for 1 <= i <= Ms+1: the part of the DR
// of period 1 in which a sensor covers the target for exactly i periods.
// Out-of-range i yields 0.
//
// The implementation follows the paper's recursive form literally; the
// telescoped closed form (AreaH(i) = lens((i-2)Vt) - lens((i-1)Vt)) is
// asserted equal in tests.
func (g DRGeometry) AreaH(i int) float64 {
	if i < 1 || i > g.Ms+1 {
		return 0
	}
	switch {
	case i == 1:
		return 2 * g.Rs * g.Vt
	case i == g.Ms+1:
		return g.lens(i - 2)
	default:
		// pi*Rs^2 minus the lens shared with period i+1's disk, minus the
		// subareas already attributed to shorter coverage spans. The
		// parenthesized term in Eq. (6) is exactly LensArea(Rs, (i-1)*Vt).
		area := CircleArea(g.Rs) - g.lens(i-1)
		for m := 2; m < i; m++ {
			area -= g.AreaH(m)
		}
		return area
	}
}

// AreaHClosed returns the telescoped closed form of AreaH(i); it is used to
// cross-check the literal Eq. (6) implementation and is cheaper (O(1) per
// call instead of O(i)).
func (g DRGeometry) AreaHClosed(i int) float64 {
	switch {
	case i < 1 || i > g.Ms+1:
		return 0
	case i == 1:
		return 2 * g.Rs * g.Vt
	case i == g.Ms+1:
		return g.lens(i - 2)
	default:
		// Adjacent lenses can differ by less than their own rounding error
		// at extreme ms; the analytic difference is non-negative.
		return math.Max(0, g.lens(i-2)-g.lens(i-1))
	}
}

// AreaHAll returns AreaH(1..Ms+1) as a slice indexed from 1 (index 0 is
// unused and zero), computed with the closed form.
func (g DRGeometry) AreaHAll() []float64 {
	out := make([]float64, g.Ms+2)
	for i := 1; i <= g.Ms+1; i++ {
		out[i] = g.AreaHClosed(i)
	}
	return out
}

// AreaB returns AreaB(i) per Eq. (8) for 1 <= i <= Ms+1: the part of a
// Body-stage NEDR in which a sensor covers the target for exactly i periods.
func (g DRGeometry) AreaB(i int) float64 {
	switch {
	case i < 1 || i > g.Ms+1:
		return 0
	case i == g.Ms+1:
		return g.AreaHClosed(i)
	default:
		return math.Max(0, g.AreaHClosed(i)-g.AreaHClosed(i+1))
	}
}

// AreaBAll returns AreaB(1..Ms+1) indexed from 1.
func (g DRGeometry) AreaBAll() []float64 {
	out := make([]float64, g.Ms+2)
	for i := 1; i <= g.Ms+1; i++ {
		out[i] = g.AreaB(i)
	}
	return out
}

// AreaT returns AreaTj(i) per Eq. (10) for tail step j (1 <= j <= Ms) and
// subarea 1 <= i <= Ms+1-j: the part of the NEDR of period Tj in which a
// sensor covers the target for exactly i periods before the end of period M.
func (g DRGeometry) AreaT(j, i int) float64 {
	if j < 1 || j > g.Ms || i < 1 || i > g.Ms+1-j {
		return 0
	}
	if i < g.Ms+1-j {
		return g.AreaB(i)
	}
	// i == Ms+1-j: everything that would have covered longer is cut off by
	// the end of the observation window.
	var sum float64
	for m := g.Ms + 1 - j; m <= g.Ms+1; m++ {
		sum += g.AreaB(m)
	}
	return sum
}

// AreaTAll returns AreaTj(1..Ms+1-j) for tail step j, indexed from 1.
func (g DRGeometry) AreaTAll(j int) []float64 {
	if j < 1 || j > g.Ms {
		return nil
	}
	out := make([]float64, g.Ms+2-j)
	for i := 1; i <= g.Ms+1-j; i++ {
		out[i] = g.AreaT(j, i)
	}
	return out
}

// Regions returns the S-approach Region(i) sizes for i = 1..Ms+1 (indexed
// from 1): the subareas of the whole ARegion over m periods in which a
// sensor covers the target for exactly i periods. It requires m > Ms (the
// general case the paper analyzes).
//
// The ARegion partitions into the Head NEDR, m-Ms-1 Body NEDRs and Ms Tail
// NEDRs, so Region(i) is the sum of the corresponding subareas across all
// stages. Tests assert sum_i Region(i) == ARegionArea(m).
func (g DRGeometry) Regions(m int) ([]float64, error) {
	if m <= g.Ms {
		return nil, fmt.Errorf("geom: Regions requires M > ms (M=%d, ms=%d)", m, g.Ms)
	}
	out := make([]float64, g.Ms+2)
	body := float64(m - g.Ms - 1)
	for i := 1; i <= g.Ms+1; i++ {
		out[i] = g.AreaHClosed(i) + body*g.AreaB(i)
	}
	for j := 1; j <= g.Ms; j++ {
		for i := 1; i <= g.Ms+1-j; i++ {
			out[i] += g.AreaT(j, i)
		}
	}
	return out, nil
}
