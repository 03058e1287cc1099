package dist

import (
	"fmt"
	"math"

	"github.com/groupdetect/gbd/internal/numeric"
)

// Joint is a joint probability mass function over pairs (x, y) of
// non-negative integers, stored as rows indexed by x and columns by y.
// The detection analysis uses it for the Section-4 extension where the
// system requires at least k reports from at least h distinct nodes:
// x counts reports and y counts distinct reporting sensors (saturated at h,
// mirroring the paper's merged "n = h means h or more" states).
type Joint [][]float64

// NewJoint returns a zero joint distribution with the given support sizes.
func NewJoint(xs, ys int) Joint {
	j := make(Joint, xs)
	for i := range j {
		j[i] = make([]float64, ys)
	}
	return j
}

// PointJoint returns the joint distribution concentrated at (x, y) with
// support sizes (xs, ys).
func PointJoint(x, y, xs, ys int) Joint {
	j := NewJoint(xs, ys)
	if x >= 0 && x < xs && y >= 0 && y < ys {
		j[x][y] = 1
	}
	return j
}

// XSize returns the report-axis support size.
func (j Joint) XSize() int { return len(j) }

// YSize returns the reporter-axis support size (0 for an empty joint).
func (j Joint) YSize() int {
	if len(j) == 0 {
		return 0
	}
	return len(j[0])
}

// Total returns the total probability mass.
func (j Joint) Total() float64 {
	var sum numeric.Kahan
	for _, row := range j {
		for _, v := range row {
			sum.Add(v)
		}
	}
	return sum.Sum()
}

// Validate returns an error if any entry is negative or NaN, or rows are
// ragged.
func (j Joint) Validate() error {
	ys := j.YSize()
	for x, row := range j {
		if len(row) != ys {
			return fmt.Errorf("row %d has %d cols, want %d: %w", x, len(row), ys, ErrInvalid)
		}
		for y, v := range row {
			if v < 0 || math.IsNaN(v) {
				return fmt.Errorf("entry (%d,%d) = %v: %w", x, y, v, ErrInvalid)
			}
		}
	}
	return nil
}

// MarginalX returns the marginal distribution of the first coordinate.
func (j Joint) MarginalX() PMF {
	out := make(PMF, j.XSize())
	for x, row := range j {
		out[x] = numeric.SumSlice(row)
	}
	return out
}

// TailBoth returns P[X >= kx and Y >= ky] without normalizing.
func (j Joint) TailBoth(kx, ky int) float64 {
	if kx < 0 {
		kx = 0
	}
	if ky < 0 {
		ky = 0
	}
	var sum numeric.Kahan
	for x := kx; x < j.XSize(); x++ {
		row := j[x]
		for y := ky; y < len(row); y++ {
			sum.Add(row[y])
		}
	}
	return sum.Sum()
}

// ConvolveJoint returns the distribution of (X1+X2, Y1+Y2) for independent
// pairs, saturating each axis at its support bound: mass that would exceed
// the last index accumulates there. Saturation on the reporter axis is what
// implements the paper's "at least h nodes" merged state; the report axis is
// normally sized so saturation only merges the "k or more" region.
func ConvolveJoint(a, b Joint, xs, ys int) Joint {
	out := NewJoint(xs, ys)
	for x1, row1 := range a {
		for y1, v1 := range row1 {
			if v1 == 0 {
				continue
			}
			for x2, row2 := range b {
				x := x1 + x2
				if x >= xs {
					x = xs - 1
				}
				orow := out[x]
				for y2, v2 := range row2 {
					if v2 == 0 {
						continue
					}
					y := y1 + y2
					if y >= ys {
						y = ys - 1
					}
					orow[y] += v1 * v2
				}
			}
		}
	}
	return out
}
