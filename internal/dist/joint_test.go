package dist

import (
	"testing"

	"github.com/groupdetect/gbd/internal/numeric"
)

func TestNewJointShape(t *testing.T) {
	j := NewJoint(3, 4)
	if j.XSize() != 3 || j.YSize() != 4 {
		t.Errorf("shape = %dx%d", j.XSize(), j.YSize())
	}
	if j.Total() != 0 {
		t.Errorf("zero joint total = %v", j.Total())
	}
	var empty Joint
	if empty.YSize() != 0 {
		t.Error("empty joint YSize should be 0")
	}
}

func TestPointJoint(t *testing.T) {
	j := PointJoint(1, 2, 3, 4)
	if j[1][2] != 1 || j.Total() != 1 {
		t.Errorf("point joint = %v", j)
	}
	if out := PointJoint(5, 0, 3, 4); out.Total() != 0 {
		t.Error("out-of-range point should be empty")
	}
}

func TestJointValidate(t *testing.T) {
	j := NewJoint(2, 2)
	if err := j.Validate(); err != nil {
		t.Errorf("zero joint should validate: %v", err)
	}
	j[0][0] = -1
	if err := j.Validate(); err == nil {
		t.Error("negative entry should fail")
	}
	ragged := Joint{{1, 0}, {0}}
	if err := ragged.Validate(); err == nil {
		t.Error("ragged joint should fail")
	}
}

func TestMarginals(t *testing.T) {
	j := Joint{
		{0.1, 0.2},
		{0.3, 0.4},
	}
	mx := j.MarginalX()
	if !numeric.AlmostEqual(mx[0], 0.3, 1e-12, 1e-12) || !numeric.AlmostEqual(mx[1], 0.7, 1e-12, 1e-12) {
		t.Errorf("MarginalX = %v", mx)
	}
}

func TestTailBoth(t *testing.T) {
	j := Joint{
		{0.1, 0.2},
		{0.3, 0.4},
	}
	if got := j.TailBoth(1, 1); got != 0.4 {
		t.Errorf("TailBoth(1,1) = %v, want 0.4", got)
	}
	if got := j.TailBoth(0, 0); !numeric.AlmostEqual(got, 1, 1e-12, 1e-12) {
		t.Errorf("TailBoth(0,0) = %v, want 1", got)
	}
	if got := j.TailBoth(-1, -2); !numeric.AlmostEqual(got, 1, 1e-12, 1e-12) {
		t.Errorf("negative ks should clamp: %v", got)
	}
	if got := j.TailBoth(2, 0); got != 0 {
		t.Errorf("beyond support = %v, want 0", got)
	}
}

func TestConvolveJointMatchesMarginalConvolution(t *testing.T) {
	a := Joint{
		{0.5, 0},
		{0, 0.5},
	}
	b := Joint{
		{0.25, 0},
		{0, 0.75},
	}
	out := ConvolveJoint(a, b, 3, 3)
	if err := out.Validate(); err != nil {
		t.Fatal(err)
	}
	if !numeric.AlmostEqual(out.Total(), a.Total()*b.Total(), 1e-12, 1e-12) {
		t.Errorf("mass = %v", out.Total())
	}
	// X marginal must equal the 1D convolution of the X marginals.
	want := Convolve(a.MarginalX(), b.MarginalX())
	got := out.MarginalX()
	for i := range got {
		w := 0.0
		if i < len(want) {
			w = want[i]
		}
		if !numeric.AlmostEqual(got[i], w, 1e-12, 1e-12) {
			t.Errorf("marginal X[%d] = %v, want %v", i, got[i], w)
		}
	}
}

func TestConvolveJointSaturation(t *testing.T) {
	a := PointJoint(1, 1, 2, 2)
	b := PointJoint(1, 1, 2, 2)
	out := ConvolveJoint(a, b, 2, 2)
	// (1+1, 1+1) saturates to (1, 1).
	if out[1][1] != 1 {
		t.Errorf("saturated mass = %v", out)
	}
	if !numeric.AlmostEqual(out.Total(), 1, 1e-12, 1e-12) {
		t.Errorf("saturation lost mass: %v", out.Total())
	}
}
