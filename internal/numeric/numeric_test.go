package numeric

import (
	"math"
	"testing"
	"testing/quick"
)

func TestLogFactorialSmall(t *testing.T) {
	want := []float64{1, 1, 2, 6, 24, 120, 720, 5040, 40320, 362880}
	for n, w := range want {
		got := math.Exp(LogFactorial(n))
		if !AlmostEqual(got, w, 1e-9, 1e-12) {
			t.Errorf("exp(LogFactorial(%d)) = %v, want %v", n, got, w)
		}
	}
}

func TestLogFactorialNegative(t *testing.T) {
	if !math.IsNaN(LogFactorial(-1)) {
		t.Error("LogFactorial(-1) should be NaN")
	}
}

func TestChooseAgainstExact(t *testing.T) {
	for n := 0; n <= 40; n++ {
		for k := 0; k <= n; k++ {
			exact, err := ChooseInt64(n, k)
			if err != nil {
				t.Fatalf("ChooseInt64(%d,%d): %v", n, k, err)
			}
			got := Choose(n, k)
			if !AlmostEqual(got, float64(exact), 0.5, 1e-10) {
				t.Errorf("Choose(%d,%d) = %v, want %d", n, k, got, exact)
			}
		}
	}
}

func TestChooseEdgeCases(t *testing.T) {
	tests := []struct {
		n, k int
		want float64
	}{
		{5, -1, 0},
		{5, 6, 0},
		{0, 0, 1},
		{7, 0, 1},
		{7, 7, 1},
	}
	for _, tt := range tests {
		if got := Choose(tt.n, tt.k); got != tt.want {
			t.Errorf("Choose(%d,%d) = %v, want %v", tt.n, tt.k, got, tt.want)
		}
	}
	if !math.IsNaN(LogChoose(-1, 0)) {
		t.Error("LogChoose(-1,0) should be NaN")
	}
}

func TestChooseInt64Overflow(t *testing.T) {
	if _, err := ChooseInt64(200, 100); err == nil {
		t.Error("ChooseInt64(200,100) should overflow")
	}
	if _, err := ChooseInt64(-1, 0); err == nil {
		t.Error("ChooseInt64(-1,0) should error")
	}
}

func TestChooseSymmetryProperty(t *testing.T) {
	f := func(n8, k8 uint8) bool {
		n := int(n8 % 60)
		k := int(k8) % (n + 1)
		return AlmostEqual(Choose(n, k), Choose(n, n-k), 1e-12, 1e-12)
	}
	if err := quick.Check(f, nil); err != nil {
		t.Error(err)
	}
}

func TestPascalIdentityProperty(t *testing.T) {
	f := func(n8, k8 uint8) bool {
		n := 1 + int(n8%50)
		k := 1 + int(k8)%n
		lhs := Choose(n, k)
		rhs := Choose(n-1, k-1) + Choose(n-1, k)
		return AlmostEqual(lhs, rhs, 1e-6, 1e-10)
	}
	if err := quick.Check(f, nil); err != nil {
		t.Error(err)
	}
}

func TestClamp01(t *testing.T) {
	tests := []struct{ in, want float64 }{
		{-0.1, 0}, {0, 0}, {0.5, 0.5}, {1, 1}, {1.1, 1},
	}
	for _, tt := range tests {
		if got := Clamp01(tt.in); got != tt.want {
			t.Errorf("Clamp01(%v) = %v, want %v", tt.in, got, tt.want)
		}
	}
}

func TestAlmostEqual(t *testing.T) {
	if !AlmostEqual(1, 1, 0, 0) {
		t.Error("identical values must compare equal")
	}
	if !AlmostEqual(1, 1+1e-13, 0, 1e-12) {
		t.Error("relative tolerance should accept tiny drift")
	}
	if AlmostEqual(1, 2, 0.5, 0.1) {
		t.Error("1 and 2 should not be almost equal")
	}
}
