// Package numeric provides numerically stable scalar building blocks used
// throughout the analysis: log-space combinatorics, binomial probabilities,
// compensated summation, and tolerant float comparison.
//
// The group-based detection model multiplies binomial coefficients with very
// small area ratios (the ONR scenario has per-sensor per-period presence
// probabilities around 1e-3 and N up to a few hundred), so every probability
// here is assembled in log space and exponentiated once at the end.
package numeric

import (
	"errors"
	"math"
)

// ErrDomain reports arguments outside a function's mathematical domain.
var ErrDomain = errors.New("numeric: argument outside domain")

// LogGamma returns ln(Gamma(x)) for x > 0.
func LogGamma(x float64) float64 {
	v, _ := math.Lgamma(x)
	return v
}

// LogFactorial returns ln(n!) for n >= 0.
func LogFactorial(n int) float64 {
	if n < 0 {
		return math.NaN()
	}
	return LogGamma(float64(n) + 1)
}

// LogChoose returns ln(C(n, k)). It returns -Inf when the coefficient is
// zero (k < 0 or k > n) and NaN for n < 0.
func LogChoose(n, k int) float64 {
	if n < 0 {
		return math.NaN()
	}
	if k < 0 || k > n {
		return math.Inf(-1)
	}
	if k == 0 || k == n {
		return 0
	}
	return LogFactorial(n) - LogFactorial(k) - LogFactorial(n-k)
}

// Choose returns C(n, k) as a float64. Overflows to +Inf for very large
// arguments rather than wrapping, which is what the truncated enumeration
// in the S-approach needs.
func Choose(n, k int) float64 {
	return math.Exp(LogChoose(n, k))
}

// ChooseInt64 returns C(n, k) as an exact int64, or an error when the value
// does not fit. It is used by tests to cross-check the float path.
func ChooseInt64(n, k int) (int64, error) {
	if n < 0 {
		return 0, ErrDomain
	}
	if k < 0 || k > n {
		return 0, nil
	}
	if k > n-k {
		k = n - k
	}
	var c int64 = 1
	for i := 1; i <= k; i++ {
		hi := int64(n - k + i)
		// c = c * hi / i, keeping intermediate values exact.
		g := gcd64(hi, int64(i))
		hi /= g
		div := int64(i) / g
		g = gcd64(c, div)
		c /= g
		div /= g
		if div != 1 {
			return 0, ErrDomain
		}
		if c > math.MaxInt64/hi {
			return 0, ErrDomain
		}
		c *= hi
	}
	return c, nil
}

func gcd64(a, b int64) int64 {
	for b != 0 {
		a, b = b, a%b
	}
	return a
}

// Clamp01 clips x into [0, 1]. Probabilities assembled from many float
// operations can stray a few ulps outside the unit interval.
func Clamp01(x float64) float64 {
	switch {
	case x < 0:
		return 0
	case x > 1:
		return 1
	default:
		return x
	}
}

// AlmostEqual reports whether a and b agree within absolute tolerance atol
// or relative tolerance rtol, whichever is looser.
func AlmostEqual(a, b, atol, rtol float64) bool {
	if a == b {
		return true
	}
	diff := math.Abs(a - b)
	if diff <= atol {
		return true
	}
	scale := math.Max(math.Abs(a), math.Abs(b))
	return diff <= rtol*scale
}
