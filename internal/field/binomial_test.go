package field

import (
	"math"
	"testing"

	"github.com/groupdetect/gbd/internal/numeric"
	"github.com/groupdetect/gbd/internal/stats"
)

// TestBinomialMatchesQuantile pins Binomial to numeric.BinomialQuantile
// over an (n, p, u) grid that covers both start points (k = 0, and the
// mode when (1−p)^n underflows) and both boundary probabilities. The two
// may differ only where u sits on a CDF step (|CDF − u| < 1e-12): Binomial
// takes the smallest k with CDF(k) > u, BinomialQuantile with CDF(k) >= u.
func TestBinomialMatchesQuantile(t *testing.T) {
	us := []float64{0, 1e-12, 1e-6, 0.001, 0.02, 0.1, 0.25, 0.3, 0.5, 0.6180339887, 0.75, 0.9, 0.99, 0.999999, 1 - 0x1p-53}
	for _, n := range []int{0, 1, 2, 7, 60, 240, 1000, 2000, 10000} {
		for _, p := range []float64{-0.5, 0, 1e-9, 0.001, 0.033, 0.1, 0.5, 0.77, 0.999, 1, 1.5} {
			for _, u := range us {
				got := Binomial(n, p, u)
				var want int
				switch {
				case p <= 0:
					want = 0
				case p >= 1:
					want = n
				default:
					q, err := numeric.BinomialQuantile(n, p, u)
					if err != nil { // u = 0: every k has CDF(k) >= 0
						q = 0
					}
					want = q
				}
				if got == want {
					continue
				}
				lo := min(got, want)
				if math.Abs(numeric.BinomialCDF(n, lo, p)-u) < 1e-12 {
					continue
				}
				t.Errorf("Binomial(%d, %v, %v) = %d, want %d", n, p, u, got, want)
			}
		}
	}
}

// TestBinomialChiSquare draws 10^5 variates per (n, p) from evenly spread
// uniforms of a Philox stream and tests them against the exact pmf, bins
// pooled from the low end to an expected count of at least 5. Each
// chi-square test runs at level 1e-3.
func TestBinomialChiSquare(t *testing.T) {
	const draws = 100000
	for _, c := range []struct {
		n int
		p float64
	}{{240, 0.033}, {60, 0.1}, {10000, 0.5}} {
		counts := make([]int, c.n+1)
		ph := NewPhilox(18, int64(c.n))
		for i := 0; i < draws; i++ {
			counts[Binomial(c.n, c.p, ph.Float64())]++
		}
		var groups [][2]float64 // observed, expected
		var obs, exp float64
		for k := 0; k <= c.n; k++ {
			obs += float64(counts[k])
			exp += draws * numeric.BinomialPMF(c.n, k, c.p)
			if exp >= 5 {
				groups = append(groups, [2]float64{obs, exp})
				obs, exp = 0, 0
			}
		}
		groups[len(groups)-1][0] += obs // the upper tail joins the last group
		groups[len(groups)-1][1] += exp
		chi2 := 0.0
		for _, g := range groups {
			chi2 += (g[0] - g[1]) * (g[0] - g[1]) / g[1]
		}
		if p := stats.ChiSquareSF(chi2, len(groups)-1); p < 1e-3 {
			t.Errorf("Binomial(%d, %v): chi-square %.1f over %d groups, p = %.3g", c.n, c.p, chi2, len(groups), p)
		}
	}
}

// TestBinomialAllocatesNothing: the deploy stage calls Binomial once per
// class per trial.
func TestBinomialAllocatesNothing(t *testing.T) {
	ph := NewPhilox(1, 2)
	if a := testing.AllocsPerRun(1000, func() {
		_ = Binomial(240, 0.033, ph.Float64())
		_ = Binomial(10000, 0.5, ph.Float64())
	}); a != 0 {
		t.Errorf("Binomial: %v allocs per call pair, want 0", a)
	}
}

func BenchmarkBinomial(b *testing.B) {
	ph := NewPhilox(1, 0)
	for i := 0; i < b.N; i++ {
		_ = Binomial(240, 0.033, ph.Float64())
	}
}
