package field

import (
	"math"

	"github.com/groupdetect/gbd/internal/numeric"
)

// Binomial returns the smallest k with P[X <= k] > u for X ~ Binomial(n,
// p): the inverse-CDF draw of X from one uniform u in [0, 1). p <= 0 gives
// 0 and p >= 1 gives n.
//
// It walks the pmf recurrence P[k+1] = P[k]·(n−k)/(k+1)·p/(1−p) up from
// P[0] = (1−p)^n, which repeated squaring gives in a dozen multiplies
// (exp and log1p cost three times as long). When P[0] underflows
// (n = 10 000, p = 0.5), it starts at the mode instead:
// numeric.BinomialLogPMF gives the mode's mass, both tails are summed out
// from it to normalize the masses and find P[X <= m], and the walk goes
// down or up from there. Each step is a multiply and a divide —
// numeric.BinomialQuantile pays three Lgamma calls per step — and nothing
// is allocated.
func Binomial(n int, p, u float64) int {
	switch {
	case n <= 0 || p <= 0:
		return 0
	case p >= 1:
		return n
	}
	r := p / (1 - p)
	k := 0
	t := 1.0 // P[X = k], starting at (1−p)^n by repeated squaring
	for q, e := 1-p, n; e > 0; q, e = q*q, e>>1 {
		if e&1 == 1 {
			t *= q
		}
	}
	cdf := t // P[X <= k]
	if t < 0x1p-1022 {
		k, t, cdf = binomialMode(n, p, r)
		for k > 0 && cdf-t > u {
			cdf -= t
			t *= float64(k) / (float64(n-k+1) * r)
			k--
		}
	}
	for cdf <= u && k < n {
		t *= float64(n-k) / float64(k+1) * r
		k++
		cdf += t
	}
	return k
}

// binomialMode returns the mode m of Binomial(n, p), its mass P[X = m] and
// P[X <= m]; r is p/(1−p). Both tails are summed out from the mode until a
// term no longer moves the sum — the pmf falls monotonically on either
// side — and the masses are divided by that total, which cancels the
// rounding of the mode's mass (Lgamma's, about 1e-11 at n = 10 000).
func binomialMode(n int, p, r float64) (m int, pm, cdf float64) {
	m = min(int(float64(n+1)*p), n)
	pm = math.Exp(numeric.BinomialLogPMF(n, m, p))
	lower, t := pm, pm
	for j := m; j > 0; j-- {
		t *= float64(j) / (float64(n-j+1) * r)
		if lower+t == lower {
			break
		}
		lower += t
	}
	total := lower
	t = pm
	for j := m; j < n; j++ {
		t *= float64(n-j) / float64(j+1) * r
		if total+t == total {
			break
		}
		total += t
	}
	return m, pm / total, lower / total
}
