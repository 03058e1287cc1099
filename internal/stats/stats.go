// Package stats provides the summary statistics the experiment harness uses
// to score analysis against simulation: moments, binomial-proportion
// confidence intervals, histograms and a two-sample law comparison.
package stats

import (
	"errors"
	"fmt"
	"math"

	"github.com/groupdetect/gbd/internal/numeric"
)

// ErrStats reports invalid statistical arguments.
var ErrStats = errors.New("stats: invalid arguments")

// Mean returns the arithmetic mean of xs (0 for empty input).
func Mean(xs []float64) float64 {
	if len(xs) == 0 {
		return 0
	}
	return numeric.SumSlice(xs) / float64(len(xs))
}

// Interval is a two-sided confidence interval.
type Interval struct {
	Lo, Hi float64
}

// Contains reports whether x lies inside the interval.
func (iv Interval) Contains(x float64) bool { return x >= iv.Lo && x <= iv.Hi }

// Width returns the interval width.
func (iv Interval) Width() float64 { return iv.Hi - iv.Lo }

// WilsonInterval returns the Wilson score interval for a binomial proportion
// with successes out of trials at confidence z (z = 1.96 for ~95%). It is
// well-behaved near 0 and 1, where detection probabilities live.
func WilsonInterval(successes, trials int, z float64) (Interval, error) {
	if trials <= 0 || successes < 0 || successes > trials {
		return Interval{}, fmt.Errorf("successes = %d, trials = %d: %w", successes, trials, ErrStats)
	}
	if z <= 0 {
		return Interval{}, fmt.Errorf("z = %v must be positive: %w", z, ErrStats)
	}
	n := float64(trials)
	p := float64(successes) / n
	z2 := z * z
	denom := 1 + z2/n
	center := (p + z2/(2*n)) / denom
	half := z / denom * math.Sqrt(p*(1-p)/n+z2/(4*n*n))
	return Interval{
		Lo: numeric.Clamp01(center - half),
		Hi: numeric.Clamp01(center + half),
	}, nil
}

// Histogram counts occurrences of small non-negative integers.
type Histogram struct {
	counts []int64
	total  int64
}

// Add records one observation of value v (negative values are rejected).
func (h *Histogram) Add(v int) error {
	if v < 0 {
		return fmt.Errorf("negative observation %d: %w", v, ErrStats)
	}
	for v >= len(h.counts) {
		h.counts = append(h.counts, 0)
	}
	h.counts[v]++
	h.total++
	return nil
}

// Merge adds all observations of other into h.
func (h *Histogram) Merge(other *Histogram) {
	for v, c := range other.counts {
		if c == 0 {
			continue
		}
		for v >= len(h.counts) {
			h.counts = append(h.counts, 0)
		}
		h.counts[v] += c
	}
	h.total += other.total
}

// Total returns the number of observations.
func (h *Histogram) Total() int64 { return h.total }

// Count returns the number of observations of value v.
func (h *Histogram) Count(v int) int64 {
	if v < 0 || v >= len(h.counts) {
		return 0
	}
	return h.counts[v]
}

// Max returns the largest observed value (-1 when empty).
func (h *Histogram) Max() int {
	for v := len(h.counts) - 1; v >= 0; v-- {
		if h.counts[v] > 0 {
			return v
		}
	}
	return -1
}

// PMF returns the empirical probability mass function (nil when empty).
func (h *Histogram) PMF() []float64 {
	if h.total == 0 {
		return nil
	}
	out := make([]float64, len(h.counts))
	for v, c := range h.counts {
		out[v] = float64(c) / float64(h.total)
	}
	return out
}

// Mean returns the empirical mean (0 when empty).
func (h *Histogram) Mean() float64 {
	if h.total == 0 {
		return 0
	}
	var sum numeric.Kahan
	for v, c := range h.counts {
		sum.Add(float64(v) * float64(c))
	}
	return sum.Sum() / float64(h.total)
}

// TailProb returns the empirical P[X >= k] (0 when empty).
func (h *Histogram) TailProb(k int) float64 {
	if h.total == 0 {
		return 0
	}
	if k < 0 {
		k = 0
	}
	var c int64
	for v := k; v < len(h.counts); v++ {
		c += h.counts[v]
	}
	return float64(c) / float64(h.total)
}
