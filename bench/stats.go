package main

import (
	"math"
	"sort"
	"time"
)

// quantile returns the p-quantile of xs by the nearest-rank method: the
// smallest sample with at least ceil(p*n) samples at or below it. xs is
// not modified. It returns 0 for an empty sample.
func quantile(xs []float64, p float64) float64 {
	if len(xs) == 0 {
		return 0
	}
	s := append([]float64(nil), xs...)
	sort.Float64s(s)
	i := int(math.Ceil(p*float64(len(s)))) - 1
	if i < 0 {
		i = 0
	}
	if i >= len(s) {
		i = len(s) - 1
	}
	return s[i]
}

// median is the nearest-rank 0.5-quantile (the lower middle sample of an
// even-sized sample).
func median(xs []float64) float64 { return quantile(xs, 0.5) }

// timed is one latency sample placed on its phase's clock: at is when the
// operation was due, relative to the phase start.
type timed struct {
	at  time.Duration
	lat float64
}

// windowedP99 cuts the samples into consecutive windows of the given
// length by due time and returns the median of the windows' p99s, with
// the count of windows. Samples past the last whole window fold into it,
// so a phase shorter than one window is a single window. A single slow
// second moves one window's p99, not the reported value, which is what
// lets the p99 repeat from run to run.
func windowedP99(samples []timed, phase, window time.Duration) (float64, int) {
	n := int(phase / window)
	if n < 1 {
		n = 1
	}
	buckets := make([][]float64, n)
	for _, s := range samples {
		w := int(s.at / window)
		if w >= n {
			w = n - 1
		}
		if w < 0 {
			w = 0
		}
		buckets[w] = append(buckets[w], s.lat)
	}
	var p99s []float64
	for _, b := range buckets {
		if len(b) > 0 {
			p99s = append(p99s, quantile(b, 0.99))
		}
	}
	return median(p99s), len(p99s)
}

// ratio is a/b, or 0 when b is 0 (a layer the workload leaves idle).
func ratio(a, b float64) float64 {
	if b == 0 {
		return 0
	}
	return a / b
}
