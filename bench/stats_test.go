package main

import (
	"testing"
	"time"
)

func TestQuantileNearestRank(t *testing.T) {
	xs := []float64{10, 1, 9, 2, 8, 3, 7, 4, 6, 5} // 1..10, unsorted
	for _, c := range []struct {
		p, want float64
	}{
		{0.01, 1}, {0.1, 1}, {0.11, 2}, {0.5, 5}, {0.9, 9}, {0.91, 10}, {0.99, 10}, {1, 10},
	} {
		if got := quantile(xs, c.p); got != c.want {
			t.Errorf("quantile(1..10, %v) = %v, want %v", c.p, got, c.want)
		}
	}
	if xs[0] != 10 {
		t.Error("quantile sorted its input in place")
	}
	if got := quantile(nil, 0.5); got != 0 {
		t.Errorf("quantile(empty) = %v, want 0", got)
	}
	if got := median([]float64{4, 1, 3, 2}); got != 2 {
		t.Errorf("median of an even sample = %v, want the lower middle 2", got)
	}
}

func TestWindowedP99(t *testing.T) {
	// Three one-second windows of 100 samples; window k holds 1..100
	// scaled by k+1, so its p99 is 99*(k+1). The middle window's p99 is
	// the median whatever the outlier window does.
	var s []timed
	for k := 0; k < 3; k++ {
		scale := float64(k + 1)
		if k == 2 {
			scale = 1000 // one pathological second
		}
		for i := 1; i <= 100; i++ {
			at := time.Duration(k)*time.Second + time.Duration(i)*time.Millisecond
			s = append(s, timed{at: at, lat: float64(i) * scale})
		}
	}
	got, n := windowedP99(s, 3*time.Second, time.Second)
	if n != 3 || got != 198 {
		t.Fatalf("windowedP99 = %v over %d windows, want 198 over 3", got, n)
	}
	// A phase shorter than a window is one window: the plain p99.
	got, n = windowedP99(s[:100], 500*time.Millisecond, time.Second)
	if n != 1 || got != 99 {
		t.Fatalf("short phase: windowedP99 = %v over %d windows, want 99 over 1", got, n)
	}
	// Samples past the last whole window fold into it.
	got, n = windowedP99(s, 2500*time.Millisecond, time.Second)
	if n != 2 {
		t.Fatalf("2.5 s phase: %d windows, want 2", n)
	}
	if got != 99 {
		t.Fatalf("2.5 s phase: windowedP99 = %v, want the lower middle 99", got)
	}
}
