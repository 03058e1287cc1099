package stats_test

import (
	"errors"
	"math"
	"testing"

	"github.com/groupdetect/gbd/internal/detect"
	"github.com/groupdetect/gbd/internal/field"
	"github.com/groupdetect/gbd/internal/sim"
	"github.com/groupdetect/gbd/internal/stats"
)

// TestChiSquareSF checks the survival function against closed forms (df
// 1 and 2) and tabulated critical values, on both sides of the
// series/continued-fraction switch.
func TestChiSquareSF(t *testing.T) {
	for _, x := range []float64{0.01, 0.5, 1, 3, 7, 20, 60} {
		if got, want := stats.ChiSquareSF(x, 2), math.Exp(-x/2); math.Abs(got-want) > 1e-13*max(want, 1e-300)+1e-15 {
			t.Errorf("ChiSquareSF(%v, 2) = %v, want %v", x, got, want)
		}
		if got, want := stats.ChiSquareSF(x, 1), math.Erfc(math.Sqrt(x/2)); math.Abs(got-want) > 1e-12*want+1e-15 {
			t.Errorf("ChiSquareSF(%v, 1) = %v, want %v", x, got, want)
		}
	}
	for _, c := range []struct {
		x     float64
		df    int
		alpha float64
	}{{3.841459, 1, 0.05}, {18.307038, 10, 0.05}, {103.442, 63, 0.001}, {37.566235, 20, 0.01}, {0.1148318, 3, 0.99}} {
		if got := stats.ChiSquareSF(c.x, c.df); math.Abs(got-c.alpha) > 1e-5*max(c.alpha, 0.01) {
			t.Errorf("ChiSquareSF(%v, %d) = %v, want %v", c.x, c.df, got, c.alpha)
		}
	}
	if got := stats.ChiSquareSF(0, 4); got != 1 {
		t.Errorf("ChiSquareSF(0, 4) = %v, want 1", got)
	}
}

// TestTwoProportionP: 50/100 against 60/100 gives z = −1.4213, p = 0.1552;
// equal proportions give 1, and so do two all-failure samples.
func TestTwoProportionP(t *testing.T) {
	if got := stats.TwoProportionP(50, 100, 60, 100); math.Abs(got-0.15518) > 1e-4 {
		t.Errorf("TwoProportionP(50/100, 60/100) = %v, want 0.1552", got)
	}
	if got := stats.TwoProportionP(30, 100, 60, 200); got != 1 {
		t.Errorf("equal proportions: p = %v, want 1", got)
	}
	if got := stats.TwoProportionP(0, 100, 0, 50); got != 1 {
		t.Errorf("all failures: p = %v, want 1", got)
	}
}

// lawPoints runs cfg at each of ns and returns the points SameLaw takes.
func lawPoints(t *testing.T, cfg sim.Config, ns []int) []stats.LawPoint {
	t.Helper()
	pts := make([]stats.LawPoint, len(ns))
	for i, n := range ns {
		c := cfg
		c.Params = c.Params.WithN(n)
		res, err := sim.Run(c)
		if err != nil {
			t.Fatal(err)
		}
		pts[i] = stats.LawPoint{Trials: res.Trials, Detections: res.Detections, Reports: &res.Reports}
	}
	return pts
}

// TestSameLawAcceptsTwoSeeds: two seeds of one legacy campaign are one
// law, so SameLaw at a 0.001 false-reject rate accepts them.
func TestSameLawAcceptsTwoSeeds(t *testing.T) {
	cfg := sim.Config{Params: detect.Defaults(), Trials: 4000, Workers: 2}
	ns := []int{60, 140, 240}
	cfg.Seed = 1
	a := lawPoints(t, cfg, ns)
	cfg.Seed = 2
	b := lawPoints(t, cfg, ns)
	c, err := stats.SameLaw(a, b, 0.001)
	if err != nil {
		t.Fatal(err)
	}
	if !c.Same() {
		t.Errorf("two seeds of one config: %v", c)
	}
	if c.Level != 0.001/6 {
		t.Errorf("Level = %v, want the Bonferroni share 0.001/6", c.Level)
	}
}

// TestSameLawRejectsPd: a sensor Pd of 0.9 against 0.85 at 20 000 trials
// is a different law, and both tests see it on their own.
func TestSameLawRejectsPd(t *testing.T) {
	cfg := sim.Config{Params: detect.Defaults(), Trials: 20000, Seed: 3, Workers: 2, RNG: field.SchemePhilox}
	a := lawPoints(t, cfg, []int{120})
	cfg.Params.Pd = 0.85
	b := lawPoints(t, cfg, []int{120})
	c, err := stats.SameLaw(a, b, 0.001)
	if err != nil {
		t.Fatal(err)
	}
	if c.Same() {
		t.Errorf("Pd 0.9 against 0.85: %v", c)
	}
	if p := stats.TwoProportionP(a[0].Detections, a[0].Trials, b[0].Detections, b[0].Trials); p >= c.Level {
		t.Errorf("detections alone: p = %v, not below %v", p, c.Level)
	}
	if p, err := stats.HomogeneityP(a[0].Reports, b[0].Reports); err != nil || p >= c.Level {
		t.Errorf("report histograms alone: p = %v (%v), not below %v", p, err, c.Level)
	}
}

// TestSameLawValidation rejects mismatched, empty and impossible inputs.
func TestSameLawValidation(t *testing.T) {
	h := &stats.Histogram{}
	if err := h.Add(3); err != nil {
		t.Fatal(err)
	}
	ok := []stats.LawPoint{{Trials: 1, Detections: 1, Reports: h}}
	for name, c := range map[string]struct {
		a, b  []stats.LawPoint
		alpha float64
	}{
		"empty":        {nil, nil, 0.01},
		"mismatched":   {ok, append(ok, ok...), 0.01},
		"alpha":        {ok, ok, 0},
		"detections":   {[]stats.LawPoint{{Trials: 1, Detections: 2, Reports: h}}, ok, 0.01},
		"no histogram": {[]stats.LawPoint{{Trials: 1}}, ok, 0.01},
	} {
		if _, err := stats.SameLaw(c.a, c.b, c.alpha); !errors.Is(err, stats.ErrStats) {
			t.Errorf("%s: err = %v, want ErrStats", name, err)
		}
	}
}
