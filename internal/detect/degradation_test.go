package detect

import (
	"errors"
	"math"
	"testing"
)

func TestDegradedParamsArithmetic(t *testing.T) {
	p := Defaults() // N = 120, Pd = 0.9
	dp, err := DegradedParams(p, 0.25, 0.8)
	if err != nil {
		t.Fatal(err)
	}
	if dp.N != 90 {
		t.Errorf("effective N = %d, want 90", dp.N)
	}
	if math.Abs(dp.Pd-0.72) > 1e-12 {
		t.Errorf("effective Pd = %v, want 0.72", dp.Pd)
	}
	tp, err := ThinnedParams(p, 0.25, 0.8)
	if err != nil {
		t.Fatal(err)
	}
	if tp.N != 120 || math.Abs(tp.Pd-0.9*0.75*0.8) > 1e-12 {
		t.Errorf("thinned params = N %d Pd %v", tp.N, tp.Pd)
	}
}

func TestDegradedParamsValidation(t *testing.T) {
	p := Defaults()
	if _, err := DegradedParams(p, -0.1, 1); err == nil {
		t.Error("negative dead fraction should fail")
	}
	if _, err := DegradedParams(p, 0, 1.1); err == nil {
		t.Error("delivery probability > 1 should fail")
	}
	if _, err := ThinnedParams(p, 2, 1); err == nil {
		t.Error("dead fraction > 1 should fail")
	}
}

func TestDegradedZeroFailuresMatchesBaseline(t *testing.T) {
	p := Defaults()
	opt := MSOptions{Gh: 4, G: 4}
	base, err := MSApproach(p, opt)
	if err != nil {
		t.Fatal(err)
	}
	deg, err := Degraded(p, 0, 1, opt)
	if err != nil {
		t.Fatal(err)
	}
	if deg.DetectionProb != base.DetectionProb {
		t.Errorf("no-failure degraded %v != baseline %v", deg.DetectionProb, base.DetectionProb)
	}
}

func TestDegradedTotalFailureIsZero(t *testing.T) {
	p := Defaults()
	opt := MSOptions{Gh: 4, G: 4}
	for _, c := range []struct{ f, pd float64 }{{1, 1}, {0, 0}, {1, 0}} {
		res, err := Degraded(p, c.f, c.pd, opt)
		if err != nil {
			t.Fatalf("f=%v pd=%v: %v", c.f, c.pd, err)
		}
		if res.DetectionProb != 0 {
			t.Errorf("f=%v pd=%v: detection %v, want 0", c.f, c.pd, res.DetectionProb)
		}
	}
}

// TestThinnedTracksDegraded: the exact Bernoulli-thinning mirror and the
// rounded-density mirror agree closely on the paper's scenario.
func TestThinnedTracksDegraded(t *testing.T) {
	p := Defaults()
	opt := MSOptions{Gh: 5, G: 4}
	for _, f := range []float64{0.1, 0.25, 0.4} {
		dp, err := DegradedParams(p, f, 1)
		if err != nil {
			t.Fatal(err)
		}
		density, err := MSApproach(dp, opt)
		if err != nil {
			t.Fatal(err)
		}
		tp, err := ThinnedParams(p, f, 1)
		if err != nil {
			t.Fatal(err)
		}
		thinned, err := MSApproach(tp, opt)
		if err != nil {
			t.Fatal(err)
		}
		if diff := math.Abs(density.DetectionProb - thinned.DetectionProb); diff > 0.06 {
			t.Errorf("f=%v: density mirror %v vs thinning mirror %v (diff %v)",
				f, density.DetectionProb, thinned.DetectionProb, diff)
		}
	}
}

// TestDegradationCurveMonotoneInDeadFrac is the analytical half of the
// graceful-degradation property: detection probability is monotone
// non-increasing in the node-failure fraction.
func TestDegradationCurveMonotoneInDeadFrac(t *testing.T) {
	p := Defaults()
	prev := 2.0
	var first, last *MSResult
	for _, f := range []float64{0, 0.05, 0.1, 0.15, 0.2, 0.25, 0.3, 0.35, 0.4, 0.45, 0.5, 0.75, 1} {
		res, err := Degraded(p, f, 1, MSOptions{Gh: 5, G: 4})
		if err != nil {
			t.Fatal(err)
		}
		if res.DetectionProb > prev+1e-9 {
			t.Errorf("detection rose at f=%v: %v -> %v", f, prev, res.DetectionProb)
		}
		prev = res.DetectionProb
		if first == nil {
			first = res
		}
		last = res
	}
	if first.DetectionProb <= last.DetectionProb {
		t.Error("curve should actually decrease over [0, 1]")
	}
	if last.DetectionProb != 0 || last.Params.N != 0 {
		t.Errorf("f=1 point = %v with %d sensors, want zero detection and zero sensors",
			last.DetectionProb, last.Params.N)
	}
}

// TestLossCurveMonotoneInDeliveryProb: detection probability is monotone
// non-decreasing in the delivery probability (equivalently, non-increasing
// in the loss rate).
func TestLossCurveMonotoneInDeliveryProb(t *testing.T) {
	p := Defaults()
	prev := -1.0
	for _, pd := range []float64{0, 0.2, 0.4, 0.6, 0.8, 0.9, 1} {
		res, err := Degraded(p, 0, pd, MSOptions{Gh: 5, G: 4})
		if err != nil {
			t.Fatal(err)
		}
		if pd == 0 && res.DetectionProb != 0 {
			t.Errorf("zero delivery should zero detection, got %v", res.DetectionProb)
		}
		if res.DetectionProb < prev-1e-9 {
			t.Errorf("detection fell as delivery improved at pDeliver=%v: %v -> %v", pd, prev, res.DetectionProb)
		}
		prev = res.DetectionProb
	}
}

// TestCriticalDeadFrac: the failure headroom down to half the fault-free
// detection probability, found on a 1/20 grid of dead fractions, is
// interior, and the next grid step falls below the requirement.
func TestCriticalDeadFrac(t *testing.T) {
	p := Defaults()
	opt := MSOptions{Gh: 5, G: 4}
	base, err := MSApproach(p, opt)
	if err != nil {
		t.Fatal(err)
	}
	req := base.DetectionProb / 2
	crit := -1.0
	for i := 0; i <= 20; i++ {
		f := float64(i) / 20
		res, err := Degraded(p, f, 1, opt)
		if err != nil {
			t.Fatal(err)
		}
		if res.DetectionProb < req {
			break
		}
		crit = f
	}
	if crit <= 0 || crit >= 1 {
		t.Fatalf("critical fraction %v out of range", crit)
	}
	beyond, err := Degraded(p, crit+0.05, 1, opt)
	if err != nil {
		t.Fatal(err)
	}
	if beyond.DetectionProb >= req {
		t.Errorf("detection %v just past critical fraction still meets requirement", beyond.DetectionProb)
	}
}

// TestDegradationCurveValidation: out-of-range failure knobs are
// parameter errors.
func TestDegradationCurveValidation(t *testing.T) {
	p := Defaults()
	for _, knobs := range [][2]float64{{2, 1}, {-0.1, 1}, {0, 1.5}, {0, -1}} {
		if _, err := Degraded(p, knobs[0], knobs[1], MSOptions{}); !errors.Is(err, ErrParams) {
			t.Errorf("Degraded(f=%v, pDeliver=%v) = %v, want ErrParams", knobs[0], knobs[1], err)
		}
	}
}
