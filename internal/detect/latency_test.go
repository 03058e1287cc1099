package detect

import (
	"math"
	"testing"

	"github.com/groupdetect/gbd/internal/numeric"
)

func TestDetectionLatencyBasics(t *testing.T) {
	p := Defaults()
	cdf, err := DetectionLatency(p, MSOptions{Gh: 3, G: 3})
	if err != nil {
		t.Fatal(err)
	}
	if cdf.FirstPeriod != 1 {
		t.Errorf("FirstPeriod = %d, want 1", cdf.FirstPeriod)
	}
	if len(cdf.P) != p.M {
		t.Errorf("len(P) = %d, want %d", len(cdf.P), p.M)
	}
	// Monotone non-decreasing and within [0, 1].
	prev := 0.0
	for i, v := range cdf.P {
		if v < prev || v < 0 || v > 1 {
			t.Fatalf("CDF not monotone in [0,1] at %d: %v", i, v)
		}
		prev = v
	}
	// The final point is the paper's end-of-window detection probability.
	full, err := MSApproach(p, MSOptions{Gh: 3, G: 3})
	if err != nil {
		t.Fatal(err)
	}
	last := cdf.P[len(cdf.P)-1]
	if !numeric.AlmostEqual(last, full.DetectionProb, 1e-9, 1e-9) {
		t.Errorf("CDF end %v != window probability %v", last, full.DetectionProb)
	}
}

func TestLatencyCDFAccessors(t *testing.T) {
	cdf := LatencyCDF{FirstPeriod: 5, P: []float64{0.1, 0.4, 0.8}}
	if got := cdf.ByPeriod(4); got != 0 {
		t.Errorf("before first period = %v", got)
	}
	if got := cdf.ByPeriod(6); got != 0.4 {
		t.Errorf("ByPeriod(6) = %v", got)
	}
	if got := cdf.ByPeriod(99); got != 0.8 {
		t.Errorf("beyond range = %v", got)
	}
	if m, ok := cdf.Quantile(0.5); !ok || m != 7 {
		t.Errorf("Quantile(0.5) = %d, %v", m, ok)
	}
	if _, ok := cdf.Quantile(0.9); ok {
		t.Error("unreachable quantile should report false")
	}
	var empty LatencyCDF
	if empty.ByPeriod(3) != 0 {
		t.Error("empty CDF should return 0")
	}
}

func TestDetectionLatencyValidation(t *testing.T) {
	bad := Defaults()
	bad.N = -1
	if _, err := DetectionLatency(bad, MSOptions{}); err == nil {
		t.Error("invalid params should fail")
	}
	short := Defaults().WithM(4) // M == ms: every window is small
	cdf, err := DetectionLatency(short, MSOptions{Gh: 4, G: 4})
	if err != nil {
		t.Fatalf("M <= ms should use the small-window evaluator, got %v", err)
	}
	if len(cdf.P) != short.M {
		t.Errorf("len(P) = %d, want %d", len(cdf.P), short.M)
	}
}

func TestRequiredN(t *testing.T) {
	p := Defaults()
	n, err := RequiredN(p, 0.9, 400, MSOptions{Gh: 3, G: 3})
	if err != nil {
		t.Fatal(err)
	}
	at, err := MSApproach(p.WithN(n), MSOptions{Gh: 3, G: 3})
	if err != nil {
		t.Fatal(err)
	}
	if at.DetectionProb < 0.9 {
		t.Errorf("N=%d gives %v < 0.9", n, at.DetectionProb)
	}
	if n > 1 {
		below, err := MSApproach(p.WithN(n-1), MSOptions{Gh: 3, G: 3})
		if err != nil {
			t.Fatal(err)
		}
		if below.DetectionProb >= 0.9 {
			t.Errorf("N=%d not minimal: N-1 gives %v", n, below.DetectionProb)
		}
	}
	// Figure 9(a) anchor: ~0.93 at N=180, so RequiredN(0.9) should be near.
	if n < 150 || n > 200 {
		t.Errorf("RequiredN(0.9) = %d, expected ~160-180 per Figure 9(a)", n)
	}
}

func TestRequiredNValidation(t *testing.T) {
	p := Defaults()
	if _, err := RequiredN(p, 0, 200, MSOptions{}); err == nil {
		t.Error("target 0 should fail")
	}
	if _, err := RequiredN(p, 1, 200, MSOptions{}); err == nil {
		t.Error("target 1 should fail")
	}
	if _, err := RequiredN(p, math.NaN(), 200, MSOptions{}); err == nil {
		t.Error("target NaN should fail")
	}
	if _, err := RequiredN(p, 0.5, 0, MSOptions{}); err == nil {
		t.Error("nMax 0 should fail")
	}
	// Unreachable target.
	if _, err := RequiredN(p, 0.999, 60, MSOptions{Gh: 3, G: 3}); err == nil {
		t.Error("unreachable target should fail")
	}
	bad := p
	bad.Rs = -1
	if _, err := RequiredN(bad, 0.5, 100, MSOptions{}); err == nil {
		t.Error("invalid params should fail")
	}
}

func TestMissionBounds(t *testing.T) {
	p := Defaults()
	lo, hi, err := MissionBounds(p, 40, MSOptions{Gh: 3, G: 3})
	if err != nil {
		t.Fatal(err)
	}
	if !(lo > 0 && lo <= hi && hi <= 1) {
		t.Errorf("bounds [%v, %v] malformed", lo, hi)
	}
	// Mission == window collapses the bracket.
	lo2, hi2, err := MissionBounds(p, p.M, MSOptions{Gh: 3, G: 3})
	if err != nil {
		t.Fatal(err)
	}
	if lo2 != hi2 {
		t.Errorf("mission == M should collapse: [%v, %v]", lo2, hi2)
	}
	if _, _, err := MissionBounds(p, 5, MSOptions{}); err == nil {
		t.Error("mission < M should fail")
	}
	bad := p
	bad.N = -1
	if _, _, err := MissionBounds(bad, 40, MSOptions{}); err == nil {
		t.Error("invalid params should fail")
	}
}
