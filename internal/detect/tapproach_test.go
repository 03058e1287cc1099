package detect

import (
	"errors"
	"math"
	"testing"
	"time"

	"github.com/groupdetect/gbd/internal/dist"
	"github.com/groupdetect/gbd/internal/numeric"
)

// smallScenario returns a scenario with a small ms so the Temporal
// approach stays tractable: ms = ceil(2*1000/900) = 3.
func smallScenario() Params {
	return Params{
		N:         60,
		FieldSide: 32000,
		Rs:        1000,
		V:         15,
		T:         time.Minute,
		Pd:        0.9,
		M:         8,
		K:         3,
	}
}

func TestTApproachValidation(t *testing.T) {
	bad := smallScenario()
	bad.N = -1
	if _, err := TApproach(bad, TOptions{}); err == nil {
		t.Error("invalid params should fail")
	}
	short := smallScenario().WithM(2)
	if _, err := TApproach(short, TOptions{}); !errors.Is(err, ErrWindowTooShort) {
		t.Error("M <= ms should report ErrWindowTooShort")
	}
	// The target accuracy is range-checked whether or not the bounds are
	// planned from it.
	for _, opt := range []TOptions{
		{TargetAccuracy: 2},
		{Gh: 2, G: 1, TargetAccuracy: 2},
		{Gh: 2, G: 1, TargetAccuracy: -0.5},
		{Gh: 2, G: 1, TargetAccuracy: math.NaN()},
	} {
		if _, err := TApproach(smallScenario(), opt); !errors.Is(err, ErrParams) {
			t.Errorf("%+v: got %v, want ErrParams", opt, err)
		}
	}
}

// TestTApproachMatchesMSApproach is the Section-3.2 consistency check: the
// Temporal and M-S formulations make the same independence assumption, so
// where the T-approach is feasible at all its distribution must equal the
// M-S-approach's exactly.
func TestTApproachMatchesMSApproach(t *testing.T) {
	cases := []struct {
		name  string
		p     Params
		gh, g int
	}{
		{"small ms g1", smallScenario(), 2, 1},
		{"small ms g2", smallScenario(), 2, 2},
		{"onr fast g1", Defaults().WithM(10), 2, 1},
	}
	for _, tc := range cases {
		tRes, err := TApproach(tc.p, TOptions{Gh: tc.gh, G: tc.g})
		if err != nil {
			t.Fatalf("%s: T-approach: %v", tc.name, err)
		}
		msRes, err := MSApproach(tc.p, MSOptions{Gh: tc.gh, G: tc.g})
		if err != nil {
			t.Fatalf("%s: M-S-approach: %v", tc.name, err)
		}
		if d := dist.MaxAbsDiff(tRes.PMF, msRes.PMF); d > 1e-10 {
			t.Errorf("%s: T vs M-S PMFs differ by %v", tc.name, d)
		}
		if !numeric.AlmostEqual(tRes.DetectionProb, msRes.DetectionProb, 1e-9, 1e-9) {
			t.Errorf("%s: detection probs differ: T %v vs M-S %v",
				tc.name, tRes.DetectionProb, msRes.DetectionProb)
		}
		if !numeric.AlmostEqual(tRes.Mass, msRes.Mass, 1e-9, 1e-9) {
			t.Errorf("%s: masses differ: %v vs %v", tc.name, tRes.Mass, msRes.Mass)
		}
	}
}

// TestTApproachStateExplosion demonstrates the paper's Section-3.2
// conclusion: the slow-target ONR scenario (ms = 9) blows through a state
// budget that the small-ms case never approaches.
func TestTApproachStateExplosion(t *testing.T) {
	small, err := TApproach(smallScenario(), TOptions{Gh: 2, G: 2})
	if err != nil {
		t.Fatalf("small scenario should be feasible: %v", err)
	}
	slow := Defaults().WithV(4) // ms = 9
	_, err = TApproach(slow, TOptions{Gh: 3, G: 2, MaxStates: small.PeakStates * 10})
	var explosion *ErrStateExplosion
	if !errors.As(err, &explosion) {
		t.Fatalf("expected state explosion on ms=9, got %v", err)
	}
	if explosion.States <= small.PeakStates*10 {
		t.Errorf("explosion error should report the exceeded count: %+v", explosion)
	}
	if explosion.Error() == "" {
		t.Error("error string empty")
	}
}

// TestTApproachStateCountGrowsWithMs quantifies the explosion: peak state
// count rises steeply as ms grows with everything else fixed.
func TestTApproachStateCountGrowsWithMs(t *testing.T) {
	peaks := make([]int, 0, 3)
	for _, v := range []float64{34, 17, 9} { // ms = 1, 2, 4
		p := smallScenario()
		p.V = v
		res, err := TApproach(p, TOptions{Gh: 2, G: 1})
		if err != nil {
			t.Fatalf("V=%v: %v", v, err)
		}
		peaks = append(peaks, res.PeakStates)
	}
	if !(peaks[0] < peaks[1] && peaks[1] < peaks[2]) {
		t.Errorf("peak states should grow with ms: %v", peaks)
	}
	if peaks[2] < 4*peaks[0] {
		t.Errorf("expected steep growth, got %v", peaks)
	}
}

func TestArrivalDistributionSumsToCountMass(t *testing.T) {
	p := smallScenario()
	gm, err := p.Geometry()
	if err != nil {
		t.Fatal(err)
	}
	body := regionSet{areas: gm.AreaBAll(), fieldArea: p.FieldArea(), n: p.N, pd: p.Pd}
	for _, g := range []int{0, 1, 2, 3} {
		arr := arrivalDistribution(body, g)
		var sum numeric.Kahan
		for _, a := range arr {
			if a.prob < 0 {
				t.Fatalf("negative arrival probability %v", a.prob)
			}
			sum.Add(a.prob)
		}
		want := numeric.BinomialCDF(p.N, g, body.totalArea()/p.FieldArea())
		if !numeric.AlmostEqual(sum.Sum(), want, 1e-10, 1e-10) {
			t.Errorf("g=%d: arrival mass %v, want %v", g, sum.Sum(), want)
		}
	}
}

func TestTApproachPeakStatesReported(t *testing.T) {
	res, err := TApproach(smallScenario(), TOptions{Gh: 1, G: 1})
	if err != nil {
		t.Fatal(err)
	}
	if res.PeakStates < 2 {
		t.Errorf("peak states = %d, expected > 1", res.PeakStates)
	}
	if res.Gh != 1 || res.G != 1 {
		t.Errorf("bounds not echoed: %+v", res)
	}
}
