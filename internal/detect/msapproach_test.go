package detect

import (
	"errors"
	"math"
	"testing"

	"github.com/groupdetect/gbd/internal/dist"
	"github.com/groupdetect/gbd/internal/numeric"
)

func mustMS(t *testing.T, p Params, opt MSOptions) *MSResult {
	t.Helper()
	res, err := MSApproach(p, opt)
	if err != nil {
		t.Fatalf("MSApproach(%+v): %v", p, err)
	}
	return res
}

func TestMSApproachBasics(t *testing.T) {
	res := mustMS(t, Defaults(), MSOptions{})
	if res.DetectionProb < 0 || res.DetectionProb > 1 {
		t.Errorf("detection prob = %v", res.DetectionProb)
	}
	if res.Mass <= 0 || res.Mass > 1+1e-9 {
		t.Errorf("mass = %v", res.Mass)
	}
	if res.RawTail > res.Mass+1e-12 {
		t.Errorf("raw tail %v exceeds mass %v", res.RawTail, res.Mass)
	}
	if res.Gh < res.G {
		t.Errorf("gh = %d should be >= g = %d (head NEDR is larger)", res.Gh, res.G)
	}
	if res.PredictedAccuracy < 0.98 {
		t.Errorf("planned accuracy = %v, want >= 0.99 target (approx)", res.PredictedAccuracy)
	}
}

func TestMSApproachValidation(t *testing.T) {
	bad := Defaults()
	bad.N = -1
	if _, err := MSApproach(bad, MSOptions{}); err == nil {
		t.Error("invalid params should fail")
	}
	// M <= ms no longer fails: the small-window evaluator covers it
	// (smallwindow_test.go). Only the S- and T-approaches reject it.
	if _, err := MSApproach(Defaults(), MSOptions{TargetAccuracy: 1.5}); err == nil {
		t.Error("target accuracy > 1 should fail")
	}
	if _, err := MSApproach(Defaults(), MSOptions{Evaluator: Evaluator(99)}); err == nil {
		t.Error("unknown evaluator should fail")
	}
}

// TestMSApproachMatrixEqualsConvolution cross-checks the two Eq. (12)
// evaluators (ablation A1).
func TestMSApproachMatrixEqualsConvolution(t *testing.T) {
	for _, p := range []Params{
		Defaults(),
		Defaults().WithN(240),
		Defaults().WithV(4),
		Defaults().WithN(60).WithV(4),
	} {
		conv := mustMS(t, p, MSOptions{Gh: 3, G: 3, Evaluator: EvaluatorConvolution})
		mat := mustMS(t, p, MSOptions{Gh: 3, G: 3, Evaluator: EvaluatorMatrix})
		if d := dist.MaxAbsDiff(conv.PMF, mat.PMF); d > 1e-12 {
			t.Errorf("N=%d V=%v: evaluators differ by %v", p.N, p.V, d)
		}
		if !numeric.AlmostEqual(conv.DetectionProb, mat.DetectionProb, 1e-12, 1e-10) {
			t.Errorf("N=%d V=%v: detection probs differ: %v vs %v",
				p.N, p.V, conv.DetectionProb, mat.DetectionProb)
		}
	}
}

// TestMSApproachMassEqualsEtaMS: the retained probability mass of the
// truncated analysis is exactly the Eq. (14) product of per-stage binomial
// CDFs, because each stage independently retains xi of its mass.
func TestMSApproachMassEqualsEtaMS(t *testing.T) {
	for _, n := range []int{60, 120, 240} {
		p := Defaults().WithN(n)
		res := mustMS(t, p, MSOptions{Gh: 3, G: 3})
		want := EtaMS(p, 3, 3)
		if !numeric.AlmostEqual(res.Mass, want, 1e-9, 1e-9) {
			t.Errorf("N=%d: mass = %v, etaMS = %v", n, res.Mass, want)
		}
	}
}

func TestMSApproachMonotoneInN(t *testing.T) {
	prev := -1.0
	for _, n := range []int{60, 90, 120, 150, 180, 210, 240} {
		res := mustMS(t, Defaults().WithN(n), MSOptions{})
		if res.DetectionProb < prev-1e-9 {
			t.Fatalf("detection prob decreased at N=%d: %v < %v", n, res.DetectionProb, prev)
		}
		prev = res.DetectionProb
	}
}

func TestMSApproachFasterTargetDetectedMoreOften(t *testing.T) {
	// Figure 9(a): V = 10 m/s beats V = 4 m/s — the faster target sweeps
	// more uncovered area per window.
	for _, n := range []int{60, 120, 240} {
		fast := mustMS(t, Defaults().WithN(n).WithV(10), MSOptions{})
		slow := mustMS(t, Defaults().WithN(n).WithV(4), MSOptions{})
		if fast.DetectionProb <= slow.DetectionProb {
			t.Errorf("N=%d: fast %v <= slow %v", n, fast.DetectionProb, slow.DetectionProb)
		}
	}
}

func TestMSApproachMonotoneInK(t *testing.T) {
	prev := 2.0
	for k := 1; k <= 10; k++ {
		res := mustMS(t, Defaults().WithK(k), MSOptions{})
		if res.DetectionProb > prev+1e-9 {
			t.Fatalf("detection prob increased at K=%d: %v > %v", k, res.DetectionProb, prev)
		}
		prev = res.DetectionProb
	}
}

func TestMSApproachMonotoneInM(t *testing.T) {
	prev := -1.0
	for _, m := range []int{10, 15, 20, 30, 40} {
		res := mustMS(t, Defaults().WithM(m), MSOptions{Gh: 4, G: 4})
		if res.DetectionProb < prev-1e-9 {
			t.Fatalf("detection prob decreased at M=%d: %v < %v", m, res.DetectionProb, prev)
		}
		prev = res.DetectionProb
	}
}

func TestMSApproachNoNormalizeLower(t *testing.T) {
	// Figure 9(b): the raw tail is below the normalized probability, and
	// the gap grows with N (more truncated mass).
	p := Defaults()
	norm := mustMS(t, p, MSOptions{Gh: 3, G: 3})
	raw := mustMS(t, p, MSOptions{Gh: 3, G: 3, NoNormalize: true})
	if raw.DetectionProb > norm.DetectionProb {
		t.Errorf("raw %v > normalized %v", raw.DetectionProb, norm.DetectionProb)
	}
	if !numeric.AlmostEqual(raw.DetectionProb, raw.RawTail, 1e-15, 1e-12) {
		t.Error("NoNormalize should report the raw tail")
	}
	gapSmall := mustMS(t, p.WithN(60), MSOptions{Gh: 3, G: 3}).DetectionProb -
		mustMS(t, p.WithN(60), MSOptions{Gh: 3, G: 3, NoNormalize: true}).DetectionProb
	gapLarge := mustMS(t, p.WithN(240), MSOptions{Gh: 3, G: 3}).DetectionProb -
		mustMS(t, p.WithN(240), MSOptions{Gh: 3, G: 3, NoNormalize: true}).DetectionProb
	if gapLarge <= gapSmall {
		t.Errorf("truncation gap should grow with N: %v (N=60) vs %v (N=240)", gapSmall, gapLarge)
	}
}

// TestMSApproachMatchesSApproach compares the paper's two analysis paths.
// They use different truncation granularity (per-NEDR vs whole-ARegion) and
// the M-S-approach treats per-NEDR sensor counts as independent binomials
// rather than jointly multinomial, so in the sparse regime they must agree
// closely but not bit-exactly.
func TestMSApproachMatchesSApproach(t *testing.T) {
	for _, n := range []int{60, 120, 240} {
		p := Defaults().WithN(n)
		msRes := mustMS(t, p, MSOptions{Gh: 6, G: 5})
		sRes, err := SApproach(p, SOptions{G: 14})
		if err != nil {
			t.Fatal(err)
		}
		if !numeric.AlmostEqual(msRes.DetectionProb, sRes.DetectionProb, 5e-3, 5e-3) {
			t.Errorf("N=%d: M-S %v vs S %v", n, msRes.DetectionProb, sRes.DetectionProb)
		}
	}
}

func TestSApproachLiteralMatchesFast(t *testing.T) {
	p := Defaults().WithN(60)
	fast, err := SApproach(p, SOptions{G: 3})
	if err != nil {
		t.Fatal(err)
	}
	lit, err := SApproach(p, SOptions{G: 3, Literal: true})
	if err != nil {
		t.Fatal(err)
	}
	if d := dist.MaxAbsDiff(fast.PMF, lit.PMF); d > 1e-13 {
		t.Errorf("literal vs fast S-approach differ by %v", d)
	}
	if !numeric.AlmostEqual(fast.DetectionProb, lit.DetectionProb, 1e-12, 1e-12) {
		t.Errorf("detection probs differ: %v vs %v", fast.DetectionProb, lit.DetectionProb)
	}
}

func TestSApproachValidation(t *testing.T) {
	bad := Defaults()
	bad.N = -1
	if _, err := SApproach(bad, SOptions{}); err == nil {
		t.Error("invalid params should fail")
	}
	short := Defaults().WithM(2)
	if _, err := SApproach(short, SOptions{}); !errors.Is(err, ErrWindowTooShort) || !errors.Is(err, ErrParams) {
		t.Errorf("M <= ms should report ErrWindowTooShort wrapping ErrParams, got %v", err)
	}
	if _, err := SApproach(Defaults(), SOptions{TargetAccuracy: -0.5}); err == nil {
		t.Error("negative target should fail")
	}
	// The target accuracy is range-checked even when G is given.
	for _, opt := range []SOptions{{G: 3, TargetAccuracy: 2}, {G: 3, TargetAccuracy: -0.5}, {G: 3, TargetAccuracy: math.NaN()}} {
		if _, err := SApproach(Defaults(), opt); !errors.Is(err, ErrParams) {
			t.Errorf("%+v: got %v, want ErrParams", opt, err)
		}
	}
}

func TestSApproachAutoG(t *testing.T) {
	p := Defaults()
	res, err := SApproach(p, SOptions{TargetAccuracy: 0.99})
	if err != nil {
		t.Fatal(err)
	}
	wantG, err := RequiredSG(p, 0.99)
	if err != nil {
		t.Fatal(err)
	}
	if res.G != wantG {
		t.Errorf("auto G = %d, want %d", res.G, wantG)
	}
	if res.PredictedAccuracy < 0.99 {
		t.Errorf("predicted accuracy %v below target", res.PredictedAccuracy)
	}
	if !numeric.AlmostEqual(res.Mass, res.PredictedAccuracy, 1e-9, 1e-9) {
		t.Errorf("S-approach mass %v should equal etaS %v", res.Mass, res.PredictedAccuracy)
	}
}

func TestSApproachNoNormalize(t *testing.T) {
	p := Defaults()
	raw, err := SApproach(p, SOptions{G: 8, NoNormalize: true})
	if err != nil {
		t.Fatal(err)
	}
	if raw.DetectionProb != raw.RawTail {
		t.Error("NoNormalize should report raw tail")
	}
}

func TestMSApproachNormalizedVsRawAccuracyClaim(t *testing.T) {
	// Section 4: at N = 240, V = 10, gh = g = 3, the un-normalized error is
	// approximately 1 - etaMS, and normalization recovers most of it.
	p := Defaults().WithN(240)
	norm := mustMS(t, p, MSOptions{Gh: 3, G: 3})
	raw := mustMS(t, p, MSOptions{Gh: 3, G: 3, NoNormalize: true})
	exact := mustMS(t, p, MSOptions{Gh: 8, G: 8})
	rawErr := exact.DetectionProb - raw.DetectionProb
	normErr := exact.DetectionProb - norm.DetectionProb
	if rawErr <= 0 {
		t.Errorf("raw analysis should under-report: err = %v", rawErr)
	}
	if normErr < 0 {
		normErr = -normErr
	}
	if normErr > rawErr/2 {
		t.Errorf("normalization should recover most truncation error: raw %v, norm %v", rawErr, normErr)
	}
	// The raw error is on the order of 1 - mass.
	if rawErr < (1-norm.Mass)/4 {
		t.Errorf("raw error %v implausibly small vs truncated mass %v", rawErr, 1-norm.Mass)
	}
}

// TestMergeAtKMatchesFullComputation: Figure 5's merged "k or more" state
// must not change the detection probability under either evaluator.
func TestMergeAtKMatchesFullComputation(t *testing.T) {
	for _, p := range []Params{Defaults(), Defaults().WithN(240).WithV(4)} {
		full := mustMS(t, p, MSOptions{Gh: 3, G: 3})
		for _, ev := range []Evaluator{EvaluatorConvolution, EvaluatorMatrix} {
			merged := mustMS(t, p, MSOptions{Gh: 3, G: 3, Evaluator: ev, MergeAtK: true})
			if len(merged.PMF) != p.K+1 {
				t.Errorf("evaluator %d: merged PMF has %d states, want K+1 = %d",
					ev, len(merged.PMF), p.K+1)
			}
			if !numeric.AlmostEqual(merged.DetectionProb, full.DetectionProb, 1e-10, 1e-10) {
				t.Errorf("evaluator %d: merged %v vs full %v", ev, merged.DetectionProb, full.DetectionProb)
			}
			if !numeric.AlmostEqual(merged.Mass, full.Mass, 1e-10, 1e-10) {
				t.Errorf("evaluator %d: merged mass %v vs full %v", ev, merged.Mass, full.Mass)
			}
		}
	}
}
