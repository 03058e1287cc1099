package detect

import (
	"errors"
	"testing"

	"github.com/groupdetect/gbd/internal/numeric"
)

func mustNodes(t *testing.T, p Params, h int, opt MSOptions) *NodesResult {
	t.Helper()
	res, err := MSApproachNodes(p, h, opt)
	if err != nil {
		t.Fatalf("MSApproachNodes(h=%d): %v", h, err)
	}
	return res
}

func TestNodesValidation(t *testing.T) {
	if _, err := MSApproachNodes(Defaults(), 0, MSOptions{}); err == nil {
		t.Error("h=0 should fail")
	}
	bad := Defaults()
	bad.N = -1
	if _, err := MSApproachNodes(bad, 1, MSOptions{}); err == nil {
		t.Error("invalid params should fail")
	}
	if _, err := MSApproachNodes(Defaults(), 2, MSOptions{Gh: 3, G: 3, TargetAccuracy: 2}); !errors.Is(err, ErrParams) {
		t.Errorf("target accuracy 2 with gh and g given: err = %v, want ErrParams", err)
	}
	short := Defaults().WithM(3)
	if _, err := MSApproachNodes(short, 1, MSOptions{Gh: 3, G: 3}); err != nil {
		t.Errorf("M <= ms should use the small-window evaluator, got %v", err)
	}
}

// TestNodesH1MatchesBase: requiring at least one distinct node is the same
// as requiring at least one report, so h=1 must reproduce the base
// M-S-approach exactly.
func TestNodesH1MatchesBase(t *testing.T) {
	for _, n := range []int{60, 120, 240} {
		p := Defaults().WithN(n)
		ext := mustNodes(t, p, 1, MSOptions{Gh: 3, G: 3})
		base := mustMS(t, p, MSOptions{Gh: 3, G: 3})
		if !numeric.AlmostEqual(ext.DetectionProb, base.DetectionProb, 1e-10, 1e-9) {
			t.Errorf("N=%d: h=1 ext %v vs base %v", n, ext.DetectionProb, base.DetectionProb)
		}
		if !numeric.AlmostEqual(ext.Mass, base.Mass, 1e-10, 1e-9) {
			t.Errorf("N=%d: masses differ: %v vs %v", n, ext.Mass, base.Mass)
		}
	}
}

func TestNodesMonotoneDecreasingInH(t *testing.T) {
	p := Defaults()
	prev := 2.0
	for h := 1; h <= 5; h++ {
		res := mustNodes(t, p, h, MSOptions{Gh: 3, G: 3})
		if res.DetectionProb > prev+1e-9 {
			t.Fatalf("detection prob increased at h=%d: %v > %v", h, res.DetectionProb, prev)
		}
		prev = res.DetectionProb
	}
}

func TestNodesJointConsistency(t *testing.T) {
	p := Defaults()
	res := mustNodes(t, p, 3, MSOptions{Gh: 3, G: 3})
	if err := res.Joint.Validate(); err != nil {
		t.Fatalf("joint invalid: %v", err)
	}
	// The report marginal must match the base analysis PMF where both are
	// defined (the joint saturates the report axis only past its bound).
	base := mustMS(t, p, MSOptions{Gh: 3, G: 3})
	marg := res.Joint.MarginalX()
	for i := 0; i < len(marg)-1 && i < len(base.PMF); i++ {
		if !numeric.AlmostEqual(marg[i], base.PMF[i], 1e-10, 1e-9) {
			t.Errorf("report marginal[%d] = %v, base %v", i, marg[i], base.PMF[i])
		}
	}
	// Reporter-axis sanity: mass at high reporter counts requires reports.
	if res.Joint[0][res.H] > 1e-15 {
		t.Error("zero reports cannot come from h reporters")
	}
	if res.RawTail > res.Mass {
		t.Error("tail exceeds mass")
	}
}

func TestNodesSparseFieldRarelyHasManyReporters(t *testing.T) {
	// In the sparse ONR scenario, demanding many distinct nodes sharply
	// reduces detection probability — the motivation for k-of-M with k
	// counted over periods rather than nodes per period.
	p := Defaults().WithN(60)
	h1 := mustNodes(t, p, 1, MSOptions{Gh: 3, G: 3})
	h4 := mustNodes(t, p, 4, MSOptions{Gh: 3, G: 3})
	if h4.DetectionProb > 0.8*h1.DetectionProb {
		t.Errorf("h=4 (%v) should be well below h=1 (%v) at N=60", h4.DetectionProb, h1.DetectionProb)
	}
}
