package detect

import (
	"math"
	"testing"

	"github.com/groupdetect/gbd/internal/numeric"
)

func TestXiMonotoneAndBounded(t *testing.T) {
	p := Defaults().WithN(240)
	prevH, prevB := -1.0, -1.0
	for g := 0; g <= 10; g++ {
		xh := XiHead(p, g)
		xb := XiBody(p, g)
		if xh < prevH || xb < prevB {
			t.Fatalf("xi not monotone at g=%d", g)
		}
		if xh < 0 || xh > 1 || xb < 0 || xb > 1 {
			t.Fatalf("xi out of range at g=%d: %v %v", g, xh, xb)
		}
		// The head NEDR is larger, so its retained mass is smaller.
		if xh > xb+1e-12 {
			t.Fatalf("xi_h %v > xi %v at g=%d", xh, xb, g)
		}
		prevH, prevB = xh, xb
	}
}

func TestXiInvalidGeometry(t *testing.T) {
	p := Defaults()
	p.Rs = -1
	if XiHead(p, 3) != 0 || XiBody(p, 3) != 0 || EtaS(p, 3) != 0 {
		t.Error("invalid geometry should yield 0 accuracy")
	}
}

func TestEtaMSProduct(t *testing.T) {
	p := Defaults().WithN(240)
	got := EtaMS(p, 3, 3)
	var want float64 = XiHead(p, 3)
	xb := XiBody(p, 3)
	for i := 0; i < p.M-1; i++ {
		want *= xb
	}
	if !numeric.AlmostEqual(got, want, 1e-12, 1e-10) {
		t.Errorf("EtaMS = %v, product = %v", got, want)
	}
	// The Section-4 benchmark point: the paper quotes ~95.6% here; our
	// literal evaluation of Eqs. (7)/(9)/(14) lands a couple of points
	// higher (see EXPERIMENTS.md). Pin the implemented value's range so
	// regressions are caught without asserting the paper's arithmetic.
	if got < 0.93 || got > 0.995 {
		t.Errorf("EtaMS(N=240, gh=g=3) = %v, outside plausible range", got)
	}
}

func TestRequiredGMeetsTarget(t *testing.T) {
	for _, n := range []int{60, 120, 240} {
		p := Defaults().WithN(n)
		gh, err := RequiredHeadG(p, 0.99)
		if err != nil {
			t.Fatal(err)
		}
		g, err := RequiredBodyG(p, 0.99)
		if err != nil {
			t.Fatal(err)
		}
		gs, err := RequiredSG(p, 0.99)
		if err != nil {
			t.Fatal(err)
		}
		target := 0.99
		perStage, err := perStageTarget(p, target)
		if err != nil {
			t.Fatal(err)
		}
		if XiHead(p, gh) < perStage {
			t.Errorf("N=%d: gh=%d misses per-stage target", n, gh)
		}
		if gh > 0 && XiHead(p, gh-1) >= perStage {
			t.Errorf("N=%d: gh=%d not minimal", n, gh)
		}
		if XiBody(p, g) < perStage {
			t.Errorf("N=%d: g=%d misses per-stage target", n, g)
		}
		if EtaS(p, gs) < target {
			t.Errorf("N=%d: G=%d misses etaS target", n, gs)
		}
		if gs > 0 && EtaS(p, gs-1) >= target {
			t.Errorf("N=%d: G=%d not minimal", n, gs)
		}
		// Figure 8 shape: G >> gh >= g.
		if !(gs > gh && gh >= g) {
			t.Errorf("N=%d: expected G > gh >= g, got G=%d gh=%d g=%d", n, gs, gh, g)
		}
	}
}

func TestRequiredGGrowsWithN(t *testing.T) {
	prevG, prevGh, prevGs := -1, -1, -1
	for n := 60; n <= 260; n += 20 {
		p := Defaults().WithN(n)
		gh, _ := RequiredHeadG(p, 0.99)
		g, _ := RequiredBodyG(p, 0.99)
		gs, _ := RequiredSG(p, 0.99)
		if gh < prevGh || g < prevG || gs < prevGs {
			t.Fatalf("required values decreased at N=%d", n)
		}
		prevG, prevGh, prevGs = g, gh, gs
	}
	// Figure 8 magnitude check at N=240: G in the low teens, gh and g small.
	p := Defaults().WithN(240)
	gs, _ := RequiredSG(p, 0.99)
	gh, _ := RequiredHeadG(p, 0.99)
	g, _ := RequiredBodyG(p, 0.99)
	if gs < 8 || gs > 16 {
		t.Errorf("G(240) = %d, expected low teens (Figure 8)", gs)
	}
	if gh > 6 || g > 4 {
		t.Errorf("gh=%d g=%d at N=240, expected small (Figure 8)", gh, g)
	}
}

func TestRequiredGValidation(t *testing.T) {
	p := Defaults()
	if _, err := RequiredHeadG(p, 0); err == nil {
		t.Error("etaR=0 should fail")
	}
	if _, err := RequiredBodyG(p, 1); err == nil {
		t.Error("etaR=1 should fail")
	}
	if _, err := RequiredSG(p, 2); err == nil {
		t.Error("etaR>1 should fail")
	}
	if _, err := RequiredHeadG(p, math.NaN()); err == nil {
		t.Error("etaR=NaN should fail")
	}
	if _, err := RequiredSG(p, math.NaN()); err == nil {
		t.Error("etaR=NaN should fail")
	}
	bad := p
	bad.M = 0
	if _, err := perStageTarget(bad, 0.99); err == nil {
		t.Error("M=0 should fail")
	}
}

func TestCostModels(t *testing.T) {
	p := Defaults() // ms = 4
	// S-approach cost explodes exponentially in G.
	if SApproachCost(p, 6) <= SApproachCost(p, 5) {
		t.Error("S cost should grow with G")
	}
	// M-S with small g is drastically cheaper than S with its required G.
	gs, _ := RequiredSG(p.WithN(240), 0.99)
	sCost := SApproachCost(p.WithN(240), gs)
	msCost := MSApproachCost(p.WithN(240), 3, 3)
	if msCost*1e3 > sCost {
		t.Errorf("expected orders-of-magnitude gap: S %v vs M-S %v", sCost, msCost)
	}
	// Degenerate ms < 2 clamps instead of collapsing the model.
	tiny := p
	tiny.V = 10000
	tiny.Rs = 100
	if SApproachCost(tiny, 2) < 4 {
		t.Error("cost model should clamp ms below 2")
	}
	if MSApproachCost(tiny, 1, 1) <= 0 {
		t.Error("M-S cost must be positive")
	}
}
