package detect

import (
	"fmt"
	"math"

	"github.com/groupdetect/gbd/internal/numeric"
)

// XiHead returns xi_h (Eq. 7): the probability that at most gh sensors fall
// inside the Head-stage NEDR (area 2*Rs*V*t + pi*Rs^2), i.e. the fraction
// of the probability space the truncated Head-stage computation retains.
func XiHead(p Params, gh int) float64 {
	gm, err := p.Geometry()
	if err != nil {
		return 0
	}
	return numeric.BinomialCDF(p.N, gh, gm.HeadNEDRArea()/p.FieldArea())
}

// XiBody returns xi (Eq. 9): the probability that at most g sensors fall
// inside a Body/Tail-stage NEDR (area 2*Rs*V*t).
func XiBody(p Params, g int) float64 {
	gm, err := p.Geometry()
	if err != nil {
		return 0
	}
	return numeric.BinomialCDF(p.N, g, gm.BodyNEDRArea()/p.FieldArea())
}

// EtaMS returns etaMS (Eq. 14): the predicted analysis accuracy of the
// M-S-approach with Head truncation gh and Body/Tail truncation g —
// xi_h * xi^(M-1), since the Body and Tail stages together contribute M-1
// NEDRs of equal size.
func EtaMS(p Params, gh, g int) float64 {
	return XiHead(p, gh) * math.Pow(XiBody(p, g), float64(p.M-1))
}

// EtaS returns etaS (Eq. 5): the predicted analysis accuracy of the
// S-approach when at most G sensors in the whole ARegion are enumerated.
func EtaS(p Params, g int) float64 {
	gm, err := p.Geometry()
	if err != nil {
		return 0
	}
	return numeric.BinomialCDF(p.N, g, gm.ARegionArea(p.M)/p.FieldArea())
}

// perStageTarget returns etaR^(1/M), the per-stage accuracy requirement the
// paper derives by setting xi_h = xi for simplicity (Section 3.4.5).
func perStageTarget(p Params, etaR float64) (float64, error) {
	if !(etaR > 0 && etaR < 1) { // NaN fails too
		return 0, fmt.Errorf("target accuracy %v must be in (0, 1): %w", etaR, ErrParams)
	}
	if p.M < 1 {
		return 0, fmt.Errorf("M = %d: %w", p.M, ErrParams)
	}
	return math.Pow(etaR, 1/float64(p.M)), nil
}

// RequiredHeadG returns the smallest gh whose Head-stage accuracy xi_h
// meets the per-stage requirement etaR^(1/M) (Figure 8's gh curve).
func RequiredHeadG(p Params, etaR float64) (int, error) {
	target, err := perStageTarget(p, etaR)
	if err != nil {
		return 0, err
	}
	for gh := 0; gh <= p.N; gh++ {
		if XiHead(p, gh) >= target {
			return gh, nil
		}
	}
	return p.N, nil
}

// RequiredBodyG returns the smallest g whose Body/Tail-stage accuracy xi
// meets the per-stage requirement etaR^(1/M) (Figure 8's g curve).
func RequiredBodyG(p Params, etaR float64) (int, error) {
	target, err := perStageTarget(p, etaR)
	if err != nil {
		return 0, err
	}
	for g := 0; g <= p.N; g++ {
		if XiBody(p, g) >= target {
			return g, nil
		}
	}
	return p.N, nil
}

// RequiredSG returns the smallest G with etaS(G) >= etaR (Figure 8's G
// curve): the enumeration depth the S-approach needs over the whole
// ARegion.
func RequiredSG(p Params, etaR float64) (int, error) {
	if !(etaR > 0 && etaR < 1) { // NaN fails too
		return 0, fmt.Errorf("target accuracy %v must be in (0, 1): %w", etaR, ErrParams)
	}
	for g := 0; g <= p.N; g++ {
		if EtaS(p, g) >= etaR {
			return g, nil
		}
	}
	return p.N, nil
}

// SApproachCost returns the paper's S-approach time-complexity estimate
// O(ms^(2G)) as a floating-point operation count; Section 3.4.5 uses it to
// argue the S-approach is computationally infeasible for realistic G.
func SApproachCost(p Params, g int) float64 {
	ms := float64(p.Ms())
	if ms < 2 {
		ms = 2
	}
	return math.Pow(ms, 2*float64(g))
}

// MSApproachCost returns the paper's M-S-approach complexity estimate
// O(ms^(2gh) + (M-1) * ms^(2g)).
func MSApproachCost(p Params, gh, g int) float64 {
	ms := float64(p.Ms())
	if ms < 2 {
		ms = 2
	}
	return math.Pow(ms, 2*float64(gh)) + float64(p.M-1)*math.Pow(ms, 2*float64(g))
}
