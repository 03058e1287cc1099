package detect

import (
	"fmt"
	"math"

	"github.com/groupdetect/gbd/internal/dist"
	"github.com/groupdetect/gbd/internal/numeric"
)

// SOptions configures the S-approach (Section 3.3).
type SOptions struct {
	// G is the maximum number of sensors in the ARegion enumerated; zero
	// plans it from TargetAccuracy via Eq. (5).
	G int
	// TargetAccuracy is the desired etaS when G is zero; zero means 0.99.
	// It must lie in (0, 1) even when G is given.
	TargetAccuracy float64
	// NoNormalize reports the raw truncated tail instead of dividing by the
	// retained mass.
	NoNormalize bool
	// Literal evaluates the paper's Algorithm 1 by explicit enumeration
	// over ordered region assignments and per-sensor report counts, with
	// the O(ms^(2G)) cost the paper reports. The default uses an exactly
	// equivalent mixture-convolution formulation that is polynomial in G;
	// both produce identical distributions (tests assert this), so Literal
	// exists for fidelity benchmarks (experiment E5).
	Literal bool
}

// SResult is the outcome of the S-approach analysis.
type SResult struct {
	// Params echoes the analyzed scenario.
	Params Params
	// G is the enumeration bound used.
	G int
	// PMF is the raw (sub-stochastic) distribution of total reports in M
	// periods.
	PMF dist.PMF
	// Mass is the retained probability mass.
	Mass float64
	// DetectionProb is P[X >= K] (normalized unless NoNormalize).
	DetectionProb float64
	// RawTail is the un-normalized tail.
	RawTail float64
	// PredictedAccuracy is etaS per Eq. (5).
	PredictedAccuracy float64
}

// SApproach analyzes group-based detection by enumerating sensors over the
// whole Aggregate Region (Section 3.3). Like the M-S-approach it requires
// M > ms so that all ms+1 coverage spans occur.
func SApproach(p Params, opt SOptions) (*SResult, error) {
	if err := p.Validate(); err != nil {
		return nil, err
	}
	gm, err := p.Geometry()
	if err != nil {
		return nil, err
	}
	if p.M <= gm.Ms {
		return nil, fmt.Errorf("M = %d, ms = %d for the S-approach: %w", p.M, gm.Ms, ErrWindowTooShort)
	}
	target, err := targetAccuracy(opt.TargetAccuracy)
	if err != nil {
		return nil, err
	}
	g := opt.G
	if g <= 0 {
		g, err = RequiredSG(p, target)
		if err != nil {
			return nil, err
		}
	}
	regions, err := gm.Regions(p.M)
	if err != nil {
		return nil, err
	}
	rs := p.region(regions)
	var pmf dist.PMF
	if opt.Literal {
		pmf, err = rs.reportPMFEnumerated(g)
	} else {
		pmf, err = rs.reportPMF(g)
	}
	if err != nil {
		return nil, err
	}
	res := &SResult{
		Params:            p,
		G:                 g,
		PMF:               pmf,
		Mass:              pmf.Total(),
		RawTail:           pmf.Tail(p.K),
		PredictedAccuracy: EtaS(p, g),
	}
	if opt.NoNormalize {
		res.DetectionProb = res.RawTail
	} else if res.Mass > 0 {
		res.DetectionProb = numeric.Clamp01(res.RawTail / res.Mass)
	}
	return res, nil
}

// reportPMFEnumerated is the literal Algorithm-1 evaluation of the region
// report distribution: for every sensor count n <= g it enumerates all
// ordered assignments (R1, ..., Rn) of sensors to subareas and, per sensor,
// all report counts Ni <= Ri, accumulating
//
//	pS{(n)(R1..Rn)} * prod_i p(Ni, Ri)
//
// into ps[N1+...+Nn]. Exponential in g; kept for fidelity to the paper's
// pseudocode and for the E5 timing reproduction.
func (r regionSet) reportPMFEnumerated(g int) (dist.PMF, error) {
	if err := r.validate(); err != nil {
		return nil, err
	}
	if g < 0 {
		return nil, fmt.Errorf("g = %d must be >= 0: %w", g, ErrParams)
	}
	if g > r.n {
		g = r.n
	}
	k := r.maxSpan()
	out := make(dist.PMF, g*k+1)
	s := r.fieldArea
	frac := r.totalArea() / s
	// n = 0 term: probability of an empty region (Eq. 4).
	out[0] += numeric.BinomialPMF(r.n, 0, frac)

	// Per-subarea probabilities and per-sensor report PMFs, precomputed.
	areaFrac := make([]float64, k+1)
	reportP := make([][]float64, k+1)
	for i := 1; i <= k; i++ {
		areaFrac[i] = r.areas[i] / s
		reportP[i] = make([]float64, i+1)
		for m := 0; m <= i; m++ {
			reportP[i][m] = numeric.BinomialPMF(i, m, r.pd) // Eq. (3)
		}
	}

	var recurse func(depth, reports int, weight float64)
	for n := 1; n <= g; n++ {
		// C(N, n) * (1 - A/S)^(N-n): the placement prefactor shared by all
		// assignments of n sensors.
		base := math.Exp(numeric.LogChoose(r.n, n) + float64(r.n-n)*math.Log1p(-frac))
		recurse = func(depth, reports int, weight float64) {
			if depth == n {
				out[reports] += weight
				return
			}
			for ri := 1; ri <= k; ri++ {
				af := areaFrac[ri]
				if af == 0 {
					continue
				}
				for ni, pn := range reportP[ri] {
					if pn == 0 {
						continue
					}
					recurse(depth+1, reports+ni, weight*af*pn)
				}
			}
		}
		recurse(0, 0, base)
	}
	return out, nil
}
