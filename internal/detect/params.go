// Package detect implements the paper's analytical models of group-based
// detection in sparse sensor networks:
//
//   - the single-period preliminary analysis (Section 3.1, Eqs. 1-2),
//   - the Spatial approach (Section 3.3, Algorithm 1), and
//   - the Markov-chain-based Spatial approach (Section 3.4, Eqs. 6-14),
//     the paper's primary contribution, with both the paper-faithful
//     matrix evaluator and an equivalent fast convolution evaluator,
//
// plus the Section-4 extension requiring reports from at least h distinct
// nodes, and the accuracy planning behind Figure 8.
package detect

import (
	"errors"
	"fmt"
	"math"
	"time"

	"github.com/groupdetect/gbd/internal/geom"
)

// ErrParams reports invalid model parameters.
var ErrParams = errors.New("detect: invalid parameters")

// ErrWindowTooShort reports that an analysis path requires the detection
// window to exceed ms. It wraps ErrParams, so errors.Is(err, ErrParams)
// still matches. MSApproach, MSApproachNodes and DetectionLatency handle
// every M >= 1 via the small-window evaluator; only the S- and T-approaches
// return this error, because their whole-ARegion enumeration assumes all
// ms+1 coverage spans occur.
var ErrWindowTooShort = fmt.Errorf("detect: window M must exceed ms: %w", ErrParams)

// Params describes a sparse-sensor-network surveillance scenario
// (Section 2 terminology).
type Params struct {
	// N is the number of sensors deployed uniformly at random in the field.
	N int
	// FieldSide is the side length of the square sensor field in meters;
	// the paper's S is FieldSide^2.
	FieldSide float64
	// Rs is the sensing range of every sensor in meters.
	Rs float64
	// V is the target speed in meters per second. The analysis assumes a
	// straight-line constant-speed track.
	V float64
	// T is the sensing period: the interval at which every sensor's local
	// detection algorithm emits a decision.
	T time.Duration
	// Pd is the probability that a sensor whose range covers the target
	// during a period detects it in that period.
	Pd float64
	// M is the group-detection window length in sensing periods.
	M int
	// K is the number of detection reports within M periods required for a
	// system-level detection.
	K int
}

// Defaults returns the Office of Naval Research parameter set the paper
// uses for all experiments (Section 4): a 32 km x 32 km field, 1 km sensing
// range, 1-minute sensing periods, Pd = 0.9, and the 5-of-20 group
// detection rule, with N = 120 sensors and a 10 m/s target as a starting
// point (the experiments sweep N from 60 to 240 and use V of 4 or 10 m/s).
func Defaults() Params {
	return Params{
		N:         120,
		FieldSide: 32000,
		Rs:        1000,
		V:         10,
		T:         time.Minute,
		Pd:        0.9,
		M:         20,
		K:         5,
	}
}

// Validate checks the parameter ranges.
func (p Params) Validate() error {
	switch {
	case p.N < 0:
		return fmt.Errorf("N = %d must be >= 0: %w", p.N, ErrParams)
	case !(p.FieldSide > 0) || math.IsInf(p.FieldSide, 0):
		return fmt.Errorf("FieldSide = %v must be positive and finite: %w", p.FieldSide, ErrParams)
	case !(p.Rs > 0) || math.IsInf(p.Rs, 0):
		return fmt.Errorf("Rs = %v must be positive and finite: %w", p.Rs, ErrParams)
	case !(p.V > 0) || math.IsInf(p.V, 0):
		return fmt.Errorf("V = %v must be positive and finite: %w", p.V, ErrParams)
	case p.T <= 0:
		return fmt.Errorf("T = %v must be positive: %w", p.T, ErrParams)
	case !(p.Pd > 0 && p.Pd <= 1):
		return fmt.Errorf("Pd = %v must be in (0, 1]: %w", p.Pd, ErrParams)
	case p.M < 1:
		return fmt.Errorf("M = %d must be >= 1: %w", p.M, ErrParams)
	case p.K < 1:
		return fmt.Errorf("K = %d must be >= 1: %w", p.K, ErrParams)
	case 2*p.Rs >= p.FieldSide:
		return fmt.Errorf("sensing diameter %v must be smaller than the field side %v: %w", 2*p.Rs, p.FieldSide, ErrParams)
	}
	// ms = ⌈2Rs/(V·t)⌉ sizes every per-stage table; the geometry refuses
	// one no int holds, as a tiny V·t gives.
	if _, err := p.Geometry(); err != nil {
		return fmt.Errorf("%v: %w", err, ErrParams)
	}
	return nil
}

// Vt returns the distance the target travels in one sensing period.
func (p Params) Vt() float64 { return p.V * p.T.Seconds() }

// FieldArea returns S, the area of the sensor field.
func (p Params) FieldArea() float64 { return p.FieldSide * p.FieldSide }

// Geometry returns the detectable-region decomposition for this scenario.
func (p Params) Geometry() (geom.DRGeometry, error) {
	return geom.NewDRGeometry(p.Rs, p.Vt())
}

// Ms returns ms = ceil(2*Rs/(V*t)), the number of periods the target takes
// to traverse a sensing diameter. It returns 0 for invalid parameters.
func (p Params) Ms() int {
	g, err := p.Geometry()
	if err != nil {
		return 0
	}
	return g.Ms
}

// PIndi returns p_indi (Section 3.1): the probability that one uniformly
// placed sensor detects the target in a given sensing period, i.e. the DR
// area fraction times Pd.
func (p Params) PIndi() float64 {
	g, err := p.Geometry()
	if err != nil {
		return 0
	}
	return p.Pd * g.DRArea() / p.FieldArea()
}

// Density returns the expected number of sensors per sensing-disk area,
// a convenient sparsity measure (<< 1 means sparse).
func (p Params) Density() float64 {
	return float64(p.N) * geom.CircleArea(p.Rs) / p.FieldArea()
}

// WithN returns a copy of p with N replaced; handy for parameter sweeps.
func (p Params) WithN(n int) Params { p.N = n; return p }

// WithV returns a copy of p with V replaced.
func (p Params) WithV(v float64) Params { p.V = v; return p }

// WithK returns a copy of p with K replaced.
func (p Params) WithK(k int) Params { p.K = k; return p }

// WithM returns a copy of p with M replaced.
func (p Params) WithM(m int) Params { p.M = m; return p }
