package detect

import (
	"fmt"
	"math"
)

// This file mirrors the fault-injection simulator analytically: node death
// thins the deployment to an effective density n' = n*(1-deadFrac), and
// lossy report delivery thins the per-sensor report probability to
// Pd' = Pd*pDeliver. Both effective parameters feed straight through the
// unmodified M-S-approach (Degraded) without touching the Markov
// machinery. The degradation rows that set this mirror against the
// fault-injection simulator live in internal/experiments.

// checkFrac validates a probability-like knob.
func checkFrac(name string, v float64) error {
	if v < 0 || v > 1 || math.IsNaN(v) {
		return fmt.Errorf("%s = %v must be in [0, 1]: %w", name, v, ErrParams)
	}
	return nil
}

// DegradedParams folds failures into the scenario the analysis
// understands: N' = round(N*(1-deadFrac)) surviving sensors, each
// reporting with Pd' = Pd*pDeliver. deadFrac is the fraction of nodes dead
// for the whole window; pDeliver is the probability that a generated
// report reaches the base in time to count.
func DegradedParams(p Params, deadFrac, pDeliver float64) (Params, error) {
	if err := p.Validate(); err != nil {
		return p, err
	}
	if err := checkFrac("dead fraction", deadFrac); err != nil {
		return p, err
	}
	if err := checkFrac("delivery probability", pDeliver); err != nil {
		return p, err
	}
	p.N = int(math.Round(float64(p.N) * (1 - deadFrac)))
	p.Pd = p.Pd * pDeliver
	return p, nil
}

// ThinnedParams folds both failure knobs into Pd alone:
// Pd' = Pd*(1-deadFrac)*pDeliver. For independent Bernoulli node death
// this is the exact mirror — a sensor that is dead with probability f and
// otherwise reports with probability Pd is indistinguishable from one that
// always lives and reports with probability (1-f)*Pd — whereas
// DegradedParams rounds the survivor count to an integer.
func ThinnedParams(p Params, deadFrac, pDeliver float64) (Params, error) {
	if err := p.Validate(); err != nil {
		return p, err
	}
	if err := checkFrac("dead fraction", deadFrac); err != nil {
		return p, err
	}
	if err := checkFrac("delivery probability", pDeliver); err != nil {
		return p, err
	}
	p.Pd = p.Pd * (1 - deadFrac) * pDeliver
	return p, nil
}

// Degraded runs the M-S-approach on the effective scenario from
// DegradedParams. A degradation so complete that no sensor can report
// (N' = 0 or Pd' = 0) short-circuits to a zero detection probability,
// which the truncated analysis cannot represent directly.
func Degraded(p Params, deadFrac, pDeliver float64, opt MSOptions) (*MSResult, error) {
	dp, err := DegradedParams(p, deadFrac, pDeliver)
	if err != nil {
		return nil, err
	}
	if dp.Pd == 0 || dp.N == 0 {
		return &MSResult{Params: dp, Mass: 1}, nil
	}
	return MSApproach(dp, opt)
}
