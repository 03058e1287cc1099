package gbd

import (
	"fmt"

	"github.com/groupdetect/gbd/internal/coverage"
	"github.com/groupdetect/gbd/internal/detect"
	"github.com/groupdetect/gbd/internal/field"
	"github.com/groupdetect/gbd/internal/geom"
	"github.com/groupdetect/gbd/internal/sensing"
	"github.com/groupdetect/gbd/internal/sim"
	"github.com/groupdetect/gbd/internal/system"
)

// SensorClass describes one homogeneous sub-fleet of a heterogeneous
// deployment; MixedResult is the mixed-fleet analysis outcome.
type (
	SensorClass = detect.SensorClass
	MixedResult = detect.MixedResult
)

// AnalyzeMixed computes the detection probability of a heterogeneous
// deployment (several sensor classes with their own count, range and Pd)
// by convolving per-class M-S-approach report distributions. base supplies
// the field, target and K-of-M rule.
func AnalyzeMixed(base Params, classes []SensorClass, opt MSOptions) (*MixedResult, error) {
	return detect.MSApproachMixed(base, classes, opt)
}

// SimulateMixed runs the Monte Carlo simulator for a heterogeneous
// deployment, validating AnalyzeMixed.
func SimulateMixed(cfg SimConfig, classes []SensorClass) (*SimResult, error) {
	return sim.RunMixed(cfg, classes)
}

// Sensitivity reports the elasticity of the detection probability with
// respect to one scenario parameter.
type Sensitivity = detect.Sensitivity

// Sensitivities differentiates the detection probability with respect to
// every scenario knob (N, Rs, V, Pd, FieldSide).
func Sensitivities(p Params, opt MSOptions) ([]Sensitivity, error) {
	return detect.SensitivityAnalysis(p, opt)
}

// CoverageMap is a grid discretization of a deployment's sensing coverage:
// k-coverage fractions, void fraction and maximal-breach crossing paths.
type CoverageMap = coverage.Map

// BreachResult describes the worst-case crossing of a coverage map.
type BreachResult = coverage.BreachResult

// NewCoverageMap builds a coverage map for a deployment in the scenario's
// field with the given grid cell size (meters).
func NewCoverageMap(p Params, sensors []Point, cell float64) (*CoverageMap, error) {
	return coverage.NewMap(sensors, p.Rs, geom.Square(p.FieldSide), cell)
}

// SystemConfig configures the end-to-end deployed-system simulation:
// sensing, false alarms, multi-hop delivery to a central base, and the
// windowed (optionally track-gated) decision.
type SystemConfig = system.Config

// SystemResult aggregates an end-to-end campaign.
type SystemResult = system.Result

// SimulateSystem runs the full pipeline — the deployed-system counterpart
// of Simulate, which models sensing only.
func SimulateSystem(cfg SystemConfig) (*SystemResult, error) {
	return system.Run(cfg)
}

// SizeFleet runs the sizing loop of the §6 design workflow. It picks K
// from the false-alarm budget (union-bound MinK) at a provisional fleet of
// 120, then the smallest N in [1, nMax] whose detection probability
// reaches targetProb under that K. More sensors emit more false alarms,
// so it re-checks K at the sized fleet and re-sizes N if K moved. It
// returns p with the sized N and K.
func SizeFleet(p Params, falseAlarmP float64, horizon int, budget, targetProb float64, nMax int) (Params, error) {
	const provisionalN = 120
	k, err := MinK(p.WithN(provisionalN), falseAlarmP, horizon, budget)
	if err != nil {
		return p, err
	}
	p = p.WithK(k)
	n, err := RequiredSensors(p, targetProb, nMax, MSOptions{})
	if err != nil {
		return p, fmt.Errorf("sizing the fleet: %w", err)
	}
	k2, err := MinK(p.WithN(n), falseAlarmP, horizon, budget)
	if err != nil {
		return p, err
	}
	if k2 != k {
		p = p.WithK(k2)
		n, err = RequiredSensors(p, targetProb, nMax, MSOptions{})
		if err != nil {
			return p, fmt.Errorf("re-sizing the fleet for K=%d: %w", k2, err)
		}
	}
	return p.WithN(n), nil
}

// CalibratePd maps the dwell-time (exposure) sensing model of the paper's
// footnote 1 back onto the flat per-period Pd the analysis uses: it returns
// the average per-period detection probability of a sensor placed uniformly
// in one period's detectable region when detection follows
// 1 - exp(-lambda * time-in-range). Use the result as Params.Pd, and
// SimConfig.ExposureLambda to simulate the exposure model directly.
func CalibratePd(p Params, lambda float64, samples int, seed int64) (float64, error) {
	e, err := sensing.NewExposure(p.Rs, lambda)
	if err != nil {
		return 0, err
	}
	if samples < 1 {
		return 0, fmt.Errorf("samples = %d must be positive: %w", samples, detect.ErrParams)
	}
	return e.EquivalentPd(p.Vt(), p.V, samples, field.NewRand(seed)), nil
}
