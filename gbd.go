// Package gbd analyzes and simulates group-based detection in sparse
// wireless sensor networks. It implements the models from
//
//	Zhang, Zhou, Son, Stankovic, Whitehouse.
//	"Performance Analysis of Group Based Detection for Sparse Sensor
//	Networks." IEEE ICDCS 2008.
//
// A sparse network covers only a fraction of the field with sensing disks
// but stays connected through multi-hop communication. To suppress node
// level false alarms, the system declares a detection only when at least K
// reports arrive within M sensing periods. This package answers the central
// design question — what is the probability a moving target is detected? —
// three ways:
//
//   - Analyze: the Markov-chain-based Spatial approach (M-S-approach), the
//     paper's contribution: exact per-NEDR report distributions assembled
//     with a Markov chain, in milliseconds at the planned truncation
//     bounds.
//   - AnalyzeS: the Spatial approach over the whole aggregate region, the
//     paper's stepping stone (exponential in its truncation bound when run
//     with the literal Algorithm 1).
//   - Simulate: the Monte Carlo event-detection simulator used to validate
//     the model.
//
// The extension requiring reports from at least H distinct nodes
// (AnalyzeNodes), the accuracy planner behind Figure 8 (PlanAccuracy), and
// the false-alarm-driven lower bound on K (MinK) round out the paper's
// Section 4 and future-work items.
//
// Quick start:
//
//	p := gbd.Defaults()            // the paper's ONR scenario
//	res, err := gbd.Analyze(p, gbd.MSOptions{})
//	if err != nil { ... }
//	fmt.Println(res.DetectionProb) // PM[X >= K]
//
//	simRes, err := gbd.Simulate(gbd.SimConfig{Params: p, Trials: 10000})
//	if err != nil { ... }
//	fmt.Println(simRes.DetectionProb, simRes.CI)
package gbd

import (
	"context"

	"github.com/groupdetect/gbd/internal/detect"
	"github.com/groupdetect/gbd/internal/dist"
	"github.com/groupdetect/gbd/internal/falsealarm"
	"github.com/groupdetect/gbd/internal/field"
	"github.com/groupdetect/gbd/internal/infer"
	"github.com/groupdetect/gbd/internal/sim"
)

// Params describes a surveillance scenario: field, sensors, target and the
// K-of-M group detection rule. See the field documentation in the type.
type Params = detect.Params

// MSOptions configures the M-S-approach analysis (truncation bounds,
// evaluator, normalization).
type MSOptions = detect.MSOptions

// MSResult is the M-S-approach outcome: the report-count distribution and
// the detection probability.
type MSResult = detect.MSResult

// SOptions configures the S-approach analysis.
type SOptions = detect.SOptions

// SResult is the S-approach outcome.
type SResult = detect.SResult

// NodesResult is the outcome of the distinct-nodes extension analysis.
type NodesResult = detect.NodesResult

// Evaluator selects how the Markov chain of the M-S-approach is evaluated.
type Evaluator = detect.Evaluator

// Evaluation strategies for MSOptions.Evaluator.
const (
	// EvaluatorConvolution reduces the shift-kernel chain to convolutions
	// (fast, default).
	EvaluatorConvolution = detect.EvaluatorConvolution
	// EvaluatorMatrix multiplies the literal Eq. (12) transition matrices.
	EvaluatorMatrix = detect.EvaluatorMatrix
)

// PMF is a distribution over report counts.
type PMF = dist.PMF

// SimConfig configures the Monte Carlo simulator.
type SimConfig = sim.Config

// SimResult aggregates a simulation campaign.
type SimResult = sim.Result

// TrialResult is a fully detailed single simulation trial.
type TrialResult = sim.TrialResult

// InferOptions tunes the closed-loop failure inferencer (SimConfig.Infer):
// a per-sensor sequential probability ratio test over the report stream
// that declares a sensor dead only when its silence is statistically
// inconsistent with the delivery rate the link layer is observing. The
// zero value uses alpha = beta = 0.01 and resolves the per-period report
// probability from the scenario (1 with SimConfig.Beacons, the paper's
// p_indi otherwise).
type InferOptions = infer.Options

// InferStats scores the failure inferencer against the injected ground
// truth (SimResult.Infer): final and per-period confusion, declaration
// and retraction counts, time-to-detect, and the link telemetry the
// engine observed.
type InferStats = sim.InferStats

// InferConfusion is a dead-vs-alive confusion matrix with "declared
// dead" as the positive class.
type InferConfusion = infer.Confusion

// ClosedLoopPoint feeds a truth/inference knob pair through the same
// analytical degradation model, pairing the omniscient detection
// probability with the inference-driven one (infer.DegradationPair).
func ClosedLoopPoint(p Params, truthFrac, inferredFrac, pDeliver, pDeliverHat float64, opt MSOptions) (infer.DegradationPair, error) {
	return infer.ClosedLoopPoint(p, truthFrac, inferredFrac, pDeliver, pDeliverHat, opt)
}

// Confinement selects the simulator's field-border policy.
type Confinement = sim.Confinement

// Border policies for SimConfig.Confine.
const (
	// ConfineRejection keeps the whole track inside the field (matches the
	// analysis; default).
	ConfineRejection = sim.ConfineRejection
	// ConfineNone lets tracks exit the field.
	ConfineNone = sim.ConfineNone
)

// RNGScheme selects how the simulator derives each trial's random
// stream (SimConfig.RNG).
type RNGScheme = field.RNGScheme

// Trial RNG schemes for SimConfig.RNG.
const (
	// SchemeLegacy reseeds a rand.Rand per trial from a SplitMix64-derived
	// seed (the original scheme; default, preserves historical goldens).
	SchemeLegacy = field.SchemeLegacy
	// SchemePhilox derives each trial's stream from the counter-based
	// Philox4x32-10 generator keyed by the campaign seed: O(1) stream
	// setup, with different (equally valid) draws than SchemeLegacy.
	SchemePhilox = field.SchemePhilox
)

// ParseRNGScheme maps a scheme name ("legacy", "philox", or "" for the
// legacy default) to its RNGScheme, as the binaries' -rng flags do.
func ParseRNGScheme(name string) (RNGScheme, error) { return field.ParseRNGScheme(name) }

// FalseAlarmModel is the node-level Bernoulli false alarm model used by the
// K lower-bound machinery.
type FalseAlarmModel = falsealarm.Model

// Defaults returns the paper's ONR parameter set: a 32 km x 32 km field,
// Rs = 1 km, 1-minute periods, Pd = 0.9, the 5-of-20 rule, N = 120 sensors
// and a 10 m/s target.
func Defaults() Params { return detect.Defaults() }

// Analyze runs the M-S-approach (Section 3.4): the probability that a
// straight-line constant-speed target is detected under the K-of-M rule,
// together with the full distribution of report counts.
func Analyze(p Params, opt MSOptions) (*MSResult, error) {
	return detect.MSApproach(p, opt)
}

// AnalyzeCtx is Analyze under a context, for callers that serve analyses
// with deadlines (the gbd-server request path). The analysis is not
// interruptible mid-chain, and its cost grows with the truncation bounds:
// at the default planned bounds it takes milliseconds, but gh = g = 5000
// at N = 5000 has run for seconds to minutes. The ctx is checked only
// before the computation starts and before the result is returned, so an
// expired deadline yields ctx.Err() rather than a stale result, but does
// not stop a computation already running.
func AnalyzeCtx(ctx context.Context, p Params, opt MSOptions) (*MSResult, error) {
	if err := ctx.Err(); err != nil {
		return nil, err
	}
	res, err := detect.MSApproach(p, opt)
	if err != nil {
		return nil, err
	}
	if err := ctx.Err(); err != nil {
		return nil, err
	}
	return res, nil
}

// AnalyzeS runs the S-approach (Section 3.3) over the whole aggregate
// region. Set SOptions.Literal for the paper's exponential Algorithm 1.
func AnalyzeS(p Params, opt SOptions) (*SResult, error) {
	return detect.SApproach(p, opt)
}

// AnalyzeNodes runs the Section-4 extension: at least K reports from at
// least h distinct nodes within M periods.
func AnalyzeNodes(p Params, h int, opt MSOptions) (*NodesResult, error) {
	return detect.MSApproachNodes(p, h, opt)
}

// AnalyzeNodesCtx is AnalyzeNodes under a context, with the same
// before/after deadline checks as AnalyzeCtx: a computation already
// running is not stopped, and large truncation bounds make it long.
func AnalyzeNodesCtx(ctx context.Context, p Params, h int, opt MSOptions) (*NodesResult, error) {
	if err := ctx.Err(); err != nil {
		return nil, err
	}
	res, err := detect.MSApproachNodes(p, h, opt)
	if err != nil {
		return nil, err
	}
	if err := ctx.Err(); err != nil {
		return nil, err
	}
	return res, nil
}

// SinglePeriod returns the M = 1 preliminary distribution of reports in one
// sensing period (Eq. 1), and SinglePeriodTail the corresponding
// P1[X >= k] (Eq. 2).
func SinglePeriod(p Params) (PMF, error) { return detect.SinglePeriod(p) }

// SinglePeriodTail returns P1[X >= k] for a single sensing period (Eq. 2).
func SinglePeriodTail(p Params, k int) (float64, error) {
	return detect.SinglePeriodTail(p, k)
}

// Simulate runs the Monte Carlo event-detection simulator.
func Simulate(cfg SimConfig) (*SimResult, error) { return sim.Run(cfg) }

// SimulateCtx is Simulate under a context: cancellation stops the campaign
// early with ctx.Err(); a run that completes is bit-identical to Simulate.
func SimulateCtx(ctx context.Context, cfg SimConfig) (*SimResult, error) {
	return sim.RunCtx(ctx, cfg)
}

// SimulateTrial runs one fully detailed simulation trial (deployment,
// track, per-period report counts).
func SimulateTrial(cfg SimConfig, trial int) (*TrialResult, error) {
	return sim.RunTrial(cfg, trial)
}

// AccuracyPlan is the Figure 8 planning output: the smallest truncation
// bounds meeting a target analysis accuracy.
type AccuracyPlan struct {
	// Gh and G are the M-S-approach Head and Body/Tail bounds.
	Gh, G int
	// SG is the S-approach bound over the whole ARegion.
	SG int
	// EtaMS and EtaS are the predicted accuracies (Eqs. 14 and 5) at those
	// bounds.
	EtaMS, EtaS float64
}

// PlanAccuracy computes the minimal truncation bounds for a target analysis
// accuracy (Figure 8; the paper uses 0.99).
func PlanAccuracy(p Params, target float64) (AccuracyPlan, error) {
	gh, err := detect.RequiredHeadG(p, target)
	if err != nil {
		return AccuracyPlan{}, err
	}
	g, err := detect.RequiredBodyG(p, target)
	if err != nil {
		return AccuracyPlan{}, err
	}
	sg, err := detect.RequiredSG(p, target)
	if err != nil {
		return AccuracyPlan{}, err
	}
	return AccuracyPlan{
		Gh: gh, G: g, SG: sg,
		EtaMS: detect.EtaMS(p, gh, g),
		EtaS:  detect.EtaS(p, sg),
	}, nil
}

// MinK returns the smallest K whose system-level false alarm probability
// over the horizon (in sensing periods) stays within budget, for the given
// per-sensor per-period false alarm probability — the paper's future-work
// item, answered with a union-bound guarantee.
func MinK(p Params, falseAlarmP float64, horizon int, budget float64) (int, error) {
	m := falsealarm.Model{N: p.N, Pf: falseAlarmP, M: p.M}
	return falsealarm.KMin(m, horizon, budget)
}

// Comparison pairs the analytical and simulated detection probabilities for
// one scenario.
type Comparison struct {
	// Analysis is the normalized M-S-approach probability; Simulation the
	// Monte Carlo estimate with its 95% interval bounds.
	Analysis   float64
	Simulation float64
	CILo, CIHi float64
	// AbsError is |Analysis - Simulation|.
	AbsError float64
}

// Compare runs both the analysis and the simulator on the same scenario —
// the validation loop of Section 4 as a one-liner.
func Compare(p Params, trials int, seed int64) (Comparison, error) {
	ana, err := detect.MSApproach(p, MSOptions{})
	if err != nil {
		return Comparison{}, err
	}
	res, err := sim.Run(sim.Config{Params: p, Trials: trials, Seed: seed})
	if err != nil {
		return Comparison{}, err
	}
	diff := ana.DetectionProb - res.DetectionProb
	if diff < 0 {
		diff = -diff
	}
	return Comparison{
		Analysis:   ana.DetectionProb,
		Simulation: res.DetectionProb,
		CILo:       res.CI.Lo,
		CIHi:       res.CI.Hi,
		AbsError:   diff,
	}, nil
}
