// Package falsealarm quantifies system-level false alarms for group-based
// detection and computes the minimal report threshold k that meets a false
// alarm budget — the paper's Section-6 future-work item ("the exact lower
// bound of k based on a specified false alarm model").
//
// The node-level model is the one the paper motivates: each of the N
// sensors independently emits a spurious report in each sensing period with
// probability Pf. A system-level false alarm occurs when some window of M
// consecutive periods accumulates at least k false reports (optionally
// additionally required to be track-consistent via the kinematic gate in
// internal/track, which is how deployed systems interpret "mapped to a
// possible target track").
package falsealarm

import (
	"errors"
	"fmt"
	"math"
	"time"

	"github.com/groupdetect/gbd/internal/field"
	"github.com/groupdetect/gbd/internal/geom"
	"github.com/groupdetect/gbd/internal/numeric"
	"github.com/groupdetect/gbd/internal/track"
)

// The §6 design workflow's false-alarm defaults: a per-sensor per-period
// false alarm probability Pf, the horizon in sensing periods (a day of
// one-minute periods), and the system false-alarm budget over it. The
// gbd-design flags, the /v1/design request and the placement engine all
// default to these.
const (
	DefaultPf      = 1e-4
	DefaultHorizon = 1440
	DefaultBudget  = 0.01
)

// ErrModel reports invalid false-alarm model parameters.
var ErrModel = errors.New("falsealarm: invalid model")

// Model is the node-level Bernoulli false alarm model.
type Model struct {
	// N is the number of deployed sensors.
	N int
	// Pf is the per-sensor per-period false alarm probability.
	Pf float64
	// M is the group-detection window length in periods.
	M int
}

// Validate checks the model's ranges.
func (m Model) Validate() error {
	switch {
	case m.N < 0:
		return fmt.Errorf("N = %d: %w", m.N, ErrModel)
	case m.Pf < 0 || m.Pf > 1 || math.IsNaN(m.Pf):
		return fmt.Errorf("Pf = %v: %w", m.Pf, ErrModel)
	case m.M < 1:
		return fmt.Errorf("M = %d: %w", m.M, ErrModel)
	}
	return nil
}

// WindowTail returns the probability that a single fixed M-period window
// contains at least k false reports: the reports are N*M independent
// Bernoulli(Pf) draws, so this is a binomial tail.
func (m Model) WindowTail(k int) float64 {
	if err := m.Validate(); err != nil {
		return 0
	}
	return numeric.BinomialTail(m.N*m.M, k, m.Pf)
}

// HorizonUnionBound returns an upper bound on the probability that any of
// the sliding M-windows within a horizon of `horizon` periods reaches k
// false reports: (horizon - M + 1) * WindowTail(k), clamped to [0, 1].
// Sliding windows overlap, so the true probability is lower; the bound is
// what gives the "statistical guarantee" the paper asks for.
func (m Model) HorizonUnionBound(k, horizon int) float64 {
	if horizon < m.M {
		return 0
	}
	windows := float64(horizon - m.M + 1)
	return numeric.Clamp01(windows * m.WindowTail(k))
}

// KMin returns the smallest k whose union-bounded system false alarm
// probability over the horizon is at most budget. Choosing K >= KMin
// guarantees the false alarm budget regardless of how the false alarms are
// sequenced (the guarantee requested in the paper's future work).
func KMin(m Model, horizon int, budget float64) (int, error) {
	if err := m.Validate(); err != nil {
		return 0, err
	}
	if horizon < m.M {
		return 0, fmt.Errorf("horizon %d shorter than window %d: %w", horizon, m.M, ErrModel)
	}
	if !(budget > 0 && budget < 1) {
		return 0, fmt.Errorf("budget %v must be in (0, 1): %w", budget, ErrModel)
	}
	for k := 1; k <= m.N*m.M; k++ {
		if m.HorizonUnionBound(k, horizon) <= budget {
			return k, nil
		}
	}
	return m.N*m.M + 1, nil
}

// SimOptions configures the Monte Carlo false-alarm-rate estimator.
type SimOptions struct {
	// FieldSide and Rs describe the deployment geometry (used for report
	// positions and the kinematic gate's slack).
	FieldSide float64
	Rs        float64
	// MaxSpeed and Period parameterize the kinematic gate.
	MaxSpeed float64
	Period   time.Duration
	// Gated applies the track-consistency filter; ungated counts raw
	// reports per window (the analytical model above).
	Gated bool
	// Trials and Seed control the Monte Carlo run.
	Trials int
	Seed   int64
}

// SimulateRate estimates the probability that false alarms alone trigger
// the k-of-M rule at least once within the horizon. With Gated it also
// requires the triggering reports to be track-consistent, quantifying how
// much the kinematic gate tightens the guarantee beyond the counting bound.
func SimulateRate(m Model, k, horizon int, opt SimOptions) (float64, error) {
	if err := m.Validate(); err != nil {
		return 0, err
	}
	if k < 1 || horizon < m.M {
		return 0, fmt.Errorf("k = %d, horizon = %d: %w", k, horizon, ErrModel)
	}
	if opt.Trials < 1 {
		return 0, fmt.Errorf("trials = %d: %w", opt.Trials, ErrModel)
	}
	if opt.FieldSide <= 0 || opt.Rs <= 0 {
		return 0, fmt.Errorf("field %v, Rs %v: %w", opt.FieldSide, opt.Rs, ErrModel)
	}
	gate, err := track.NewGate(opt.MaxSpeed, opt.Period, opt.Rs)
	if err != nil {
		return 0, err
	}
	triggered := 0
	for trial := 0; trial < opt.Trials; trial++ {
		rng := field.NewRand(field.DeriveSeed(opt.Seed, int64(trial)))
		sensors, err := field.Uniform(m.N, geom.Square(opt.FieldSide), rng)
		if err != nil {
			return 0, err
		}
		var reports []track.Report
		for period := 1; period <= horizon; period++ {
			for s := 0; s < m.N; s++ {
				if rng.Float64() < m.Pf {
					reports = append(reports, track.Report{Sensor: s, Pos: sensors[s], Period: period})
				}
			}
		}
		dec, err := track.Decide(reports, k, m.M, gate, opt.Gated)
		if err != nil {
			return 0, err
		}
		if dec.Detected {
			triggered++
		}
	}
	return float64(triggered) / float64(opt.Trials), nil
}
