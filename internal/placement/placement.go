// Package placement inverts the paper's deployment assumption: instead of
// sampling sensor positions uniformly at random (Section 2), it *chooses*
// them — lazy-greedy submodular maximization of the K-of-M detection
// probability over a candidate grid, the design-side question "where do my
// N sensors go".
//
// The objective P[detect] is estimated by a deterministic Monte Carlo
// evaluator: one pass over the trials on the trial kernel's executor
// (sim.Execute), in which each trial draws its target track and, for
// every (sensor class, candidate cell) pair, its report count, each from
// its own RNG stream. Stream identity is a pure function of (trial,
// channel) — Philox O(1)-seek streams under field.SchemePhilox,
// DeriveSeed reseeds under field.SchemeLegacy — so results are
// bit-identical at any worker count, the same contract internal/sim keeps.
// With the mission equal to the window (the paper's setting) the sliding
// K-of-M rule reduces to "total reports across M periods >= K", which
// makes a candidate's marginal gain a single O(Trials) array scan and the
// whole greedy run cheap enough for thousands of candidates.
//
// Heterogeneous fleets are first-class: each Class carries its own
// count/Rs/Pd budget and the greedy loop assigns whichever (class,
// candidate) pair has the best marginal gain next. Every result pairs the
// placed layout against the paper's uniform-random baseline on the same
// track panel, and reports the §6 false-alarm thresholds (union-bound and
// exact) for the placed fleet size.
package placement

import (
	"context"
	"errors"
	"fmt"
	"runtime"

	"github.com/groupdetect/gbd/internal/detect"
	"github.com/groupdetect/gbd/internal/falsealarm"
	"github.com/groupdetect/gbd/internal/field"
	"github.com/groupdetect/gbd/internal/geom"
	"github.com/groupdetect/gbd/internal/stats"
	"github.com/groupdetect/gbd/internal/target"
)

// ErrConfig reports an invalid placement configuration.
var ErrConfig = errors.New("placement: invalid configuration")

// Class is one homogeneous sub-fleet to place: Count sensors sharing a
// sensing range and detection probability (detect.SensorClass with a
// placement budget semantics).
type Class struct {
	// Count is how many sensors of this class the optimizer must place.
	Count int `json:"count"`
	// Rs is the class's sensing range in meters.
	Rs float64 `json:"rs"`
	// Pd is the class's in-range per-period detection probability.
	Pd float64 `json:"pd"`
}

// Defaults of the placement problem: a DefaultGrid x DefaultGrid candidate
// lattice and a DefaultTrials-track Monte Carlo panel.
const (
	DefaultGrid   = 32
	DefaultTrials = 2000
)

// Config describes a placement problem.
type Config struct {
	// Base is the scenario: field, target kinematics, and the K-of-M rule.
	// Its N is the placement budget when Classes is nil (a single class
	// with Base.Rs and Base.Pd); with Classes set, N, Rs and Pd are
	// ignored in favor of the classes.
	Base detect.Params
	// Classes are the heterogeneous sub-fleets to place. Nil means one
	// class drawn from Base.
	Classes []Class
	// GridCols and GridRows shape the candidate lattice (cell centers of a
	// GridCols x GridRows grid over the field). 0 defaults to DefaultGrid.
	GridCols int
	GridRows int
	// Trials sizes the Monte Carlo track panel (0 defaults to DefaultTrials).
	Trials int
	// Seed makes the whole run reproducible.
	Seed int64
	// RNG selects the (seed, stream) -> draws scheme; both schemes are
	// deterministic, the counter-based one additionally O(1)-seekable.
	RNG field.RNGScheme
	// Workers is the number of executor workers running the trials; 0
	// means GOMAXPROCS.
	// Results are bit-identical at any setting.
	Workers int
	// FalseAlarmP, FAHorizon and FABudget parameterize the §6 report
	// thresholds attached to the result (0 defaults to the design
	// workflow's falsealarm.DefaultPf, DefaultHorizon and DefaultBudget).
	FalseAlarmP float64
	FAHorizon   int
	FABudget    float64
}

// Resolve fills every defaulted field (the default grid and trials,
// GOMAXPROCS workers, the design workflow's false-alarm defaults, one
// class drawn from Base) and validates the result. The int is the fleet size.
func (c Config) Resolve() (Config, int, error) {
	if c.GridCols == 0 {
		c.GridCols = DefaultGrid
	}
	if c.GridRows == 0 {
		c.GridRows = DefaultGrid
	}
	if c.GridCols < 1 || c.GridRows < 1 {
		return c, 0, fmt.Errorf("grid %dx%d must be at least 1x1: %w", c.GridCols, c.GridRows, ErrConfig)
	}
	if c.Trials == 0 {
		c.Trials = DefaultTrials
	}
	if c.Trials < 1 {
		return c, 0, fmt.Errorf("trials = %d must be positive: %w", c.Trials, ErrConfig)
	}
	if c.Workers < 0 {
		return c, 0, fmt.Errorf("workers = %d must be >= 0: %w", c.Workers, ErrConfig)
	}
	if c.Workers == 0 {
		c.Workers = runtime.GOMAXPROCS(0)
	}
	if err := c.RNG.Validate(); err != nil {
		return c, 0, fmt.Errorf("%w: %w", ErrConfig, err)
	}
	if c.FalseAlarmP == 0 {
		c.FalseAlarmP = falsealarm.DefaultPf
	}
	if !(c.FalseAlarmP >= 0 && c.FalseAlarmP <= 1) {
		return c, 0, fmt.Errorf("false alarm probability %v: %w", c.FalseAlarmP, ErrConfig)
	}
	if c.FAHorizon == 0 {
		c.FAHorizon = falsealarm.DefaultHorizon
	}
	if c.FABudget == 0 {
		c.FABudget = falsealarm.DefaultBudget
	}
	if len(c.Classes) == 0 {
		c.Classes = []Class{{Count: c.Base.N, Rs: c.Base.Rs, Pd: c.Base.Pd}}
	}
	total := 0
	for i, cl := range c.Classes {
		if cl.Count < 0 {
			return c, 0, fmt.Errorf("class %d count = %d: %w", i, cl.Count, ErrConfig)
		}
		p := c.Base
		p.N, p.Rs, p.Pd = max(cl.Count, 1), cl.Rs, cl.Pd
		if err := p.Validate(); err != nil {
			return c, 0, fmt.Errorf("class %d: %w", i, err)
		}
		total += cl.Count
	}
	if total < 1 {
		return c, 0, fmt.Errorf("placement budget is zero sensors: %w", ErrConfig)
	}
	if nCands := c.GridCols * c.GridRows; total > nCands {
		return c, 0, fmt.Errorf("budget %d exceeds the %d candidate cells: %w", total, nCands, ErrConfig)
	}
	// Validate the shared scenario at the full fleet size.
	p := c.Base
	p.N = total
	if err := p.Validate(); err != nil {
		return c, 0, err
	}
	if err := target.CheckConfinable(target.Straight{Step: p.Vt()}, geom.Square(p.FieldSide), p.M); err != nil {
		return c, 0, fmt.Errorf("%w: %w", ErrConfig, err)
	}
	return c, total, nil
}

// Placement is one placed sensor, in selection order.
type Placement struct {
	// Pos is the chosen candidate cell center.
	Pos geom.Point `json:"pos"`
	// Class indexes Config.Classes.
	Class int `json:"class"`
	// Gain is the marginal detection-probability gain this sensor
	// contributed when it was selected.
	Gain float64 `json:"gain"`
}

// Comparison quantifies the placed layout against the paper's
// uniform-random deployment baseline at equal N on the same track panel.
type Comparison struct {
	// PlacedProb is the placed layout's Monte Carlo detection probability
	// with its 95% Wilson interval.
	PlacedProb float64        `json:"placed_prob"`
	PlacedCI   stats.Interval `json:"placed_ci"`
	// UniformProb is the uniform-random baseline on the same tracks (a
	// paired estimate: only the deployment channel differs).
	UniformProb float64        `json:"uniform_prob"`
	UniformCI   stats.Interval `json:"uniform_ci"`
	// UniformAnalysis is the analytical M-S-approach probability for the
	// same fleet under uniform deployment (MSApproachMixed).
	UniformAnalysis float64 `json:"uniform_analysis"`
	// AbsGain = PlacedProb - UniformProb; RelGain = AbsGain/UniformProb.
	AbsGain float64 `json:"abs_gain"`
	RelGain float64 `json:"rel_gain"`
}

// Result is a solved placement.
type Result struct {
	// Sensors is the placed layout in greedy selection order.
	Sensors []Placement `json:"sensors"`
	// VsUniform compares the layout against uniform random deployment.
	VsUniform Comparison `json:"vs_uniform"`
	// Trials and Candidates echo the problem size.
	Trials     int `json:"trials"`
	Candidates int `json:"candidates"`
	// Evals counts marginal-gain evaluations; LazyHits counts evaluations
	// the lazy priority queue avoided (candidates whose cached upper bound
	// already settled a selection round).
	Evals    int64 `json:"evals"`
	LazyHits int64 `json:"lazy_hits"`
	// KMin and KMinExact are the §6 report thresholds for the placed fleet
	// size under the configured false-alarm model: the union bound and the
	// exact scan-statistic value (0 when the exact chain is intractable).
	KMin      int `json:"k_min"`
	KMinExact int `json:"k_min_exact"`
}

// Place solves the placement problem.
func Place(cfg Config) (*Result, error) {
	return PlaceCtx(context.Background(), cfg)
}

// PlaceCtx is Place under a context: cancellation unwinds the precompute
// and the greedy loop within a bounded amount of work. A run that
// completes is bit-identical to one under Place.
func PlaceCtx(ctx context.Context, cfg Config) (*Result, error) {
	cfg, total, err := cfg.Resolve()
	if err != nil {
		return nil, err
	}
	if err := ctx.Err(); err != nil {
		return nil, err
	}
	eng, err := newEngine(ctx, cfg, total)
	if err != nil {
		return nil, err
	}
	res, err := eng.run(ctx)
	if err != nil {
		return nil, err
	}
	evalsTotal.Add(uint64(res.Evals))
	lazyHitsTotal.Add(uint64(res.LazyHits))
	return res, nil
}

// faModel builds the §6 false-alarm model for the placed fleet.
func (c Config) faModel(total int) falsealarm.Model {
	return falsealarm.Model{N: total, Pf: c.FalseAlarmP, M: c.Base.M}
}
