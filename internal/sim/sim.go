// Package sim implements the Monte Carlo event-detection simulator used to
// validate the analytical model (Section 4 of the paper; the authors' was
// written in Matlab). A trial deploys N sensors uniformly at random, drops a
// target at a random entry point and heading, moves it for M sensing
// periods, counts the detection reports generated along the track, and
// declares a system-level detection when at least K reports accumulate.
// Trials are independent, deterministic per (Seed, trial index), and run in
// parallel across workers.
package sim

import (
	"context"
	"errors"
	"fmt"
	"math"
	"runtime"
	"time"

	"github.com/groupdetect/gbd/internal/detect"
	"github.com/groupdetect/gbd/internal/faults"
	"github.com/groupdetect/gbd/internal/field"
	"github.com/groupdetect/gbd/internal/geom"
	"github.com/groupdetect/gbd/internal/infer"
	"github.com/groupdetect/gbd/internal/netsim"
	"github.com/groupdetect/gbd/internal/stats"
	"github.com/groupdetect/gbd/internal/target"
)

// ErrConfig reports an invalid simulation configuration.
var ErrConfig = errors.New("sim: invalid configuration")

// ErrConfinement reports failure to sample a confined track. It is
// target.ErrConfinement, the one sentinel every simulator's track sampler
// wraps.
var ErrConfinement = target.ErrConfinement

// Confinement selects how target tracks interact with the field border.
type Confinement int

const (
	// ConfineRejection resamples the entry point and heading until the
	// whole track stays inside the field. This matches the analytical
	// model, which assumes the full ARegion is populated with sensors; it
	// is the default. A straight track no shorter than the field diagonal
	// never fits, so Run refuses it with ErrConfig (wrapping
	// ErrConfinement) before any trial.
	ConfineRejection Confinement = iota + 1
	// ConfineNone uses the first sampled entry point and heading even if
	// the target exits the field (the paper's literal simulation text).
	// Periods spent outside simply find no sensors.
	ConfineNone
)

// Config describes a simulation campaign.
type Config struct {
	// Params is the scenario; its N, FieldSide, Rs, V, T, Pd, M, K fields
	// drive the trial mechanics.
	Params detect.Params
	// Model generates target tracks. Nil means the straight-line model at
	// the scenario speed, matching the analysis.
	Model target.Model
	// Trials is the number of Monte Carlo trials (the paper uses 10000).
	Trials int
	// Seed makes the whole campaign reproducible. Trial i derives its own
	// stream from (Seed, i), so results are independent of scheduling.
	Seed int64
	// RNG selects the random number scheme mapping (Seed, trial) to a
	// stream. The zero value is field.SchemeLegacy — the original
	// per-trial reseed, preserving every existing golden result.
	// field.SchemePhilox switches to the counter-based Philox4×32-10
	// scheme: O(1) stream setup, the track drawn before the deployment,
	// and only the sensors that can see it placed unless a stage needs
	// the whole field (see kernel.go). Draws differ between schemes, so
	// results are reproducible per scheme; the detection law is the same.
	RNG field.RNGScheme
	// Workers bounds parallelism; 0 means GOMAXPROCS.
	Workers int
	// Confine selects border handling; 0 means ConfineRejection.
	Confine Confinement
	// FalseAlarmP, when positive, adds per-sensor per-period Bernoulli
	// false alarms to the report counts (the analysis excludes these; the
	// paper predicts they only raise detection probability).
	FalseAlarmP float64
	// ExposureLambda, when positive, replaces the flat in-range Pd with
	// the dwell-time model of the paper's footnote 1: a sensor detects in
	// a period with probability 1 - exp(-lambda * time-in-range). Pair it
	// with sensing.Exposure.EquivalentPd to calibrate the flat analysis.
	ExposureLambda float64
	// MissionPeriods extends the target's presence beyond one detection
	// window: the target moves for this many periods (>= Params.M) and the
	// system detects it when ANY sliding window of M consecutive periods
	// accumulates K reports. Zero means Params.M (the paper's setting,
	// where mission and window coincide).
	MissionPeriods int
	// Faults, when non-nil, injects node failures: a sensor dead in a
	// period neither senses nor relays during it. The paper assumes
	// immortal sensors (Faults == nil). A faults.Bernoulli with DeadFrac
	// 0 is no fault model: it resolves to nil, so a dead-fraction sweep
	// passes faults.Bernoulli{DeadFrac: f} at every f and its f = 0 point
	// is the fault-free campaign draw for draw.
	Faults faults.Model
	// CommRange, when positive, stops assuming instant lossless report
	// delivery: sensors form a unit-disk network over this radio range and
	// every report is forwarded hop by hop to a base station at the node
	// nearest the field center under the Loss model. Reports lost in
	// transit never count toward the K-of-M rule; reports arriving in a
	// later period count at their arrival period. Zero keeps the paper's
	// delivery assumption.
	CommRange float64
	// Loss tunes the lossy channel when CommRange is set. Zero-value
	// fields default to a reliable baseline: PerHopDelivery 1, PerHop 10s,
	// no retries, Budget = one sensing period.
	Loss netsim.LossModel
	// PDeliver, when in (0, 1), models a single-hop lossy uplink: every
	// frame (detection report or beacon) independently reaches the base
	// with this probability, and losses are visible to the link-layer
	// telemetry. It is the flat-delivery mirror of the analytical
	// degradation knob and is mutually exclusive with CommRange, which
	// models delivery hop by hop instead. 0 (or 1) keeps delivery certain.
	PDeliver float64
	// Beacons, when true, makes every alive sensor emit one per-period
	// status beacon through the delivery layer. Beacons never count
	// toward the K-of-M detection rule; they exist so the failure
	// inferencer observes every sensor at a usable rate (the paper's
	// per-sensor detection probability p_indi is far too small to infer
	// from detection reports alone in one window — see infer.
	// ExpectedReportProb).
	Beacons bool
	// Infer, when non-nil, runs the failure-inference engine over the
	// per-period report stream of every trial and aggregates its
	// accuracy against the injected ground truth into Result.Infer. A
	// zero ReportProb is resolved to infer.ExpectedReportProb(Params,
	// Beacons). The engine only reads the stream — it never perturbs the
	// trial's randomness, so a campaign with Infer set reports the same
	// detection results as one without.
	Infer *infer.Options
}

func (c Config) withDefaults() (Config, error) {
	if err := c.Params.Validate(); err != nil {
		return c, err
	}
	if c.Trials <= 0 {
		return c, fmt.Errorf("trials = %d must be positive: %w", c.Trials, ErrConfig)
	}
	if c.Workers < 0 {
		return c, fmt.Errorf("workers = %d must be >= 0: %w", c.Workers, ErrConfig)
	}
	if c.Workers == 0 {
		c.Workers = runtime.GOMAXPROCS(0)
	}
	if err := c.RNG.Validate(); err != nil {
		return c, fmt.Errorf("%w: %w", ErrConfig, err)
	}
	if c.Confine == 0 {
		c.Confine = ConfineRejection
	}
	if c.Confine != ConfineRejection && c.Confine != ConfineNone {
		return c, fmt.Errorf("unknown confinement %d: %w", c.Confine, ErrConfig)
	}
	if !(c.FalseAlarmP >= 0 && c.FalseAlarmP <= 1) {
		return c, fmt.Errorf("false alarm probability %v: %w", c.FalseAlarmP, ErrConfig)
	}
	if !(c.ExposureLambda >= 0) {
		return c, fmt.Errorf("exposure lambda %v must be >= 0: %w", c.ExposureLambda, ErrConfig)
	}
	if c.MissionPeriods != 0 && c.MissionPeriods < c.Params.M {
		return c, fmt.Errorf("mission %d shorter than window %d: %w", c.MissionPeriods, c.Params.M, ErrConfig)
	}
	if c.MissionPeriods == 0 {
		c.MissionPeriods = c.Params.M
	}
	if c.Model == nil {
		c.Model = target.Straight{Step: c.Params.Vt()}
	}
	if c.Confine == ConfineRejection {
		if err := target.CheckConfinable(c.Model, geom.Square(c.Params.FieldSide), c.MissionPeriods); err != nil {
			return c, fmt.Errorf("%w: %w", ErrConfig, err)
		}
	}
	if b, ok := c.Faults.(faults.Bernoulli); ok && b.DeadFrac == 0 {
		c.Faults = nil
	}
	if c.CommRange < 0 || math.IsNaN(c.CommRange) {
		return c, fmt.Errorf("comm range %v must be >= 0: %w", c.CommRange, ErrConfig)
	}
	if c.CommRange > 0 {
		if c.Loss.PerHopDelivery == 0 {
			c.Loss.PerHopDelivery = 1
		}
		if c.Loss.PerHop == 0 {
			c.Loss.PerHop = 10 * time.Second
		}
		if c.Loss.Budget == 0 {
			c.Loss.Budget = c.Params.T
		}
		if err := c.Loss.Validate(); err != nil {
			return c, err
		}
	}
	if c.PDeliver < 0 || c.PDeliver > 1 || math.IsNaN(c.PDeliver) {
		return c, fmt.Errorf("delivery probability %v must be in [0, 1]: %w", c.PDeliver, ErrConfig)
	}
	if c.PDeliver > 0 && c.PDeliver < 1 && c.CommRange > 0 {
		return c, fmt.Errorf("PDeliver and CommRange are mutually exclusive delivery models: %w", ErrConfig)
	}
	if c.Infer != nil {
		// Resolve against a copy: the caller's Options must not mutate.
		o := *c.Infer
		if o.ReportProb == 0 {
			o.ReportProb = infer.ExpectedReportProb(c.Params, c.Beacons)
		}
		if err := o.Validate(); err != nil {
			return c, fmt.Errorf("%w: %w", ErrConfig, err)
		}
		c.Infer = &o
	}
	return c, nil
}

// Result summarizes a simulation campaign.
type Result struct {
	// Trials and Detections count completed trials and system-level
	// detections.
	Trials, Detections int
	// DetectionProb is Detections/Trials.
	DetectionProb float64
	// CI is the 95% Wilson confidence interval for DetectionProb.
	CI stats.Interval
	// Reports is the distribution of total report counts across trials.
	Reports stats.Histogram
	// Latency is the distribution, over detected trials, of the first
	// sensing period at which the cumulative report count reached K.
	Latency stats.Histogram
	// MeanReports is the average number of reports per trial.
	MeanReports float64
	// Faults summarizes the fault-injection accounting. Without a fault
	// or delivery model it counts nothing and MeanAliveFrac is 1.
	Faults FaultStats
	// Infer scores the failure-inference engine against the injected
	// ground truth; nil unless Config.Infer was set.
	Infer *InferStats
}

// InferStats aggregates the failure inferencer's accuracy across a
// campaign (or, on TrialResult, one trial). Every field is an integer
// sum — the derived ratios are computed on demand — so aggregation is
// associative and campaign results are bit-identical at any worker
// count, the same contract the rest of Result keeps.
type InferStats struct {
	// Sensors counts scored sensor-trials (N per trial); Periods counts
	// scored sensor-periods (N*mission per trial).
	Sensors, Periods int
	// Final is the end-of-mission confusion of the inferred mask against
	// the ground-truth mask, summed over trials; PerPeriod accumulates
	// the same comparison after every observed period.
	Final, PerPeriod infer.Confusion
	// Declarations and Retractions count engine state transitions.
	Declarations, Retractions int
	// TTDSum sums, over the TTDCount dead sensors that were declared at
	// or after their true death period, declaredAt - diedAt + 1 periods.
	TTDSum, TTDCount int
	// InferredDead and TruthDead count end-of-mission dead sensors by
	// the engine's belief and by ground truth.
	InferredDead, TruthDead int
	// Generated and Delivered are the uplink telemetry the engine
	// observed: frames (reports and beacons) handed to the delivery
	// layer and frames that arrived within their generating period.
	Generated, Delivered int
}

// Precision and Recall score the end-of-mission mask with "dead" as the
// positive class.
func (s InferStats) Precision() float64 { return s.Final.Precision() }
func (s InferStats) Recall() float64    { return s.Final.Recall() }

// MeanTimeToDetect is the average number of periods from a sensor's true
// death to its declaration, over dead sensors that were declared. 0 when
// no death was detected.
func (s InferStats) MeanTimeToDetect() float64 {
	if s.TTDCount == 0 {
		return 0
	}
	return float64(s.TTDSum) / float64(s.TTDCount)
}

// InferredDeadFrac and TruthDeadFrac are the end-of-mission dead
// fractions by belief and by ground truth. 0 when nothing was scored.
func (s InferStats) InferredDeadFrac() float64 {
	if s.Sensors == 0 {
		return 0
	}
	return float64(s.InferredDead) / float64(s.Sensors)
}

func (s InferStats) TruthDeadFrac() float64 {
	if s.Sensors == 0 {
		return 0
	}
	return float64(s.TruthDead) / float64(s.Sensors)
}

// PDeliverObserved is the delivered fraction of the uplink telemetry the
// engine saw. 1 when nothing was generated.
func (s InferStats) PDeliverObserved() float64 {
	if s.Generated == 0 {
		return 1
	}
	return float64(s.Delivered) / float64(s.Generated)
}

func (s *InferStats) merge(other InferStats) {
	s.Sensors += other.Sensors
	s.Periods += other.Periods
	s.Final.Add(other.Final)
	s.PerPeriod.Add(other.PerPeriod)
	s.Declarations += other.Declarations
	s.Retractions += other.Retractions
	s.TTDSum += other.TTDSum
	s.TTDCount += other.TTDCount
	s.InferredDead += other.InferredDead
	s.TruthDead += other.TruthDead
	s.Generated += other.Generated
	s.Delivered += other.Delivered
}

// FaultStats aggregates what the fault-injection layer did to the report
// stream across a campaign (or, on TrialResult, one trial).
type FaultStats struct {
	// Generated counts reports produced by alive sensors; with delivery
	// modeling enabled, Delivered of them arrived within their generating
	// period, Late arrived in a later period but still inside the mission,
	// and Lost never reached the base (dropped in transit, partitioned, or
	// arrived after the mission ended).
	Generated, Delivered, Late, Lost int
	// Rerouted counts reports whose greedy route hit a local minimum and
	// was repaired with the shortest-path detour.
	Rerouted int
	// MeanAliveFrac is the alive sensor fraction averaged over periods
	// (and, on Result, over trials). 1 when no fault model is set.
	MeanAliveFrac float64
}

// ArrivedFrac is the fraction of generated reports that reached the base
// in time to be counted (on time or late). 1 when nothing was generated.
func (f FaultStats) ArrivedFrac() float64 {
	if f.Generated == 0 {
		return 1
	}
	return float64(f.Delivered+f.Late) / float64(f.Generated)
}

func (f *FaultStats) merge(other FaultStats) {
	f.Generated += other.Generated
	f.Delivered += other.Delivered
	f.Late += other.Late
	f.Lost += other.Lost
	f.Rerouted += other.Rerouted
	f.MeanAliveFrac += other.MeanAliveFrac // running sum; divided at the end
}

// TrialResult captures the details of a single trial, used by examples and
// the networking experiments.
type TrialResult struct {
	// Detected reports whether at least K reports accumulated;
	// DetectedAt is the first period at which they did (0 if never).
	Detected   bool
	DetectedAt int
	// Reports is the total report count; PerPeriod breaks it down.
	Reports   int
	PerPeriod []int
	// Track holds the M+1 period-boundary positions.
	Track []geom.Point
	// Sensors holds the deployment.
	Sensors []geom.Point
	// Reporters lists the sensor ids that generated at least one report.
	Reporters []int
	// Faults carries the per-trial fault accounting (no counts and
	// MeanAliveFrac 1 without a fault or delivery model).
	Faults FaultStats
	// Infer carries the trial's failure-inference scoring; nil unless
	// Config.Infer was set.
	Infer *InferStats
}

// partial is one worker's share of a campaign's aggregation.
type partial struct {
	detections int
	hist       stats.Histogram
	latency    stats.Histogram
	faults     FaultStats
	infer      InferStats
}

// Run executes the campaign and aggregates the results.
func Run(cfg Config) (*Result, error) {
	return RunCtx(context.Background(), cfg)
}

// RunCtx is Run under a context: cancellation stops every worker within a
// bounded number of trials and returns ctx.Err() instead of a partial
// Result. The context does not perturb the trials themselves, so a run
// that completes under RunCtx is bit-identical to one under Run.
func RunCtx(ctx context.Context, cfg Config) (*Result, error) {
	pl, err := newPlan(cfg, nil, 1, 0)
	if err != nil {
		return nil, err
	}
	return pl.campaign(ctx)
}

// campaign runs a single-target plan and aggregates its Result.
func (pl *plan) campaign(ctx context.Context) (*Result, error) {
	parts, err := execute(ctx, pl, func(p *partial, k *kernel) error {
		o := k.out[0]
		if o.detectedAt > 0 {
			p.detections++
			if err := p.latency.Add(o.detectedAt); err != nil {
				return err
			}
		}
		p.faults.merge(k.faults)
		p.infer.merge(k.infer)
		return p.hist.Add(o.reports)
	})
	if err != nil {
		return nil, err
	}
	res := &Result{Trials: pl.cfg.Trials}
	if pl.cfg.Infer != nil {
		res.Infer = &InferStats{}
	}
	for i := range parts {
		res.Detections += parts[i].detections
		res.Reports.Merge(&parts[i].hist)
		res.Latency.Merge(&parts[i].latency)
		res.Faults.merge(parts[i].faults)
		if res.Infer != nil {
			res.Infer.merge(parts[i].infer)
		}
	}
	// Per-trial mean alive fractions were summed during merging.
	res.Faults.MeanAliveFrac /= float64(res.Trials)
	res.DetectionProb = float64(res.Detections) / float64(res.Trials)
	res.MeanReports = res.Reports.Mean()
	ci, err := stats.WilsonInterval(res.Detections, res.Trials, 1.96)
	if err != nil {
		return nil, err
	}
	res.CI = ci
	return res, nil
}

// RunTrial executes a single trial with full detail retained.
func RunTrial(cfg Config, trial int) (*TrialResult, error) {
	k := getKernel(nil)
	defer putKernel(k)
	if err := k.own.init(cfg, nil, 1, 0); err != nil {
		return nil, err
	}
	if trial < 0 {
		return nil, fmt.Errorf("trial = %d must be >= 0: %w", trial, ErrConfig)
	}
	k.pl = &k.own
	trialsTotal.Inc()
	if err := k.run(trial, true); err != nil {
		return nil, err
	}
	return k.detail(), nil
}

// Report is one report a trial generated: the sensor that sent it and the
// 1-based sensing period it was generated in.
type Report struct {
	Sensor, Period int
}

// Trial is what Visit shows of one finished trial. Its slices are the
// worker's scratch: valid only during the visit call.
type Trial struct {
	// Sensors is the deployment.
	Sensors []geom.Point
	// Reports lists every report the trial generated — detections, then
	// false alarms, period by period — in generation order, before any
	// delivery modeling.
	Reports []Report
}

// Visit runs cfg's campaign through the trial kernel and its executor for
// callers that apply their own rule to the generated reports, as
// internal/system's base station does. visit runs once per trial on the
// worker that ran it, with that worker's accumulator; the accumulators
// come back in worker order, so merging them in order gives results
// independent of scheduling, the same contract as Run.
func Visit[A any](ctx context.Context, cfg Config, visit func(acc *A, tr Trial) error) ([]A, error) {
	pl, err := newPlan(cfg, nil, 1, 0)
	if err != nil {
		return nil, err
	}
	pl.record = true
	return execute(ctx, pl, func(acc *A, k *kernel) error {
		return visit(acc, Trial{Sensors: k.sensors, Reports: k.generated})
	})
}
