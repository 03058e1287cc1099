// Package infer is the in-band failure-inference engine: it watches the
// per-period report stream that actually reaches the base station and
// decides, per sensor, whether continued silence means the sensor died or
// merely that its reports are being lost in transit — the
// death-versus-loss disambiguation problem of distributed sensor failure
// detection (Tošić et al., PAPERS.md), applied to the paper's sparse
// group-based detection network.
//
// The decision rule is a per-sensor sequential probability ratio test
// (SPRT). Under H1 ("alive"), a sensor is heard from in a period with
// probability r = ReportProb × pDeliver: the paper's per-sensor report
// model (Section 3.1's p_indi, or 1 for per-period status beacons)
// thinned by the delivery probability the link layer is currently
// achieving. Under H0 ("dead") the sensor is never heard from. One silent
// period therefore contributes
//
//	log(P[silent|dead] / P[silent|alive]) = -log(1-r)
//
// to the sensor's cumulative log-likelihood ratio, while a single arrival
// is conclusive alive evidence (P[report|dead] = 0) and resets the ratio.
// A sensor is declared dead when its LLR crosses the Wald threshold
// A = log((1-Beta)/Alpha), bounding the false-alarm rate near Alpha.
//
// The delivery probability is not assumed — it is estimated online from
// the fleet-wide generated/delivered telemetry with a Beta-style prior
// (PDeliverHat). When the network degrades fleet-wide, the estimate
// drops, each silent period carries less evidence of death, and
// declarations slow down instead of false-alarming: delivery loss and
// sensor death stay distinguishable exactly as far as the telemetry
// allows.
package infer

import (
	"errors"
	"fmt"
	"math"

	"github.com/groupdetect/gbd/internal/detect"
)

// ErrConfig reports an invalid inference configuration.
var ErrConfig = errors.New("infer: invalid configuration")

// maxSilenceOdds caps the effective heard-probability so that one silent
// period can never push the LLR to +Inf even with ReportProb and
// delivery both at 1 (r is clamped to 1-1e-9, ≈ 20.7 nats per period).
const maxSilenceOdds = 1 - 1e-9

// Options tunes the failure-inference engine. The zero value of every
// field except ReportProb falls back to a documented default.
type Options struct {
	// Alpha bounds the per-sensor false-alarm probability (declaring a
	// live sensor dead); Beta the miss probability. Both default to 0.01.
	// The Wald declaration threshold is log((1-Beta)/Alpha).
	Alpha, Beta float64
	// ReportProb is the per-period probability that an ALIVE sensor
	// emits something the base could hear, before delivery loss: 1 with
	// per-period status beacons, Params.PIndi() when only detection
	// reports are observable. Required, in (0, 1].
	ReportProb float64
	// DeliveryPrior and PriorWeight seed the online delivery estimate:
	// PDeliverHat behaves as if PriorWeight pseudo-reports had already
	// been observed at delivery rate DeliveryPrior. Defaults: prior 1
	// (assume the link is clean until told otherwise) with weight 20,
	// so the estimate converges to the telemetry within one period of
	// fleet-scale traffic yet never divides by zero.
	DeliveryPrior float64
	PriorWeight   float64
}

func (o Options) withDefaults() (Options, error) {
	if o.Alpha == 0 {
		o.Alpha = 0.01
	}
	if o.Beta == 0 {
		o.Beta = 0.01
	}
	if o.DeliveryPrior == 0 {
		o.DeliveryPrior = 1
	}
	if o.PriorWeight == 0 {
		o.PriorWeight = 20
	}
	if !(o.Alpha > 0 && o.Alpha < 0.5) {
		return o, fmt.Errorf("alpha = %v must be in (0, 0.5): %w", o.Alpha, ErrConfig)
	}
	if !(o.Beta > 0 && o.Beta < 0.5) {
		return o, fmt.Errorf("beta = %v must be in (0, 0.5): %w", o.Beta, ErrConfig)
	}
	if !(o.ReportProb > 0 && o.ReportProb <= 1) {
		return o, fmt.Errorf("report probability = %v must be in (0, 1]: %w", o.ReportProb, ErrConfig)
	}
	if !(o.DeliveryPrior > 0 && o.DeliveryPrior <= 1) {
		return o, fmt.Errorf("delivery prior = %v must be in (0, 1]: %w", o.DeliveryPrior, ErrConfig)
	}
	if o.PriorWeight < 0 || math.IsNaN(o.PriorWeight) || math.IsInf(o.PriorWeight, 0) {
		return o, fmt.Errorf("prior weight = %v must be >= 0 and finite: %w", o.PriorWeight, ErrConfig)
	}
	return o, nil
}

// Validate checks the options without building an engine.
func (o Options) Validate() error {
	_, err := o.withDefaults()
	return err
}

// ExpectedReportProb is the per-period probability that one alive sensor
// is heard from before delivery loss: 1 when per-period status beacons
// are enabled, the paper's p_indi (Pd scaled by the detection-region to
// field-area ratio, Section 3.1) when only detection reports reach the
// base. The tiny p_indi of sparse deployments (~0.004 at the ONR
// defaults) is why beacons are the practical closed-loop configuration.
func ExpectedReportProb(p detect.Params, beacons bool) float64 {
	if beacons {
		return 1
	}
	return p.PIndi()
}

// Engine maintains the per-sensor alive belief over a report stream. It
// is a plain value-machine: all state advances only through Observe, so
// two engines fed identical streams are bit-identical regardless of the
// caller's scheduling. Not safe for concurrent use.
type Engine struct {
	opt       Options
	threshold float64

	// llr is each sensor's cumulative log-likelihood ratio in favor of
	// "dead"; declaredAt is the 1-based period a sensor was declared
	// dead (0 = currently believed alive).
	llr        []float64
	declaredAt []int
	period     int

	// Fleet-wide link telemetry feeding the delivery estimate.
	generated, delivered int

	declarations, retractions int
}

// New builds an engine over n sensors. The returned engine has observed
// zero periods: every sensor is believed alive.
func New(n int, opt Options) (*Engine, error) {
	e := new(Engine)
	if err := e.Reset(n, opt); err != nil {
		return nil, err
	}
	return e, nil
}

// Reset puts e in the state New(n, opt) returns, reusing its storage, so
// an engine kept across trials allocates only when n grows. The zero
// Engine is ready for Reset.
func (e *Engine) Reset(n int, opt Options) error {
	if n < 1 {
		return fmt.Errorf("sensor count = %d must be >= 1: %w", n, ErrConfig)
	}
	opt, err := opt.withDefaults()
	if err != nil {
		return err
	}
	engines.Inc()
	*e = Engine{
		opt:        opt,
		threshold:  math.Log((1 - opt.Beta) / opt.Alpha),
		llr:        resize(e.llr, n),
		declaredAt: resize(e.declaredAt, n),
	}
	return nil
}

// resize returns s resized to n and zeroed, keeping its backing array when
// large enough.
func resize[T float64 | int](s []T, n int) []T {
	if cap(s) < n {
		return make([]T, n)
	}
	s = s[:n]
	clear(s)
	return s
}

// Threshold returns the Wald declaration threshold log((1-Beta)/Alpha).
func (e *Engine) Threshold() float64 { return e.threshold }

// PDeliverHat is the engine's current delivery-probability estimate: the
// fleet-wide delivered/generated ratio regularized by the prior. It is
// what disambiguates "this sensor is dead" from "everyone's reports are
// being dropped".
func (e *Engine) PDeliverHat() float64 {
	num := float64(e.delivered) + e.opt.PriorWeight*e.opt.DeliveryPrior
	den := float64(e.generated) + e.opt.PriorWeight
	if den == 0 {
		return e.opt.DeliveryPrior
	}
	return num / den
}

// Observe advances the engine by one period. arrived[i] reports whether
// anything from sensor i reached the base during the period (on time;
// callers decide whether late arrivals count). generated and delivered
// are the period's fleet-wide link telemetry: frames handed to the
// delivery layer and frames that arrived in time, including beacons.
// Telemetry is folded in before the period's silence is weighed, so a
// fleet-wide outage observed THIS period already discounts this period's
// silences.
func (e *Engine) Observe(arrived []bool, generated, delivered int) error {
	if len(arrived) != len(e.llr) {
		return fmt.Errorf("arrival vector covers %d of %d sensors: %w", len(arrived), len(e.llr), ErrConfig)
	}
	if generated < 0 || delivered < 0 || delivered > generated {
		return fmt.Errorf("telemetry delivered=%d of generated=%d: %w", delivered, generated, ErrConfig)
	}
	e.period++
	e.generated += generated
	e.delivered += delivered

	r := e.opt.ReportProb * e.PDeliverHat()
	if r > maxSilenceOdds {
		r = maxSilenceOdds
	}
	silent := -math.Log1p(-r) // log-odds of a silent period, dead over alive
	llr, declaredAt := e.llr[:len(arrived)], e.declaredAt[:len(arrived)]
	for i, heard := range arrived {
		// An arrival is conclusive: dead sensors emit nothing, so the LLR
		// collapses and any standing declaration is retracted. Silence adds
		// its log-odds and declares once the LLR crosses the threshold.
		// Whether a sensor is heard is a coin flip per period, so the
		// update and the test below decide without a branch on it: the
		// mask clears every bit of l, to +0, when heard. The branch after
		// the test is taken only on a declaration or a retraction.
		h := b2i(heard)
		l := math.Float64frombits(math.Float64bits(llr[i]+silent) &^ -uint64(h))
		llr[i] = l
		if (1^h^b2i(declaredAt[i] != 0))&(h|b2i(l >= e.threshold)) == 0 {
			continue
		}
		if heard {
			declaredAt[i] = 0
			e.retractions++
			retractions.Inc()
		} else {
			declaredAt[i] = e.period
			e.declarations++
			declarations.Inc()
		}
	}
	return nil
}

// b2i is 1 for true and 0 for false; the compiler emits it without a
// branch.
func b2i(b bool) int {
	var i int
	if b {
		i = 1
	}
	return i
}

// Alive appends the current believed-alive mask to dst (resized as
// needed) and returns it: true means the sensor has not been declared
// dead. The mask is the inference-side mirror of a faults.Model mask.
func (e *Engine) Alive(dst []bool) []bool {
	if cap(dst) < len(e.declaredAt) {
		dst = make([]bool, len(e.declaredAt))
	}
	dst = dst[:len(e.declaredAt)]
	for i, at := range e.declaredAt {
		dst[i] = at == 0
	}
	return dst
}

// DeclaredAt returns the 1-based period sensor i was declared dead, or 0
// while it is believed alive.
func (e *Engine) DeclaredAt(i int) int { return e.declaredAt[i] }

// DeadCount returns how many sensors are currently declared dead.
func (e *Engine) DeadCount() int {
	dead := 0
	for _, at := range e.declaredAt {
		if at != 0 {
			dead++
		}
	}
	return dead
}

// InferredDeadFrac is DeadCount over the sensor count.
func (e *Engine) InferredDeadFrac() float64 {
	return float64(e.DeadCount()) / float64(len(e.declaredAt))
}

// Declarations and Retractions count state transitions since New or
// Reset: a sensor declared, heard from again, and re-declared counts
// twice in Declarations and once in Retractions.
func (e *Engine) Declarations() int { return e.declarations }
func (e *Engine) Retractions() int  { return e.retractions }

// Score compares the engine's current belief against a ground-truth
// alive mask (true = alive), with "dead" as the positive class: TP is a
// declared sensor that is truly dead, FP a declared sensor that is alive
// (a false alarm), FN an undeclared dead sensor, TN the rest.
func (e *Engine) Score(truthAlive []bool) (Confusion, error) {
	var c Confusion
	if len(truthAlive) != len(e.declaredAt) {
		return c, fmt.Errorf("truth mask covers %d of %d sensors: %w", len(truthAlive), len(e.declaredAt), ErrConfig)
	}
	// Counted without a branch per sensor: both masks are coin flips to
	// the branch predictor.
	for i, at := range e.declaredAt {
		declared, dead := b2i(at != 0), b2i(!truthAlive[i])
		c.TP += declared & dead
		c.FP += declared &^ dead
		c.FN += dead &^ declared
	}
	c.TN = len(e.declaredAt) - c.TP - c.FP - c.FN
	return c, nil
}

// Confusion is a dead-vs-alive confusion matrix with "declared dead" as
// the positive class.
type Confusion struct {
	TP, FP, FN, TN int
}

// Add accumulates another confusion matrix (e.g. across trials).
func (c *Confusion) Add(other Confusion) {
	c.TP += other.TP
	c.FP += other.FP
	c.FN += other.FN
	c.TN += other.TN
}

// Precision is TP/(TP+FP): of the sensors declared dead, the fraction
// that really were. 1 when nothing was declared.
func (c Confusion) Precision() float64 {
	if c.TP+c.FP == 0 {
		return 1
	}
	return float64(c.TP) / float64(c.TP+c.FP)
}

// Recall is TP/(TP+FN): of the truly dead sensors, the fraction
// declared. 1 when nothing was dead.
func (c Confusion) Recall() float64 {
	if c.TP+c.FN == 0 {
		return 1
	}
	return float64(c.TP) / float64(c.TP+c.FN)
}
