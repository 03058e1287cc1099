// The /v1/infer op: a closed-loop failure-inference campaign as a
// cacheable request/response pair. The simulator streams per-period
// reports (plus liveness beacons) over a lossy uplink through the SPRT
// failure inferencer (internal/infer), scores the inferred dead mask
// against ground truth, and feeds both the true and the inferred
// degradation knobs through the unmodified analysis — the response
// carries the accuracy triple (precision, recall, mean time-to-detect)
// and the truth-vs-inferred detection-probability pair.
//
// Campaigns are deterministic per (config, seed) — the engine consumes
// no randomness of its own — so caching and fleet forwarding are sound
// exactly as for /v1/simulate.
package serve

import (
	"context"
	"fmt"

	"github.com/groupdetect/gbd/internal/detect"
	"github.com/groupdetect/gbd/internal/faults"
	"github.com/groupdetect/gbd/internal/infer"
	"github.com/groupdetect/gbd/internal/sim"
)

// InferRequest is the /v1/infer body: the canonical closed-loop scenario
// (Bernoulli node death over a flat lossy uplink with liveness beacons)
// plus the SPRT error budget.
type InferRequest struct {
	Scenario Scenario `json:"scenario"`
	// Trials must be in [1, Config.MaxTrials].
	Trials int   `json:"trials"`
	Seed   int64 `json:"seed,omitempty"`
	// DeadFrac is the Bernoulli dead fraction injected per trial.
	DeadFrac float64 `json:"dead_frac,omitempty"`
	// PDeliver is the flat uplink delivery probability: each report or
	// beacon independently reaches the base with this probability inside
	// its generating period. Omitted defaults to 0.9, the canonical
	// closed-loop scenario; 1 means certain delivery.
	PDeliver *float64 `json:"p_deliver,omitempty"`
	// Beacons, default true, has every alive sensor emit a per-period
	// liveness frame. Without beacons a sensor only transmits when the
	// target is in range, which at sparse densities makes silence nearly
	// uninformative — the inferencer stays quiet by design.
	Beacons *bool `json:"beacons,omitempty"`
	// Alpha and Beta are the SPRT false-alarm and missed-detection
	// budgets (defaults 0.01 each).
	Alpha float64 `json:"alpha,omitempty"`
	Beta  float64 `json:"beta,omitempty"`
	// RNG selects the trial RNG scheme ("legacy" or "philox"); empty
	// inherits the server default. Part of the cache identity.
	RNG string `json:"rng,omitempty"`
}

// InferResponse is the /v1/infer result: inference accuracy against
// ground truth and the closed-loop degradation pair.
type InferResponse struct {
	Scenario scenarioEcho `json:"scenario"`
	Trials   int          `json:"trials"`
	// Precision/Recall score the end-of-mission inferred mask with
	// "dead" as the positive class; MeanTTD is the mean periods from
	// true death to declaration over detected deaths.
	Precision float64 `json:"precision"`
	Recall    float64 `json:"recall"`
	MeanTTD   float64 `json:"mean_ttd"`
	// Declarations/Retractions count engine state transitions across the
	// campaign; FalseAlarms counts sensors falsely dead at mission end.
	Declarations int `json:"declarations"`
	Retractions  int `json:"retractions"`
	FalseAlarms  int `json:"false_alarms"`
	// The inferred vs true end-of-mission dead fractions and the
	// engine's adaptive delivery estimate.
	InferredDeadFrac float64 `json:"inferred_dead_frac"`
	TruthDeadFrac    float64 `json:"truth_dead_frac"`
	PDeliverHat      float64 `json:"p_deliver_hat"`
	// TruthProb/InferredProb push the true and the inferred degradation
	// knobs through the analysis; AbsDiff is their gap.
	TruthProb    float64 `json:"truth_prob"`
	InferredProb float64 `json:"inferred_prob"`
	AbsDiff      float64 `json:"abs_diff"`
}

// inferCanonical is the fully resolved, fixed-order form of an
// InferRequest, the value fingerprinted into the cache key.
type inferCanonical struct {
	Scenario scenarioEcho `json:"scenario"`
	Trials   int          `json:"trials"`
	DeadFrac float64      `json:"dead_frac"`
	PDeliver float64      `json:"p_deliver"`
	Beacons  bool         `json:"beacons"`
	Alpha    float64      `json:"alpha"`
	Beta     float64      `json:"beta"`
	RNG      string       `json:"rng,omitempty"`
}

// inferConfig validates an InferRequest and translates it into the
// simulator configuration. Workers is pinned to 1 like /v1/simulate —
// results are worker-count-independent anyway, but 1 keeps intra-request
// parallelism the admission pool's job.
func (s *Server) inferConfig(p detect.Params, req InferRequest) (sim.Config, error) {
	if req.Trials < 1 || req.Trials > s.cfg.MaxTrials {
		return sim.Config{}, fmt.Errorf("trials = %d must be in [1, %d]: %w", req.Trials, s.cfg.MaxTrials, ErrRequest)
	}
	if req.DeadFrac < 0 || req.DeadFrac > 1 {
		return sim.Config{}, fmt.Errorf("dead_frac = %v must be in [0, 1]: %w", req.DeadFrac, ErrRequest)
	}
	pd := 0.9
	if req.PDeliver != nil {
		pd = *req.PDeliver
	}
	if !(pd > 0 && pd <= 1) {
		return sim.Config{}, fmt.Errorf("p_deliver = %v must be in (0, 1]: %w", pd, ErrRequest)
	}
	beacons := true
	if req.Beacons != nil {
		beacons = *req.Beacons
	}
	// The per-period report probability is a function of the scenario, so
	// it resolves here (exactly as the simulator would) and Validate sees
	// a fully concrete option set.
	opt := infer.Options{
		Alpha: req.Alpha, Beta: req.Beta,
		ReportProb: infer.ExpectedReportProb(p, beacons),
	}
	if err := opt.Validate(); err != nil {
		return sim.Config{}, err
	}
	scheme, err := s.resolveRNG(req.RNG)
	if err != nil {
		return sim.Config{}, err
	}
	cfg := sim.Config{
		Params:   p,
		Trials:   req.Trials,
		Seed:     req.Seed,
		Workers:  1,
		RNG:      scheme,
		PDeliver: pd,
		Beacons:  beacons,
		Infer:    &opt,
	}
	if req.DeadFrac > 0 {
		cfg.Faults = faults.Bernoulli{DeadFrac: req.DeadFrac}
	}
	return cfg, nil
}

// inferKey validates an InferRequest and returns its resolved parameters,
// simulator configuration, and cache key.
func (s *Server) inferKey(req InferRequest) (detect.Params, sim.Config, string, error) {
	p, err := req.Scenario.params()
	if err != nil {
		return p, sim.Config{}, "", err
	}
	cfg, err := s.inferConfig(p, req)
	if err != nil {
		return p, cfg, "", err
	}
	canon := inferCanonical{
		Scenario: echoParams(p), Trials: req.Trials,
		DeadFrac: req.DeadFrac, PDeliver: cfg.PDeliver,
		Beacons: cfg.Beacons, Alpha: req.Alpha, Beta: req.Beta,
		RNG: canonRNG(cfg.RNG),
	}
	key, err := cacheKey("/v1/infer", canon, req.Seed)
	return p, cfg, key, err
}

func (s *Server) computeInfer(ctx context.Context, p detect.Params, req InferRequest, cfg sim.Config) (*InferResponse, error) {
	res, err := sim.RunCtx(ctx, cfg)
	if err != nil {
		return nil, err
	}
	st := res.Infer
	pair, err := infer.ClosedLoopPoint(p, st.TruthDeadFrac(), st.InferredDeadFrac(),
		cfg.PDeliver, st.PDeliverObserved(), detect.MSOptions{})
	if err != nil {
		return nil, err
	}
	return &InferResponse{
		Scenario:         echoParams(p),
		Trials:           res.Trials,
		Precision:        st.Precision(),
		Recall:           st.Recall(),
		MeanTTD:          st.MeanTimeToDetect(),
		Declarations:     st.Declarations,
		Retractions:      st.Retractions,
		FalseAlarms:      st.Final.FP,
		InferredDeadFrac: st.InferredDeadFrac(),
		TruthDeadFrac:    st.TruthDeadFrac(),
		PDeliverHat:      st.PDeliverObserved(),
		TruthProb:        pair.TruthProb,
		InferredProb:     pair.InferredProb,
		AbsDiff:          pair.AbsDiff(),
	}, nil
}
