package experiments

import (
	"context"
	"fmt"

	"github.com/groupdetect/gbd/internal/detect"
	"github.com/groupdetect/gbd/internal/faults"
	"github.com/groupdetect/gbd/internal/infer"
	"github.com/groupdetect/gbd/internal/sim"
)

// InferPoint is one row of the closed-loop inference sweep.
type InferPoint struct {
	// Precision and Recall score the end-of-mission inferred dead mask
	// against ground truth; MeanTTD is the mean time to declaration.
	Precision, Recall, MeanTTD float64
	// InferredFrac is the inferred dead fraction and PDeliverHat the
	// engine's delivery estimate.
	InferredFrac, PDeliverHat float64
	// TruthProb and InferredProb push the true and the inferred knobs
	// through the analysis; AbsDiff is their gap.
	TruthProb, InferredProb, AbsDiff float64
	// TruthFrac is the true dead fraction; Declarations, Retractions and
	// FalseAlarms count engine transitions and false dead verdicts.
	TruthFrac                              float64
	Declarations, Retractions, FalseAlarms int
}

// InferencePoint computes the closed-loop row at dead fraction f: the
// campaign cfg (Infer, PDeliver and Beacons set by the caller) under
// Bernoulli node death, its inferencer scored against ground truth, then
// infer.ClosedLoopPoint with opt for the truth-vs-inferred detection pair.
func InferencePoint(ctx context.Context, cfg sim.Config, f float64, opt detect.MSOptions) (InferPoint, error) {
	cfg.Faults = faults.Bernoulli{DeadFrac: f}
	res, err := sim.RunCtx(ctx, cfg)
	if err != nil {
		return InferPoint{}, err
	}
	st := res.Infer
	pair, err := infer.ClosedLoopPoint(cfg.Params, st.TruthDeadFrac(), st.InferredDeadFrac(),
		cfg.PDeliver, st.PDeliverObserved(), opt)
	if err != nil {
		return InferPoint{}, err
	}
	return InferPoint{
		Precision:    st.Precision(),
		Recall:       st.Recall(),
		MeanTTD:      st.MeanTimeToDetect(),
		InferredFrac: st.InferredDeadFrac(),
		PDeliverHat:  st.PDeliverObserved(),
		TruthProb:    pair.TruthProb,
		InferredProb: pair.InferredProb,
		AbsDiff:      pair.AbsDiff(),
		TruthFrac:    st.TruthDeadFrac(),
		Declarations: st.Declarations,
		Retractions:  st.Retractions,
		FalseAlarms:  st.Final.FP,
	}, nil
}

// InferenceAccuracy scores the closed-loop failure inferencer across the
// dead-fraction sweep: at each injected Bernoulli dead fraction (flat
// pDeliver = 0.9 uplink, per-period beacons) an InferencePoint pairs the
// inferencer's precision, recall, and time-to-detect with the closed-loop
// degradation gap — the analytical detection probability under the
// inferred knobs versus under the ground-truth knobs (DESIGN.md §15).
func InferenceAccuracy(opt Options) (*Table, error) {
	opt, err := opt.withDefaults()
	if err != nil {
		return nil, err
	}
	trials := opt.Trials
	if trials > 1000 {
		trials = 1000 // every trial runs N-sensor SPRT bookkeeping per period
	}
	base := sim.Config{
		Params:   detect.Defaults(),
		Trials:   trials,
		Seed:     opt.Seed,
		RNG:      opt.RNG,
		PDeliver: 0.9,
		Beacons:  true,
		Infer:    &infer.Options{},
	}
	t := &Table{
		ID:    "inference",
		Title: "Closed-loop failure inference accuracy (SPRT over the report stream)",
		Columns: []string{
			"dead_frac", "precision", "recall", "mean_ttd",
			"inferred_frac", "truth_prob", "inferred_prob", "gap",
		},
	}
	fracs := deadFracSweep(opt.Quick)
	points, err := sweepPoints(opt, "inference", fracs, func(ctx context.Context, _ int, f float64) (InferPoint, error) {
		return InferencePoint(ctx, base, f, detect.MSOptions{Gh: 4, G: 4})
	})
	if err != nil {
		return nil, err
	}
	maxGap := 0.0
	minPrecision, minRecall := 1.0, 1.0
	for i, pt := range points {
		maxGap = max(maxGap, pt.AbsDiff)
		minPrecision = min(minPrecision, pt.Precision)
		minRecall = min(minRecall, pt.Recall)
		t.AddRow(fracs[i], pt.Precision, pt.Recall, pt.MeanTTD,
			pt.InferredFrac, pt.TruthProb, pt.InferredProb, pt.AbsDiff)
	}
	t.Notes = append(t.Notes,
		fmt.Sprintf("min precision %.4f, min recall %.4f over the sweep", minPrecision, minRecall),
		fmt.Sprintf("max closed-loop degradation gap |inferred - truth| = %.4f", maxGap),
		"per-period status beacons over a flat pDeliver=0.9 uplink; SPRT at alpha=beta=0.01")
	return t, nil
}
