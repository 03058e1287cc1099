package experiments

import (
	"context"
	"fmt"
	"math"
	"time"

	"github.com/groupdetect/gbd/internal/detect"
	"github.com/groupdetect/gbd/internal/faults"
	"github.com/groupdetect/gbd/internal/netsim"
	"github.com/groupdetect/gbd/internal/sim"
)

// The fault extension's rows. Each row has one implementation here, which
// the degradation tables below, gbd-faults and the serving layer all call
// with their own campaign configuration and analysis options. The point
// types are also the checkpoint encoding of a row: their field names must
// not change, or a resumed sweep would restore a renamed field as zero.

// DeadPoint is one row of the dead-fraction sweep.
type DeadPoint struct {
	// Alive is the campaign's mean alive sensor fraction (1 at f = 0).
	Alive float64
	// Ana is the analytical mirror's detection probability.
	Ana float64
	// Sim is the simulated detection probability and CILo/CIHi its 95%
	// Wilson interval; all three are zero for an analysis-only row.
	Sim, CILo, CIHi float64
}

// DeadFracPoint computes the dead-fraction row at fraction f: the campaign
// cfg under independent Bernoulli node death next to detect.Degraded,
// which pushes the effective density N' = N*(1-f) through the M-S-approach
// with opt. A config with zero Trials yields the analysis alone.
func DeadFracPoint(ctx context.Context, cfg sim.Config, f float64, opt detect.MSOptions) (DeadPoint, error) {
	ana, err := detect.Degraded(cfg.Params, f, 1, opt)
	if err != nil {
		return DeadPoint{}, err
	}
	pt := DeadPoint{Alive: 1, Ana: ana.DetectionProb}
	if cfg.Trials == 0 {
		return pt, nil
	}
	cfg.Faults = faults.Bernoulli{DeadFrac: f}
	res, err := sim.RunCtx(ctx, cfg)
	if err != nil {
		return DeadPoint{}, err
	}
	pt.Sim, pt.CILo, pt.CIHi = res.DetectionProb, res.CI.Lo, res.CI.Hi
	pt.Alive = res.Faults.MeanAliveFrac
	return pt, nil
}

// LossPoint is one row of the per-hop loss sweep.
type LossPoint struct {
	// Arrived is the measured fraction of generated reports that reached
	// the base in time; Rerouted counts reports that left a void.
	Arrived, Ana, Sim float64
	Rerouted          int
}

// HopLossPoint computes the per-hop loss row at loss rate hopLoss: the
// relay campaign cfg (CommRange and Loss set by the caller) with per-hop
// delivery 1 - hopLoss, then detect.Degraded at the arrived fraction the
// campaign measured. The analysis has no multi-hop model, so the row
// checks the thinning argument Pd' = Pd*p_deliver rather than predicting.
func HopLossPoint(ctx context.Context, cfg sim.Config, hopLoss float64, opt detect.MSOptions) (LossPoint, error) {
	cfg.Loss.PerHopDelivery = 1 - hopLoss
	res, err := sim.RunCtx(ctx, cfg)
	if err != nil {
		return LossPoint{}, err
	}
	arrived := res.Faults.ArrivedFrac()
	ana, err := detect.Degraded(cfg.Params, 0, arrived, opt)
	if err != nil {
		return LossPoint{}, err
	}
	return LossPoint{Arrived: arrived, Ana: ana.DetectionProb, Sim: res.DetectionProb, Rerouted: res.Faults.Rerouted}, nil
}

// Agreement accumulates, in sweep order, the summary of a degradation
// curve: the largest |analysis - sim| gap, and whether the simulated
// detection probability stayed monotone non-increasing within Monte Carlo
// slack (no point more than 0.02 above the one before it).
type Agreement struct {
	MaxDiff float64
	rose    bool
	prev    float64
	started bool
}

// Add folds in the next point and returns its |analysis - sim| gap.
func (a *Agreement) Add(ana, sim float64) float64 {
	diff := math.Abs(ana - sim)
	if diff > a.MaxDiff {
		a.MaxDiff = diff
	}
	if a.started && sim > a.prev+0.02 {
		a.rose = true
	}
	a.prev, a.started = sim, true
	return diff
}

// Monotone reports whether no point rose more than 0.02 above the last.
func (a *Agreement) Monotone() bool { return !a.rose }

// deadFracSweep is the node-failure sweep for the degradation experiment:
// 0 to 50% dead in 10% steps (5% at full scale). Every fraction keeps
// N*(1-f) integral at the paper's N = 120, so the analytical density mirror
// has no rounding slack against the simulator.
func deadFracSweep(quick bool) []float64 {
	if quick {
		return []float64{0, 0.1, 0.2, 0.3, 0.4, 0.5}
	}
	return []float64{0, 0.05, 0.1, 0.15, 0.2, 0.25, 0.3, 0.35, 0.4, 0.45, 0.5}
}

// lossSweep is the per-hop loss-rate sweep.
func lossSweep(quick bool) []float64 {
	if quick {
		return []float64{0, 0.2, 0.4}
	}
	return []float64{0, 0.1, 0.2, 0.3, 0.4, 0.5}
}

// Degradation reproduces the graceful-degradation claim the paper leaves
// implicit: with k-of-M group detection, killing sensors degrades system
// detection smoothly rather than catastrophically. Each row is a
// DeadFracPoint (independent Bernoulli node death, instant delivery).
func Degradation(opt Options) (*Table, error) {
	opt, err := opt.withDefaults()
	if err != nil {
		return nil, err
	}
	trials := opt.Trials
	if trials > 4000 {
		trials = 4000 // the fault path re-deploys masks per trial
	}
	base := sim.Config{Params: detect.Defaults(), Trials: trials, Seed: opt.Seed, RNG: opt.RNG}
	t := &Table{
		ID:    "degradation",
		Title: "Graceful degradation under node failures (sim vs analysis)",
		Columns: []string{
			"dead_frac", "alive_frac", "analysis", "sim", "diff",
		},
	}
	fracs := deadFracSweep(opt.Quick)
	points, err := sweepPoints(opt, "degradation", fracs, func(ctx context.Context, _ int, f float64) (DeadPoint, error) {
		return DeadFracPoint(ctx, base, f, detect.MSOptions{Gh: 4, G: 4})
	})
	if err != nil {
		return nil, err
	}
	var agree Agreement
	for i, pt := range points {
		t.AddRow(fracs[i], pt.Alive, pt.Ana, pt.Sim, agree.Add(pt.Ana, pt.Sim))
	}
	t.Notes = append(t.Notes,
		fmt.Sprintf("max |analysis - sim| = %.4f over the sweep", agree.MaxDiff),
		fmt.Sprintf("simulated detection monotone non-increasing in dead fraction: %v", agree.Monotone()),
		"analysis mirrors failures as effective density N' = N*(1-f) through the M-S-approach")
	return t, nil
}

// LossDegradation sweeps the per-hop loss rate of the report-delivery
// network (6 km radios, bounded retransmissions). Each row is a
// HopLossPoint: the simulator against the thinning mirror at the
// arrived-report fraction the simulator itself measured.
func LossDegradation(opt Options) (*Table, error) {
	opt, err := opt.withDefaults()
	if err != nil {
		return nil, err
	}
	trials := opt.Trials
	if trials > 2000 {
		trials = 2000 // every report walks the multi-hop network
	}
	base := sim.Config{
		Params:    detect.Defaults(),
		Trials:    trials,
		Seed:      opt.Seed,
		RNG:       opt.RNG,
		CommRange: 6000,
		Loss:      netsim.LossModel{MaxRetries: 2, Backoff: 5 * time.Second},
	}
	t := &Table{
		ID:    "lossdeg",
		Title: "Degradation under lossy delivery (6 km radios, 2 retries)",
		Columns: []string{
			"hop_loss", "arrived_frac", "rerouted", "analysis", "sim", "diff",
		},
	}
	losses := lossSweep(opt.Quick)
	points, err := sweepPoints(opt, "lossdeg", losses, func(ctx context.Context, _ int, loss float64) (LossPoint, error) {
		return HopLossPoint(ctx, base, loss, detect.MSOptions{Gh: 4, G: 4})
	})
	if err != nil {
		return nil, err
	}
	var agree Agreement
	for i, pt := range points {
		t.AddRow(losses[i], pt.Arrived, pt.Rerouted, pt.Ana, pt.Sim, agree.Add(pt.Ana, pt.Sim))
	}
	t.Notes = append(t.Notes,
		fmt.Sprintf("max |analysis - sim| = %.4f with measured arrived_frac as p_deliver", agree.MaxDiff),
		fmt.Sprintf("simulated detection monotone non-increasing in hop loss: %v", agree.Monotone()))
	return t, nil
}
