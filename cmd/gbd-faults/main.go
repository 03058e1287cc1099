// Command gbd-faults injects failures into the event-detection scenario and
// reports how gracefully the k-of-M group detection rule degrades. It sweeps
// a node-failure fraction (and, optionally, a per-hop report loss rate over
// a multi-hop relay network), running the fault-injection simulator against
// the analytical mirror that pushes the effective density N' = N*(1-f) and
// effective report probability Pd' = Pd*p_deliver through the unmodified
// M-S-approach.
//
// The sweeps are resilient: Ctrl-C stops cleanly after the in-flight
// points, -checkpoint records each completed point for -resume, failed
// points can be retried (-retries) or skipped (-keep-going, which
// renders "failed" rows and keeps the rest of the curve).
//
// Usage:
//
//	gbd-faults [flags]
//
// Examples:
//
//	gbd-faults -trials 2000                       # dead-fraction degradation curve
//	gbd-faults -max-dead 0.5 -dead-steps 10       # finer failure sweep
//	gbd-faults -loss-sweep -comm-range 6000       # per-hop loss degradation
//	gbd-faults -hazard 0.05                       # battery hazard scenario
//	gbd-faults -blob-radius 12000                 # correlated blob failure
//	gbd-faults -infer -p-deliver 0.9              # closed-loop failure inference
//	gbd-faults -infer -max-dead 0.2 -dead-steps 1 \
//	    -min-precision 0.9 -min-recall 0.9        # CI accuracy gate
//	gbd-faults -checkpoint run.ckpt -resume       # continue an interrupted sweep
package main

import (
	"context"
	"flag"
	"fmt"
	"io"
	"math"
	"os"
	"time"

	gbd "github.com/groupdetect/gbd"
	"github.com/groupdetect/gbd/internal/detect"
	"github.com/groupdetect/gbd/internal/experiments"
	"github.com/groupdetect/gbd/internal/faults"
	"github.com/groupdetect/gbd/internal/netsim"
	"github.com/groupdetect/gbd/internal/obs"
	"github.com/groupdetect/gbd/internal/scenario"
	"github.com/groupdetect/gbd/internal/sweep"
)

func main() {
	if err := run(os.Args[1:], os.Stdout); err != nil {
		fmt.Fprintln(os.Stderr, "gbd-faults:", err)
		os.Exit(1)
	}
}

// sweepEnv carries the resilience machinery (context, fault policy,
// checkpoint) from flag parsing into the sweep runners.
type sweepEnv struct {
	ctx    context.Context
	policy sweep.Options
	ck     *sweep.Checkpoint
}

func run(args []string, w io.Writer) (err error) {
	fs := flag.NewFlagSet("gbd-faults", flag.ContinueOnError)
	flagParams := scenario.BindFlags(fs, scenario.AllFlags...)
	var (
		trials  = fs.Int("trials", 2000, "Monte Carlo trials per point")
		seed    = fs.Int64("seed", 1, "random seed")
		rngName = fs.String("rng", "", "trial RNG scheme: legacy (default) or philox (counter-based, window-local deploy)")
		workers = fs.Int("workers", 0, "parallel trial workers per point (0 = all cores)")

		maxDead   = fs.Float64("max-dead", 0.5, "largest dead fraction in the sweep")
		deadSteps = fs.Int("dead-steps", 10, "number of sweep increments")
		hazard    = fs.Float64("hazard", 0, "per-period battery death hazard (single scenario)")
		blob      = fs.Float64("blob-radius", 0, "correlated blob failure radius in m (single scenario)")

		inferMode    = fs.Bool("infer", false, "closed-loop mode: run the failure inferencer over the report stream at each dead fraction and score it against ground truth")
		pDeliver     = fs.Float64("p-deliver", 0.9, "flat uplink delivery probability for -infer (each beacon/report independently reaches the base)")
		minPrecision = fs.Float64("min-precision", 0, "with -infer, exit nonzero if the final row's precision falls below this")
		minRecall    = fs.Float64("min-recall", 0, "with -infer, exit nonzero if the final row's recall falls below this")

		lossSweep  = fs.Bool("loss-sweep", false, "sweep per-hop loss instead of dead fraction")
		maxLoss    = fs.Float64("max-loss", 0.5, "largest per-hop loss rate in the sweep")
		commRange  = fs.Float64("comm-range", 6000, "radio range in m for the relay network")
		perHop     = fs.Duration("per-hop", 10*time.Second, "per-hop transmission latency")
		hopRetries = fs.Int("hop-retries", 2, "retransmissions per hop (was -retries before the flag vocabulary was unified)")
		backoff    = fs.Duration("backoff", 5*time.Second, "base retransmission backoff (doubles per retry)")
		budget     = fs.Duration("budget", 0, "delivery latency budget (0 = one sensing period)")

		keepGoing = fs.Bool("keep-going", false, "finish the sweep past point failures and render 'failed' rows")
	)
	policy := sweep.BindFlags(fs, 1)
	ck := sweep.BindCheckpoint(fs)
	obsFlags := obs.AddFlags(fs)
	if err := fs.Parse(args); err != nil {
		return err
	}
	if err := policy.Validate(); err != nil {
		return err
	}
	scheme, err := gbd.ParseRNGScheme(*rngName)
	if err != nil {
		return err
	}
	sess, err := obsFlags.Start("gbd-faults", args)
	if err != nil {
		return err
	}
	defer sess.Finish(&err)
	if err := flagParams.Validate(); err != nil {
		return err
	}
	// Every other numeric flag is range-checked here, by name, whatever
	// the mode, and the manifest records a refusal. Each condition is
	// written so that NaN fails it, so a value out of range never switches
	// a mode or a gate off. A zero-trial dead-fraction point would render
	// the analysis alone.
	for _, c := range []struct {
		name string
		val  any
		ok   bool
		want string
	}{
		{"trials", *trials, *trials >= 1, ">= 1"},
		{"workers", *workers, *workers >= 0, ">= 0 (0 = all cores)"},
		{"dead-steps", *deadSteps, *deadSteps >= 1, ">= 1"},
		{"max-dead", *maxDead, *maxDead >= 0 && *maxDead <= 1, "in [0, 1]"},
		{"hazard", *hazard, *hazard >= 0 && *hazard <= 1, "in [0, 1] (0 = off)"},
		{"blob-radius", *blob, *blob >= 0 && *blob < math.Inf(1), "finite and >= 0 (0 = off)"},
		{"p-deliver", *pDeliver, *pDeliver > 0 && *pDeliver <= 1, "in (0, 1]"},
		{"min-precision", *minPrecision, *minPrecision >= 0 && *minPrecision <= 1, "in [0, 1] (0 = no gate)"},
		{"min-recall", *minRecall, *minRecall >= 0 && *minRecall <= 1, "in [0, 1] (0 = no gate)"},
		{"max-loss", *maxLoss, *maxLoss >= 0 && *maxLoss < 1, "in [0, 1)"},
		{"comm-range", *commRange, *commRange > 0 && *commRange < math.Inf(1), "positive and finite"},
		{"hop-retries", *hopRetries, *hopRetries >= 0, ">= 0"},
		{"per-hop", *perHop, *perHop > 0, "positive"},
		{"backoff", *backoff, *backoff >= 0, ">= 0"},
		{"budget", *budget, *budget >= 0, ">= 0 (0 = one sensing period)"},
	} {
		if !c.ok {
			return fmt.Errorf("%s = %v must be %s", c.name, c.val, c.want)
		}
	}
	ctx, cancel := sess.SignalContext(context.Background())
	defer cancel()

	p := *flagParams
	sess.SetParams(p)
	sess.SetSeed(*seed)
	base := gbd.SimConfig{
		Params:  p,
		Trials:  *trials,
		Seed:    *seed,
		Workers: *workers,
		RNG:     scheme,
	}
	loss := netsim.LossModel{
		PerHopDelivery: 1,
		MaxRetries:     *hopRetries,
		PerHop:         *perHop,
		Backoff:        *backoff,
		Budget:         *budget,
	}
	if loss.Budget == 0 {
		loss.Budget = p.T
	}

	env := sweepEnv{ctx: ctx, policy: *policy, ck: ck}
	env.policy.Degrade = *keepGoing
	// Everything that shapes results goes into the checkpoint identity;
	// execution knobs (workers, retry policy, keep-going) deliberately do
	// not.
	inferPD := 0.0
	if *inferMode {
		inferPD = *pDeliver
	}
	err = ck.Open(sess, "gbd-faults", struct {
		Params    gbd.Params
		Trials    int
		MaxDead   float64
		DeadSteps int
		LossSweep bool
		MaxLoss   float64
		CommRange float64
		Loss      netsim.LossModel
		// RNG changes every simulated value; omitempty keeps legacy
		// checkpoints from before the scheme flag resumable.
		RNG string `json:",omitempty"`
		// Infer/InferPDeliver identify the closed-loop mode; omitempty
		// keeps pre-inference checkpoints resumable.
		Infer         bool    `json:",omitempty"`
		InferPDeliver float64 `json:",omitempty"`
	}{p, *trials, *maxDead, *deadSteps, *lossSweep, *maxLoss, *commRange, loss, scheme.Canonical(), *inferMode, inferPD}, *seed)
	if err != nil {
		return err
	}
	defer ck.Flush(&err)

	switch {
	case *hazard > 0:
		return runScenario(ctx, w, base, faults.Lifetime{Hazard: *hazard},
			fmt.Sprintf("battery hazard %.3f per period", *hazard))
	case *blob > 0:
		return runScenario(ctx, w, base, faults.Blob{Radius: *blob},
			fmt.Sprintf("correlated blob failure, radius %.0f m", *blob))
	case *inferMode:
		return runInferSweep(env, w, base, *pDeliver, *maxDead, *deadSteps, *minPrecision, *minRecall)
	case *lossSweep:
		return runLossSweep(env, w, base, loss, *commRange, *maxLoss, *deadSteps)
	default:
		return runDeadSweep(env, w, base, *maxDead, *deadSteps)
	}
}

// sweepGrid returns the steps+1 evenly spaced sweep values 0..maxV.
func sweepGrid(maxV float64, steps int) []float64 {
	vals := make([]float64, steps+1)
	for i := range vals {
		vals[i] = maxV * float64(i) / float64(steps)
	}
	return vals
}

// runDeadSweep prints the degradation curve over the node-failure fraction:
// the fault-injection simulator against the analytical effective-density
// mirror, with a sim-vs-analysis agreement summary.
func runDeadSweep(env sweepEnv, w io.Writer, base gbd.SimConfig, maxDead float64, steps int) error {
	fmt.Fprintf(w, "degradation curve: Bernoulli node death, %d trials/point\n", base.Trials)
	fmt.Fprintf(w, "%-10s  %-10s  %-9s  %-9s  %-7s\n", "dead_frac", "alive_frac", "analysis", "sim", "diff")
	fracs := sweepGrid(maxDead, steps)
	points, done, err := sweep.Resumable(env.ctx, env.policy, env.ck, "dead", fracs, func(ctx context.Context, _ int, f float64) (experiments.DeadPoint, error) {
		return experiments.DeadFracPoint(ctx, base, f, detect.MSOptions{})
	})
	if err != nil {
		return err
	}
	// The running summary is order-dependent, so it walks the ordered
	// results after the parallel collection.
	var agree experiments.Agreement
	failed := 0
	for i, pt := range points {
		if !done[i] {
			fmt.Fprintf(w, "%-10.2f  %-10s  %-9s  %-9s  %-7s\n", fracs[i], "failed", "-", "-", "-")
			failed++
			continue
		}
		fmt.Fprintf(w, "%-10.2f  %-10.4f  %-9.4f  %-9.4f  %-7.4f\n",
			fracs[i], pt.Alive, pt.Ana, pt.Sim, agree.Add(pt.Ana, pt.Sim))
	}
	fmt.Fprintf(w, "max |analysis - sim| = %.4f\n", agree.MaxDiff)
	fmt.Fprintf(w, "sim detection monotone non-increasing: %v\n", agree.Monotone())
	warnFailed(w, failed, len(points))
	return nil
}

// warnFailed notes the points a -keep-going sweep skipped.
func warnFailed(w io.Writer, failed, total int) {
	if failed > 0 {
		fmt.Fprintf(w, "WARNING: %d of %d points failed and were skipped (-keep-going)\n", failed, total)
	}
}

// runLossSweep prints the degradation curve over the per-hop loss rate. The
// analysis has no multi-hop model, so each row feeds the simulator's own
// measured arrived-report fraction into the thinning mirror Pd' = Pd*p.
func runLossSweep(env sweepEnv, w io.Writer, base gbd.SimConfig, loss netsim.LossModel, commRange, maxLoss float64, steps int) error {
	fmt.Fprintf(w, "loss degradation curve: %.0f m radios, %d retries, %d trials/point\n",
		commRange, loss.MaxRetries, base.Trials)
	fmt.Fprintf(w, "%-9s  %-12s  %-8s  %-9s  %-9s  %-7s\n",
		"hop_loss", "arrived_frac", "rerouted", "analysis", "sim", "diff")
	rates := sweepGrid(maxLoss, steps)
	cfg := base
	cfg.CommRange = commRange
	cfg.Loss = loss
	points, done, err := sweep.Resumable(env.ctx, env.policy, env.ck, "loss", rates, func(ctx context.Context, _ int, rate float64) (experiments.LossPoint, error) {
		return experiments.HopLossPoint(ctx, cfg, rate, detect.MSOptions{})
	})
	if err != nil {
		return err
	}
	var agree experiments.Agreement
	failed := 0
	for i, pt := range points {
		if !done[i] {
			fmt.Fprintf(w, "%-9.2f  %-12s  %-8s  %-9s  %-9s  %-7s\n", rates[i], "failed", "-", "-", "-", "-")
			failed++
			continue
		}
		fmt.Fprintf(w, "%-9.2f  %-12.4f  %-8d  %-9.4f  %-9.4f  %-7.4f\n",
			rates[i], pt.Arrived, pt.Rerouted, pt.Ana, pt.Sim, agree.Add(pt.Ana, pt.Sim))
	}
	fmt.Fprintf(w, "max |analysis - sim| = %.4f (analysis uses measured arrived_frac)\n", agree.MaxDiff)
	warnFailed(w, failed, len(points))
	return nil
}

// runInferSweep runs the closed-loop mode: at each dead fraction the
// simulator streams per-period reports (plus liveness beacons) through the
// failure inferencer, scores the inferred dead mask against ground truth,
// and feeds the inferred knobs back through the degradation analysis next
// to the truth-driven curve. With -min-precision/-min-recall the final row
// acts as a CI accuracy gate.
func runInferSweep(env sweepEnv, w io.Writer, base gbd.SimConfig, pDeliver, maxDead float64, steps int, minPrecision, minRecall float64) error {
	fmt.Fprintf(w, "closed-loop inference: Bernoulli node death, uplink delivery %.2f, %d trials/point\n",
		pDeliver, base.Trials)
	fmt.Fprintf(w, "%-10s  %-9s  %-7s  %-8s  %-13s  %-10s  %-10s  %-9s  %-7s\n",
		"dead_frac", "precision", "recall", "mean_ttd", "inferred_frac", "p_del_hat", "truth_prob", "inf_prob", "gap")
	fracs := sweepGrid(maxDead, steps)
	cfg := base
	cfg.PDeliver = pDeliver
	cfg.Beacons = true
	cfg.Infer = &gbd.InferOptions{}
	points, done, err := sweep.Resumable(env.ctx, env.policy, env.ck, "infer", fracs, func(ctx context.Context, _ int, f float64) (experiments.InferPoint, error) {
		return experiments.InferencePoint(ctx, cfg, f, detect.MSOptions{})
	})
	if err != nil {
		return err
	}
	maxGap := 0.0
	failed, lastDone := 0, -1
	for i, pt := range points {
		if !done[i] {
			fmt.Fprintf(w, "%-10.2f  %-9s  %-7s  %-8s  %-13s  %-10s  %-10s  %-9s  %-7s\n",
				fracs[i], "failed", "-", "-", "-", "-", "-", "-", "-")
			failed++
			continue
		}
		lastDone = i
		maxGap = max(maxGap, pt.AbsDiff)
		fmt.Fprintf(w, "%-10.2f  %-9.4f  %-7.4f  %-8.2f  %-13.4f  %-10.4f  %-10.4f  %-9.4f  %-7.4f\n",
			fracs[i], pt.Precision, pt.Recall, pt.MeanTTD, pt.InferredFrac,
			pt.PDeliverHat, pt.TruthProb, pt.InferredProb, pt.AbsDiff)
	}
	fmt.Fprintf(w, "max |truth - inferred| detection gap = %.4f\n", maxGap)
	warnFailed(w, failed, len(points))
	// Accuracy gate: judged on the final completed row — the largest dead
	// fraction, where both precision and recall are meaningful. (At tiny
	// dead fractions precision is dominated by the handful of tail false
	// alarms; gating there would measure the prior, not the inferencer.)
	if minPrecision > 0 || minRecall > 0 {
		if lastDone < 0 {
			return fmt.Errorf("accuracy gate: no completed points to judge")
		}
		final := points[lastDone]
		fmt.Fprintf(w, "accuracy gate @ dead_frac %.2f: precision %.4f (min %.2f), recall %.4f (min %.2f)\n",
			fracs[lastDone], final.Precision, minPrecision, final.Recall, minRecall)
		if final.Precision < minPrecision {
			return fmt.Errorf("inference precision %.4f below gate %.2f", final.Precision, minPrecision)
		}
		if final.Recall < minRecall {
			return fmt.Errorf("inference recall %.4f below gate %.2f", final.Recall, minRecall)
		}
	}
	return nil
}

// runScenario runs one fault model (hazard or blob) against the fault-free
// baseline and reports the detection hit alongside the fault accounting.
func runScenario(ctx context.Context, w io.Writer, base gbd.SimConfig, model faults.Model, label string) error {
	healthy, err := gbd.SimulateCtx(ctx, base)
	if err != nil {
		return err
	}
	cfg := base
	cfg.Faults = model
	res, err := gbd.SimulateCtx(ctx, cfg)
	if err != nil {
		return err
	}
	fmt.Fprintf(w, "scenario: %s, %d trials\n", label, base.Trials)
	fmt.Fprintf(w, "fault-free detection:  %.4f\n", healthy.DetectionProb)
	fmt.Fprintf(w, "degraded detection:    %.4f (95%% CI [%.4f, %.4f])\n",
		res.DetectionProb, res.CI.Lo, res.CI.Hi)
	fmt.Fprintf(w, "mean alive fraction:   %.4f\n", res.Faults.MeanAliveFrac)
	ana, err := detect.Degraded(base.Params, 1-res.Faults.MeanAliveFrac, 1, detect.MSOptions{})
	if err != nil {
		return err
	}
	fmt.Fprintf(w, "analysis at effective density: %.4f  |  |diff| = %.4f\n",
		ana.DetectionProb, math.Abs(ana.DetectionProb-res.DetectionProb))
	fmt.Fprintln(w, "note: the analysis assumes independent uniform thinning; correlated or")
	fmt.Fprintln(w, "time-varying failures can sit below it at the same mean alive fraction.")
	return nil
}
