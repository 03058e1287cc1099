// Command gbd-sim runs the Monte Carlo event-detection simulator and
// compares the result with the M-S-approach analysis.
//
// Usage:
//
//	gbd-sim [flags]
//
// Examples:
//
//	gbd-sim -n 120 -trials 10000
//	gbd-sim -n 240 -v 4 -walk -max-turn 45
//	gbd-sim -n 120 -confine none -false-alarm 0.001
package main

import (
	"context"
	"flag"
	"fmt"
	"math"
	"os"
	"time"

	gbd "github.com/groupdetect/gbd"
	"github.com/groupdetect/gbd/internal/obs"
	"github.com/groupdetect/gbd/internal/scenario"
	"github.com/groupdetect/gbd/internal/target"
)

func main() {
	if err := run(os.Args[1:]); err != nil {
		fmt.Fprintln(os.Stderr, "gbd-sim:", err)
		os.Exit(1)
	}
}

func run(args []string) (err error) {
	fs := flag.NewFlagSet("gbd-sim", flag.ContinueOnError)
	flagParams := scenario.BindFlags(fs, scenario.AllFlags...)
	var (
		trials  = fs.Int("trials", 10000, "Monte Carlo trials")
		seed    = fs.Int64("seed", 1, "random seed")
		workers = fs.Int("workers", 0, "parallel workers (0 = all cores)")
		walk    = fs.Bool("walk", false, "random-walk target instead of straight line")
		maxTurn = fs.Float64("max-turn", 45, "random-walk max turn per period (degrees)")
		confine = fs.String("confine", "reject", "border policy: reject (keep track inside) or none")
		fa      = fs.Float64("false-alarm", 0, "per-sensor per-period false alarm probability")
		lambda  = fs.Float64("exposure", 0, "dwell-model detection rate 1/s (0 = flat Pd model)")
		config  = fs.String("config", "", "load the scenario from a JSON file (other scenario flags are ignored)")
		rngName = fs.String("rng", "", "trial RNG scheme: legacy (default) or philox (counter-based, window-local deploy)")
	)
	obsFlags := obs.AddFlags(fs)
	if err := fs.Parse(args); err != nil {
		return err
	}
	sess, err := obsFlags.Start("gbd-sim", args)
	if err != nil {
		return err
	}
	defer sess.Finish(&err)
	ctx, cancel := sess.SignalContext(context.Background())
	defer cancel()
	p := *flagParams
	if *config != "" {
		loaded, err := scenario.Load(*config)
		if err != nil {
			return err
		}
		p = loaded
	}
	scheme, err := gbd.ParseRNGScheme(*rngName)
	if err != nil {
		return err
	}
	cfg := gbd.SimConfig{
		Params:         p,
		Trials:         *trials,
		Seed:           *seed,
		Workers:        *workers,
		FalseAlarmP:    *fa,
		ExposureLambda: *lambda,
		RNG:            scheme,
	}
	switch *confine {
	case "reject":
		cfg.Confine = gbd.ConfineRejection
	case "none":
		cfg.Confine = gbd.ConfineNone
	default:
		return fmt.Errorf("unknown confine policy %q", *confine)
	}
	if *walk {
		cfg.Model = target.RandomWalk{Step: p.Vt(), MaxTurn: *maxTurn * math.Pi / 180}
	}
	sess.SetParams(p)
	sess.SetSeed(*seed)

	start := time.Now()
	res, err := gbd.SimulateCtx(ctx, cfg)
	if err != nil {
		return err
	}
	elapsed := time.Since(start)
	fmt.Printf("simulation: %d trials in %v\n", res.Trials, elapsed.Round(time.Millisecond))
	fmt.Printf("detection probability: %.4f (95%% CI [%.4f, %.4f])\n", res.DetectionProb, res.CI.Lo, res.CI.Hi)
	fmt.Printf("mean reports per %d periods: %.3f (max observed %d)\n", p.M, res.MeanReports, res.Reports.Max())

	ana, err := gbd.Analyze(p, gbd.MSOptions{})
	if err != nil {
		return err
	}
	fmt.Printf("M-S analysis (straight line): %.4f  |  |diff| = %.4f\n",
		ana.DetectionProb, math.Abs(ana.DetectionProb-res.DetectionProb))
	return nil
}
