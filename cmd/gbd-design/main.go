// Command gbd-design runs the complete deployment-design workflow for a
// surveillance scenario: size the fleet for a detection requirement, pick
// the report threshold from a false alarm budget, audit coverage voids and
// breach corridors, verify multi-hop delivery, and report parameter
// sensitivities — everything a system designer needs before committing to
// hardware.
//
// With -place the workflow answers the placement question instead: where
// do my N sensors go? The lazy-greedy optimizer places the budget on a
// candidate grid and reports the layout against the paper's
// uniform-random deployment at equal N. The checkpointable budget sweep
// is the experiments registry's "placement" table
// (gbd-experiments -exp placement).
//
// Usage:
//
//	gbd-design [flags]
//
// Examples:
//
//	gbd-design -target 0.9 -fa 1e-4 -budget 0.01 -horizon 1440
//	gbd-design -place -place-n 120 -grid 32x32
//	gbd-design -place -classes 80:1000:0.9,40:2000:0.7 -place-out layout.json
package main

import (
	"context"
	"encoding/json"
	"errors"
	"flag"
	"fmt"
	"math"
	"os"
	"strconv"
	"strings"
	"time"

	gbd "github.com/groupdetect/gbd"
	"github.com/groupdetect/gbd/internal/falsealarm"
	"github.com/groupdetect/gbd/internal/field"
	"github.com/groupdetect/gbd/internal/geom"
	"github.com/groupdetect/gbd/internal/netsim"
	"github.com/groupdetect/gbd/internal/obs"
	"github.com/groupdetect/gbd/internal/placement"
	"github.com/groupdetect/gbd/internal/scenario"
)

func main() {
	if err := run(os.Args[1:]); err != nil {
		fmt.Fprintln(os.Stderr, "gbd-design:", err)
		os.Exit(1)
	}
}

func run(args []string) (err error) {
	fs := flag.NewFlagSet("gbd-design", flag.ContinueOnError)
	flagParams := scenario.BindFlags(fs, "side", "rs", "v", "t", "pd", "m")
	var (
		targetP   = fs.Float64("target", scenario.DesignTarget, "required detection probability")
		nMax      = fs.Int("n-max", scenario.DesignNMax, "largest fleet considered")
		fa        = fs.Float64("fa", falsealarm.DefaultPf, "per-sensor per-period false alarm probability")
		budget    = fs.Float64("budget", falsealarm.DefaultBudget, "system false-alarm budget over the horizon")
		horizon   = fs.Int("horizon", falsealarm.DefaultHorizon, "false-alarm horizon (periods)")
		commRange = fs.Float64("comm", 6000, "communication range (m)")
		perHop    = fs.Duration("hop", 10*time.Second, "per-hop forwarding latency")
		seed      = fs.Int64("seed", 1, "random seed for deployment audits")

		place       = fs.Bool("place", false, "run the placement engine: where do my N sensors go")
		placeN      = fs.Int("place-n", 120, "placement budget (ignored when -classes is set)")
		gridSpec    = fs.String("grid", fmt.Sprintf("%dx%d", placement.DefaultGrid, placement.DefaultGrid), "candidate grid as COLSxROWS")
		classSpec   = fs.String("classes", "", "heterogeneous fleet as count:rs:pd,... (overrides -place-n)")
		placeTrials = fs.Int("place-trials", placement.DefaultTrials, "Monte Carlo track panel size for -place")
		rngName     = fs.String("rng", "", "placement RNG scheme: legacy (default) or philox")
		minGain     = fs.Float64("min-gain", math.Inf(-1), "fail unless placed beats uniform by at least this absolute gain")
		placeOut    = fs.String("place-out", "", "write the placed layout as JSON to this file")
		sweepW      = fs.Int("sweep-workers", 0, "placement precompute workers (0 = all cores); output is identical at any setting")
	)
	obsFlags := obs.AddFlags(fs)
	if err := fs.Parse(args); err != nil {
		return err
	}
	scheme, err := field.ParseRNGScheme(*rngName)
	if err != nil {
		return err
	}
	if math.IsNaN(*minGain) {
		return fmt.Errorf("min-gain = %v must be a number", *minGain)
	}
	sess, err := obsFlags.Start("gbd-design", args)
	if err != nil {
		return err
	}
	defer sess.Finish(&err)
	sess.SetSeed(*seed)

	p := *flagParams

	if *place {
		ctx, cancel := sess.SignalContext(context.Background())
		defer cancel()
		pc := placeCmd{
			p: p, fa: *fa, budget: *budget, horizon: *horizon,
			placeN: *placeN, gridSpec: *gridSpec, classSpec: *classSpec,
			trials: *placeTrials, seed: *seed, rng: scheme,
			minGain: *minGain, outPath: *placeOut,
			workers: *sweepW,
		}
		return pc.runOnce(ctx, sess)
	}

	// 1. Report threshold from the false alarm budget and the fleet size
	// from the detection requirement (K depends weakly on N through the
	// union bound, so SizeFleet re-checks K at the sized fleet).
	fmt.Printf("scenario: %.0f m field, Rs=%.0f m, V=%.1f m/s, t=%v, Pd=%.2f, M=%d\n",
		p.FieldSide, p.Rs, p.V, p.T, p.Pd, p.M)

	p, err = gbd.SizeFleet(p, *fa, *horizon, *budget, *targetP, *nMax)
	if err != nil {
		return err
	}
	k, n := p.K, p.N
	sess.SetParams(p)
	fmt.Printf("\nrule:  K = %d of M = %d (false-alarm budget %.2g over %d periods at Pf=%.0e)\n",
		k, p.M, *budget, *horizon, *fa)
	// Section 6, exactly: the union bound above over-counts overlapping
	// windows; the scan-statistic Markov chain gives the exact threshold.
	if kExact, kerr := gbd.MinKExact(p, *fa, *horizon, *budget); kerr == nil {
		fmt.Printf("       exact scan statistic: K >= %d suffices (union bound chose %d)\n", kExact, k)
	} else if !errors.Is(kerr, falsealarm.ErrIntractable) {
		return kerr
	}
	fmt.Printf("fleet: N = %d sensors (smallest meeting P[detect] >= %.2f)\n", n, *targetP)

	ana, err := gbd.Analyze(p, gbd.MSOptions{})
	if err != nil {
		return err
	}
	cmp, err := gbd.Compare(p, 4000, *seed)
	if err != nil {
		return err
	}
	fmt.Printf("check: analysis %.4f | simulation %.4f (CI [%.4f, %.4f])\n",
		ana.DetectionProb, cmp.Simulation, cmp.CILo, cmp.CIHi)

	// 2. Latency profile.
	cdf, err := gbd.Latency(p, gbd.MSOptions{})
	if err != nil {
		return err
	}
	if med, ok := cdf.Quantile(ana.DetectionProb / 2); ok {
		fmt.Printf("delay: half of eventual detections decided by period %d of %d\n", med, p.M)
	}

	// 3. Coverage audit on a concrete deployment.
	rng := field.NewRand(*seed)
	sensors, err := field.Uniform(p.N, geom.Square(p.FieldSide), rng)
	if err != nil {
		return err
	}
	cell := p.FieldSide / 128
	covMap, err := gbd.NewCoverageMap(p, sensors, cell)
	if err != nil {
		return err
	}
	breach, err := covMap.MaximalBreach(p.Rs)
	if err != nil {
		return err
	}
	fmt.Printf("\ncoverage: %.1f%% covered, void %.1f%%; worst corridor stays %.0f m from every sensor (evadable instantaneously: %v)\n",
		100*covMap.Fraction(1), 100*covMap.VoidFraction(), breach.Distance, breach.Undetectable)

	// 4. Communication audit.
	base := geom.Nearest(sensors, geom.Point{X: p.FieldSide / 2, Y: p.FieldSide / 2})
	net, err := netsim.New(sensors, *commRange, geom.Square(p.FieldSide))
	if err != nil {
		return err
	}
	stats, err := net.Delivery(base, *perHop, p.T)
	if err != nil {
		return err
	}
	fmt.Printf("comms:    %d components; %d/%d reachable; max %d hops; %d deliver within one period\n",
		net.Components(), stats.Reachable, stats.Nodes, stats.MaxHops, stats.WithinBudget)

	// 5. End-to-end confirmation.
	sys, err := gbd.SimulateSystem(gbd.SystemConfig{
		Params: p, CommRange: *commRange, PerHop: *perHop,
		FalseAlarmP: *fa, Gated: true, Trials: 1000, Seed: *seed,
	})
	if err != nil {
		return err
	}
	fmt.Printf("system:   end-to-end P[detect] = %.4f (delivered %.1f%% of reports, gated rule)\n",
		sys.DetectionProb, 100*sys.DeliveredFrac)

	// 6. Sensitivities.
	sens, err := gbd.Sensitivities(p, gbd.MSOptions{})
	if err != nil {
		return err
	}
	fmt.Println("\nlevers (elasticity of P[detect]):")
	for _, s := range sens {
		fmt.Printf("  %-10s %+.3f\n", s.Param, s.Elasticity)
	}
	return nil
}

// placeCmd is the -place mode.
type placeCmd struct {
	p          gbd.Params
	fa, budget float64
	horizon    int
	placeN     int
	gridSpec   string
	classSpec  string
	trials     int
	seed       int64
	rng        gbd.RNGScheme
	minGain    float64
	outPath    string
	workers    int
}

// parseGrid reads a COLSxROWS spec like "32x32".
func parseGrid(spec string) (cols, rows int, err error) {
	c, r, ok := strings.Cut(spec, "x")
	if !ok {
		return 0, 0, fmt.Errorf("grid %q must be COLSxROWS", spec)
	}
	cols, err = strconv.Atoi(c)
	if err == nil {
		rows, err = strconv.Atoi(r)
	}
	if err != nil || cols < 1 || rows < 1 {
		return 0, 0, fmt.Errorf("grid %q must be COLSxROWS with positive integers", spec)
	}
	return cols, rows, nil
}

// parseClasses reads a heterogeneous fleet spec like "80:1000:0.9,40:2000:0.7".
func parseClasses(spec string) ([]gbd.PlacementClass, error) {
	var classes []gbd.PlacementClass
	for _, part := range strings.Split(spec, ",") {
		fields := strings.Split(part, ":")
		if len(fields) != 3 {
			return nil, fmt.Errorf("class %q must be count:rs:pd", part)
		}
		count, err := strconv.Atoi(fields[0])
		if err != nil {
			return nil, fmt.Errorf("class %q count: %v", part, err)
		}
		rs, err := strconv.ParseFloat(fields[1], 64)
		if err != nil {
			return nil, fmt.Errorf("class %q rs: %v", part, err)
		}
		pd, err := strconv.ParseFloat(fields[2], 64)
		if err != nil {
			return nil, fmt.Errorf("class %q pd: %v", part, err)
		}
		classes = append(classes, gbd.PlacementClass{Count: count, Rs: rs, Pd: pd})
	}
	return classes, nil
}

// runOnce solves one placement problem and prints the layout summary.
// The placed probability is printed at full precision (%.15g) — the CI
// smoke job bit-checks it against a golden value.
func (c placeCmd) runOnce(ctx context.Context, sess *obs.Session) error {
	cols, rows, err := parseGrid(c.gridSpec)
	if err != nil {
		return err
	}
	var classes []gbd.PlacementClass
	total := c.placeN
	if c.classSpec != "" {
		if classes, err = parseClasses(c.classSpec); err != nil {
			return err
		}
		total = 0
		for _, cl := range classes {
			total += cl.Count
		}
	}
	// Size the report threshold for the placed fleet before optimizing:
	// the rule is an input to the objective.
	p := c.p.WithN(total)
	k, err := gbd.MinK(p, c.fa, c.horizon, c.budget)
	if err != nil {
		return err
	}
	p = p.WithK(k)
	sess.SetParams(p)

	cfg := gbd.PlacementConfig{
		Base:     p,
		Classes:  classes,
		GridCols: cols, GridRows: rows,
		Trials:      c.trials,
		Seed:        c.seed,
		RNG:         c.rng,
		Workers:     c.workers,
		FalseAlarmP: c.fa, FAHorizon: c.horizon, FABudget: c.budget,
	}
	res, err := gbd.PlaceCtx(ctx, cfg)
	if err != nil {
		return err
	}

	fmt.Printf("scenario: %.0f m field, Rs=%.0f m, V=%.1f m/s, t=%v, Pd=%.2f, M=%d\n",
		p.FieldSide, p.Rs, p.V, p.T, p.Pd, p.M)
	fmt.Printf("rule:  K = %d of M = %d (false-alarm budget %.2g over %d periods at Pf=%.0e)\n",
		k, p.M, c.budget, c.horizon, c.fa)
	if res.KMinExact > 0 {
		fmt.Printf("       exact scan statistic: K >= %d suffices (union bound chose %d)\n", res.KMinExact, res.KMin)
	}
	fmt.Printf("grid:  %dx%d candidate cells, %d sensors placed, %d trials\n",
		cols, rows, len(res.Sensors), res.Trials)
	cmp := res.VsUniform
	fmt.Printf("\nplaced P[detect] = %.15g (CI [%.4f, %.4f])\n", cmp.PlacedProb, cmp.PlacedCI.Lo, cmp.PlacedCI.Hi)
	fmt.Printf("uniform P[detect] = %.4f simulated, %.4f analytical\n", cmp.UniformProb, cmp.UniformAnalysis)
	fmt.Printf("gain: %+.4f absolute", cmp.AbsGain)
	if cmp.UniformProb > 0 {
		fmt.Printf(" (%+.1f%% relative)", 100*cmp.RelGain)
	}
	fmt.Println()
	fmt.Printf("lazy queue: %d gain evaluations, %d skipped\n", res.Evals, res.LazyHits)

	if c.outPath != "" {
		blob, err := json.MarshalIndent(res, "", "  ")
		if err != nil {
			return err
		}
		if err := os.WriteFile(c.outPath, append(blob, '\n'), 0o644); err != nil {
			return err
		}
		fmt.Printf("layout written to %s\n", c.outPath)
	}
	if cmp.AbsGain < c.minGain {
		return fmt.Errorf("placed layout gains %+.4f over uniform, below the -min-gain %g gate", cmp.AbsGain, c.minGain)
	}
	return nil
}
