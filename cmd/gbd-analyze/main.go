// Command gbd-analyze runs the analytical models for a scenario and prints
// the detection probability, the report-count distribution summary and the
// accuracy plan.
//
// Usage:
//
//	gbd-analyze [flags]
//
// Examples:
//
//	gbd-analyze -n 240 -v 10
//	gbd-analyze -n 120 -k 5 -m 20 -method s -g 12
//	gbd-analyze -n 120 -h-nodes 2
package main

import (
	"flag"
	"fmt"
	"os"

	gbd "github.com/groupdetect/gbd"
	"github.com/groupdetect/gbd/internal/obs"
	"github.com/groupdetect/gbd/internal/scenario"
)

func main() {
	if err := run(os.Args[1:]); err != nil {
		fmt.Fprintln(os.Stderr, "gbd-analyze:", err)
		os.Exit(1)
	}
}

func run(args []string) (err error) {
	fs := flag.NewFlagSet("gbd-analyze", flag.ContinueOnError)
	flagParams := scenario.BindFlags(fs, scenario.AllFlags...)
	var (
		method  = fs.String("method", "ms", "analysis method: ms, ms-matrix, s, s-literal, single")
		gh      = fs.Int("gh", 0, "head truncation bound (0 = plan automatically)")
		g       = fs.Int("g", 0, "body/tail or S-approach truncation bound (0 = plan)")
		acc     = fs.Float64("accuracy", 0.99, "target analysis accuracy for planning")
		raw     = fs.Bool("raw", false, "skip Eq. (13) normalization")
		hNodes  = fs.Int("h-nodes", 0, "also analyze the >=h distinct nodes extension (0 = off)")
		verbose = fs.Bool("verbose", false, "print the full report-count distribution")
		config  = fs.String("config", "", "load the scenario from a JSON file (other scenario flags are ignored)")
		saveCfg = fs.String("save-config", "", "write the scenario to a JSON file and continue")
	)
	obsFlags := obs.AddFlags(fs)
	if err := fs.Parse(args); err != nil {
		return err
	}
	sess, err := obsFlags.Start("gbd-analyze", args)
	if err != nil {
		return err
	}
	defer sess.Finish(&err)
	p := *flagParams
	if *config != "" {
		loaded, err := scenario.Load(*config)
		if err != nil {
			return err
		}
		p = loaded
	}
	if err := p.Validate(); err != nil {
		return err
	}
	sess.SetParams(p)
	if *saveCfg != "" {
		if err := scenario.Save(*saveCfg, p); err != nil {
			return err
		}
	}
	fmt.Printf("scenario: N=%d field=%.0fm Rs=%.0fm V=%.1fm/s t=%v Pd=%.2f rule=%d-of-%d (ms=%d, p_indi=%.5f)\n",
		p.N, p.FieldSide, p.Rs, p.V, p.T, p.Pd, p.K, p.M, p.Ms(), p.PIndi())

	plan, err := gbd.PlanAccuracy(p, *acc)
	if err != nil {
		return err
	}
	fmt.Printf("accuracy plan (target %.2f): gh=%d g=%d (etaMS=%.4f) | S-approach G=%d (etaS=%.4f)\n",
		*acc, plan.Gh, plan.G, plan.EtaMS, plan.SG, plan.EtaS)

	switch *method {
	case "ms", "ms-matrix":
		opt := gbd.MSOptions{Gh: *gh, G: *g, TargetAccuracy: *acc, NoNormalize: *raw}
		if *method == "ms-matrix" {
			opt.Evaluator = gbd.EvaluatorMatrix
		}
		res, err := gbd.Analyze(p, opt)
		if err != nil {
			return err
		}
		fmt.Printf("M-S-approach: P[X>=%d] = %.6f (gh=%d g=%d mass=%.6f raw=%.6f)\n",
			p.K, res.DetectionProb, res.Gh, res.G, res.Mass, res.RawTail)
		if *verbose {
			printPMF(res.PMF)
		}
	case "s", "s-literal":
		res, err := gbd.AnalyzeS(p, gbd.SOptions{G: *g, TargetAccuracy: *acc, NoNormalize: *raw, Literal: *method == "s-literal"})
		if err != nil {
			return err
		}
		fmt.Printf("S-approach: P[X>=%d] = %.6f (G=%d mass=%.6f)\n", p.K, res.DetectionProb, res.G, res.Mass)
		if *verbose {
			printPMF(res.PMF)
		}
	case "single":
		tail, err := gbd.SinglePeriodTail(p, p.K)
		if err != nil {
			return err
		}
		fmt.Printf("single period (M=1): P1[X>=%d] = %.6g\n", p.K, tail)
	default:
		return fmt.Errorf("unknown method %q", *method)
	}

	if *hNodes > 0 {
		res, err := gbd.AnalyzeNodes(p, *hNodes, gbd.MSOptions{Gh: *gh, G: *g, TargetAccuracy: *acc})
		if err != nil {
			return err
		}
		fmt.Printf("extension: P[X>=%d from >=%d nodes] = %.6f\n", p.K, *hNodes, res.DetectionProb)
	}
	return nil
}

func printPMF(pmf gbd.PMF) {
	fmt.Println("reports  probability")
	for i, v := range pmf {
		if v < 1e-9 {
			continue
		}
		fmt.Printf("%7d  %.6f\n", i, v)
	}
}
