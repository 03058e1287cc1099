// Command gbd-experiments regenerates the paper's tables and figures (see
// DESIGN.md for the experiment index) and prints them as text or CSV.
//
// Long campaigns are resilient: Ctrl-C stops the run cleanly after the
// in-flight sweep points, -checkpoint records every completed point, and
// -resume picks an interrupted campaign back up, re-executing only the
// points that never finished. The resumed output is byte-identical to an
// uninterrupted run's.
//
// Usage:
//
//	gbd-experiments [flags]
//
// Examples:
//
//	gbd-experiments                      # run everything at paper scale
//	gbd-experiments -exp fig9a -quick    # one experiment, reduced sweep
//	gbd-experiments -csv -out results/   # write CSV files
//	gbd-experiments -checkpoint run.ckpt          # checkpoint as you go
//	gbd-experiments -checkpoint run.ckpt -resume  # continue after a kill
package main

import (
	"context"
	"flag"
	"fmt"
	"os"
	"path/filepath"
	"strings"
	"time"

	"github.com/groupdetect/gbd/internal/experiments"
	"github.com/groupdetect/gbd/internal/field"
	"github.com/groupdetect/gbd/internal/obs"
	"github.com/groupdetect/gbd/internal/sweep"
)

func main() {
	if err := run(os.Args[1:]); err != nil {
		fmt.Fprintln(os.Stderr, "gbd-experiments:", err)
		os.Exit(1)
	}
}

// campaignParams is the checkpoint identity: the options that change
// experiment *results*. Execution shape (sweep workers, retry policy, the
// -exp selection) is deliberately excluded — point keys are namespaced by
// experiment id, so one checkpoint file serves any -exp subset, and a
// resumed run may use different parallelism or retry settings.
type campaignParams struct {
	Trials int
	Quick  bool
	// RNG is the trial scheme's canonical spelling; omitempty keeps the
	// legacy encoding — and so checkpoints taken before the scheme flag
	// existed — valid. A resume across schemes fails the fingerprint
	// check instead of silently mixing two different random universes.
	RNG string `json:",omitempty"`
	// Points versions what a checkpointed point means. Since version 2
	// the fault rows are internal/experiments' shared point types (the
	// degradation point's alive fraction is "Alive", not "AliveFrac")
	// and a zero dead fraction is the fault-free campaign. An older
	// checkpoint has no Points field, so its fingerprint differs and it
	// is refused as stale instead of restoring renamed fields as zero.
	Points int
}

func run(args []string) (err error) {
	fs := flag.NewFlagSet("gbd-experiments", flag.ContinueOnError)
	var ids []string
	for _, r := range experiments.Runners() {
		ids = append(ids, r.ID)
	}
	var (
		exp     = fs.String("exp", "all", "experiment id ("+strings.Join(ids, ", ")+") or all")
		trials  = fs.Int("trials", 0, "Monte Carlo trials per point (0 = paper's 10000)")
		seed    = fs.Int64("seed", 1, "random seed")
		quick   = fs.Bool("quick", false, "reduced sweeps and trial counts")
		rngName = fs.String("rng", "", "trial RNG scheme: legacy (default) or philox (counter-based, window-local deploy)")
		csv     = fs.Bool("csv", false, "emit CSV instead of aligned text")
		plots   = fs.Bool("plot", false, "append ASCII charts for plottable experiments")
		outDir  = fs.String("out", "", "write per-experiment files into this directory instead of stdout")
	)
	policy := sweep.BindFlags(fs, 0)
	ck := sweep.BindCheckpoint(fs)
	obsFlags := obs.AddFlags(fs)
	if err := fs.Parse(args); err != nil {
		return err
	}
	if err := policy.Validate(); err != nil {
		return err
	}
	scheme, err := field.ParseRNGScheme(*rngName)
	if err != nil {
		return err
	}
	sess, err := obsFlags.Start("gbd-experiments", args)
	if err != nil {
		return err
	}
	defer sess.Finish(&err)
	ctx, cancel := sess.SignalContext(context.Background())
	defer cancel()

	opt := experiments.Options{
		Trials:     *trials,
		Seed:       *seed,
		Quick:      *quick,
		RNG:        scheme,
		Sweep:      *policy,
		Ctx:        ctx,
		Checkpoint: ck,
	}
	sess.SetParams(opt)
	sess.SetSeed(*seed)
	err = ck.Open(sess, "gbd-experiments",
		campaignParams{Trials: *trials, Quick: *quick, RNG: scheme.Canonical(), Points: 2}, *seed)
	if err != nil {
		return err
	}
	defer ck.Flush(&err)

	var tables []*experiments.Table
	if *exp == "all" {
		start := time.Now()
		all, aerr := experiments.All(opt)
		tables = all // render the tables completed before any failure
		if aerr == nil {
			fmt.Fprintf(os.Stderr, "ran %d experiments in %v\n", len(all), time.Since(start).Round(time.Millisecond))
		}
		err = aerr
	} else {
		var tbl *experiments.Table
		tbl, err = experiments.RunOne(*exp, opt)
		if err == nil {
			tables = []*experiments.Table{tbl}
		}
	}
	if werr := writeTables(tables, *csv, *plots, *outDir); err == nil {
		err = werr
	}
	return err
}

// writeTables renders each table to stdout or into outDir. On a failed run
// it still emits the tables that completed, so a degraded campaign yields
// partial results rather than nothing.
func writeTables(tables []*experiments.Table, csv, plots bool, outDir string) error {
	for _, tbl := range tables {
		content := tbl.Render()
		ext := ".txt"
		if csv {
			content = tbl.CSV()
			ext = ".csv"
		}
		if plots {
			if chart, ok := experiments.Chart(tbl); ok {
				content += "\n" + chart
			}
		}
		if outDir == "" {
			fmt.Println(content)
			continue
		}
		if err := os.MkdirAll(outDir, 0o755); err != nil {
			return err
		}
		path := filepath.Join(outDir, tbl.ID+ext)
		if err := os.WriteFile(path, []byte(content), 0o644); err != nil {
			return err
		}
		fmt.Fprintf(os.Stderr, "wrote %s\n", path)
	}
	return nil
}
