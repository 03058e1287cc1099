// Command gbd-bench runs the hot-path benchmarks of internal/benchsuite
// in-process via testing.Benchmark and emits a machine-readable JSON
// report. The committed BENCH_*.json snapshots are its output, and
// `go test -bench` runs the same bodies through bench_test.go, so both
// measure one definition of each benchmark.
//
// -compare gates the run against a committed snapshot: if a gated
// benchmark (SimulationSingleTrial, FaultyTrial, ServedAnalyzeCached)
// regresses more than 10% in ns/op against the baseline file, the command
// exits non-zero. Each gated benchmark runs gateRuns times and both the
// report and the gate keep its fastest run, so one run slowed by a noisy
// neighbour does not trip the gate. CI runs `gbd-bench -compare
// BENCH_PR13.json` so the headline numbers cannot silently drift back.
// ServedBatch and PeerForwardedHit track the fleet surfaces
// (informational — HTTP-path variance is too wide to gate on).
//
// Usage:
//
//	gbd-bench [-out BENCH_PR15.json] [-compare BENCH_PR13.json]
package main

import (
	"encoding/json"
	"flag"
	"fmt"
	"os"
	"strings"
	"testing"

	"github.com/groupdetect/gbd/internal/benchsuite"
	"github.com/groupdetect/gbd/internal/obs"
)

func main() {
	if err := run(os.Args[1:]); err != nil {
		fmt.Fprintln(os.Stderr, "gbd-bench:", err)
		os.Exit(1)
	}
}

// Result is one benchmark measurement in the emitted report.
type Result struct {
	Name        string  `json:"name"`
	NsPerOp     float64 `json:"ns_per_op"`
	AllocsPerOp int64   `json:"allocs_per_op"`
	Iterations  int     `json:"iterations"`
}

func run(args []string) (err error) {
	fs := flag.NewFlagSet("gbd-bench", flag.ContinueOnError)
	out := fs.String("out", "", "write the JSON report to this file instead of stdout")
	match := fs.String("bench", "", "run only benchmarks whose name contains this substring")
	compare := fs.String("compare", "", "baseline JSON report; exit non-zero if a gated benchmark's fastest run regresses >10% against it")
	obsFlags := obs.AddFlags(fs)
	if err := fs.Parse(args); err != nil {
		return err
	}
	sess, err := obsFlags.Start("gbd-bench", args)
	if err != nil {
		return err
	}
	defer func() {
		if cerr := sess.Close(); err == nil {
			err = cerr
		}
	}()
	// LIFO: RecordOutcome classifies err into the manifest status before
	// Close stamps and writes the manifest.
	defer func() { sess.RecordOutcome(err) }()
	var runs []Result
	for _, bm := range benchsuite.All {
		if *match != "" && !strings.Contains(bm.Name, *match) {
			continue
		}
		reps := 1
		if gated[bm.Name] {
			reps = gateRuns
		}
		for range reps {
			r := testing.Benchmark(bm.Fn)
			runs = append(runs, Result{
				Name:        bm.Name,
				NsPerOp:     float64(r.T.Nanoseconds()) / float64(r.N),
				AllocsPerOp: r.AllocsPerOp(),
				Iterations:  r.N,
			})
			fmt.Fprintf(os.Stderr, "%-24s %12.1f ns/op %8d allocs/op (%d iterations)\n",
				bm.Name, float64(r.T.Nanoseconds())/float64(r.N), r.AllocsPerOp(), r.N)
		}
	}
	if len(runs) == 0 {
		return fmt.Errorf("no benchmark name contains %q", *match)
	}
	buf, err := json.MarshalIndent(fastest(runs), "", "  ")
	if err != nil {
		return err
	}
	buf = append(buf, '\n')
	if *out == "" {
		if _, err = os.Stdout.Write(buf); err != nil {
			return err
		}
	} else if err := os.WriteFile(*out, buf, 0o644); err != nil {
		return err
	}
	if *compare != "" {
		return compareBaseline(*compare, runs)
	}
	return nil
}

// gateRuns is how many times each gated benchmark runs. Noise on a shared
// host only ever slows a run down, so the fastest of a few is the stable
// estimate a tight threshold needs.
const gateRuns = 3

// fastest keeps one result per benchmark name, its fastest run, in the
// order the names first appear.
func fastest(runs []Result) []Result {
	var out []Result
	at := make(map[string]int, len(runs))
	for _, r := range runs {
		i, seen := at[r.Name]
		switch {
		case !seen:
			at[r.Name] = len(out)
			out = append(out, r)
		case r.NsPerOp < out[i].NsPerOp:
			out[i] = r
		}
	}
	return out
}

// gated names the benchmarks the -compare regression gate enforces: the
// plain and the fault-injection trial through the one trial kernel, and
// the served cache hit. The other measurements are informational —
// machine-to-machine variance on the HTTP and coordinator benchmarks is
// too wide to gate on.
var gated = map[string]bool{
	"SimulationSingleTrial": true,
	"FaultyTrial":           true,
	"ServedAnalyzeCached":   true,
}

// compareBaseline fails if the fastest of a gated benchmark's runs is
// more than 10% slower (ns/op) than the same-named entry in the baseline
// report. Gated names missing from either side are an error: a gate that
// silently skips is not a gate.
func compareBaseline(path string, runs []Result) error {
	blob, err := os.ReadFile(path)
	if err != nil {
		return fmt.Errorf("compare: %w", err)
	}
	var baseline []Result
	if err := json.Unmarshal(blob, &baseline); err != nil {
		return fmt.Errorf("compare %s: %w", path, err)
	}
	base := make(map[string]Result, len(baseline))
	for _, r := range baseline {
		base[r.Name] = r
	}
	cur := make(map[string]Result, len(runs))
	for _, r := range fastest(runs) {
		cur[r.Name] = r
	}
	var failed []string
	for name := range gated {
		b, ok := base[name]
		if !ok {
			return fmt.Errorf("compare: baseline %s has no %q entry", path, name)
		}
		c, ok := cur[name]
		if !ok {
			return fmt.Errorf("compare: this run did not measure gated benchmark %q (check -bench)", name)
		}
		ratio := c.NsPerOp / b.NsPerOp
		verdict := "ok"
		if ratio > 1.10 {
			verdict = "REGRESSION"
			failed = append(failed, name)
		}
		fmt.Fprintf(os.Stderr, "compare %-24s %12.1f -> %12.1f ns/op (%+.1f%%) %s\n",
			name, b.NsPerOp, c.NsPerOp, (ratio-1)*100, verdict)
	}
	if len(failed) > 0 {
		return fmt.Errorf("benchmarks regressed >10%% vs %s: %s", path, strings.Join(failed, ", "))
	}
	return nil
}
