// Command bench is the repository's end-to-end benchmark. It drives four
// workloads through the layers' public functions — detect.MSApproach,
// sim.RunCtx, and a 2-replica sharded serve fleet on loopback listeners —
// checks every output it measures, and prints each metric by name with
// its unit, then one JSON result line.
//
// Usage (from the repository root; bench/run.sh builds and runs it):
//
//	bench --workload <campaign|degraded|serve-hot|serve-cold|all> --seed <n> \
//	      [--seconds 20] [--trace 0|1] [--spans <file>]
//
// --trace 0 measures the end-to-end metrics. --trace 1 first runs the
// same workload untraced in a child process, then traced in this one: it
// prints the per-layer metrics, the traced/untraced ratio of every
// end-to-end metric (trace.overhead.*), and writes the spans as JSON.
//
// The exit status is 0 when every check passed, 1 when a check failed or
// the workload could not run, and 2 for bad flags.
package main

import (
	"bytes"
	"context"
	"encoding/json"
	"errors"
	"flag"
	"fmt"
	"io"
	"os"
	"os/exec"
	"path/filepath"
	"strconv"
	"time"
)

// runConfig is what a workload run receives: the input seed, how long to
// measure, and the tracer (nil for untraced runs).
type runConfig struct {
	seed    int64
	seconds time.Duration
	tr      *tracer
}

// workload is one named traffic shape and why it exists.
type workload struct {
	name, why string
	run       func(ctx context.Context, rc runConfig) (*report, error)
}

var workloads = []workload{
	{
		name: "campaign",
		why:  "Fig. 9(a) at paper scale: closed loop over 20 points of 10000 philox trials, nearly all time in the SoA batch engine",
		run: func(ctx context.Context, rc runConfig) (*report, error) {
			ns := []int{60, 80, 100, 120, 140, 160, 180, 200, 220, 240}
			return runCampaign(ctx, rc, fig9aCampaign(rc.seed, ns, []float64{4, 10}, 10000))
		},
	},
	{
		name: "degraded",
		why:  "per-trial fault path the batch engine bypasses: node death, lossy relay delivery and failure inference",
		run: func(ctx context.Context, rc runConfig) (*report, error) {
			return runCampaign(ctx, rc, degradedCampaign(rc.seed, []float64{0.1, 0.2, 0.3, 0.4}, 4000))
		},
	},
	{
		name: "serve-hot",
		why:  "open-loop reads of 64 pre-warmed bodies under Zipf(1.1): the fleet's cache-hit path",
		run: func(ctx context.Context, rc runConfig) (*report, error) {
			return runServe(ctx, rc, hotSpec)
		},
	},
	{
		name: "serve-cold",
		why:  "open-loop fresh scenarios with compute: admission, cache misses and evictions, peer forwards, placement",
		run: func(ctx context.Context, rc runConfig) (*report, error) {
			return runServe(ctx, rc, coldSpec)
		},
	},
}

// result is the final JSON line.
type result struct {
	Correct   bool                   `json:"correct"`
	Attempted int                    `json:"attempted"`
	Failed    int                    `json:"failed"`
	Metrics   map[string]metricValue `json:"metrics"`
}

type metricValue struct {
	Value float64 `json:"value"`
	Unit  string  `json:"unit"`
}

func main() { os.Exit(run(os.Args[1:], os.Stdout, os.Stderr)) }

func run(args []string, stdout, stderr io.Writer) int {
	fs := flag.NewFlagSet("bench", flag.ContinueOnError)
	fs.SetOutput(stderr)
	name := fs.String("workload", "", "campaign, degraded, serve-hot, serve-cold, or all")
	seed := fs.Int64("seed", 1, "input seed: the same seed gives the same inputs")
	seconds := fs.Float64("seconds", 20, "measured seconds per run")
	trace := fs.Int("trace", 0, "1 for a traced run reporting per-layer metrics")
	spans := fs.String("spans", "", "span dump path for --trace 1 (default .bench_build/spans-<workload>.json)")
	if err := fs.Parse(args); err != nil {
		return 2
	}
	if fs.NArg() > 0 || *seconds <= 0 || (*trace != 0 && *trace != 1) {
		fmt.Fprintln(stderr, "bench: want --workload <name> --seed <n> [--seconds s>0] [--trace 0|1]")
		return 2
	}
	if *name == "all" {
		return runAll(args, stdout, stderr)
	}
	var w *workload
	for i := range workloads {
		if workloads[i].name == *name {
			w = &workloads[i]
		}
	}
	if w == nil {
		fmt.Fprintf(stderr, "bench: unknown workload %q\n", *name)
		return 2
	}
	rc := runConfig{seed: *seed, seconds: dur(*seconds)}
	defs := endToEnd
	var untraced map[string]metricValue
	if *trace == 1 {
		// A fresh process keeps the untraced numbers free of this
		// process's caches and peak memory.
		res, err := runChild([]string{"--workload", *name, "--seed", strconv.FormatInt(*seed, 10),
			"--seconds", strconv.FormatFloat(*seconds, 'g', -1, 64), "--trace", "0"}, nil, stderr)
		if err != nil {
			fmt.Fprintf(stderr, "bench: untraced run: %v\n", err)
			return 1
		}
		untraced = res.Metrics
		rc.tr = newTracer()
		defs = perLayer
	}

	fmt.Fprintf(stdout, "workload %s  seed %d  seconds %g  trace %d\n  why: %s\n", w.name, *seed, *seconds, *trace, w.why)
	r, err := w.run(context.Background(), rc)
	if err != nil {
		fmt.Fprintf(stderr, "bench: %s: %v\n", w.name, err)
		return 1
	}
	if rc.tr != nil {
		for _, m := range endToEnd {
			r.metrics["trace.overhead."+m.name] = ratio(r.metrics[m.name], untraced[m.name].Value)
		}
		path := *spans
		if path == "" {
			path = filepath.Join(".bench_build", "spans-"+w.name+".json")
		}
		if err := rc.tr.dump(path); err != nil {
			fmt.Fprintf(stderr, "bench: %v\n", err)
			return 1
		}
		fmt.Fprintf(stdout, "spans: %s\n", path)
		printMetrics(stdout, endToEnd, r.metrics, "traced ")
	}
	return finish(stdout, r, defs)
}

// finish prints the notes, the metrics and the JSON result line.
func finish(stdout io.Writer, r *report, defs []metricDef) int {
	for _, n := range r.notes {
		fmt.Fprintln(stdout, "  "+n)
	}
	res := result{Attempted: max(1, r.attempted), Failed: r.failed, Metrics: make(map[string]metricValue)}
	for _, m := range defs {
		res.Metrics[m.name] = metricValue{Value: finite(m.name, r.metrics[m.name], r), Unit: m.unit}
	}
	printMetrics(stdout, defs, r.metrics, "")
	for _, p := range r.problems {
		fmt.Fprintln(stdout, "CHECK FAILED: "+p)
	}
	res.Correct = len(r.problems) == 0
	line, err := json.Marshal(res)
	if err != nil {
		fmt.Fprintln(stdout, "bench: encode result:", err)
		return 1
	}
	fmt.Fprintln(stdout, string(line))
	if !res.Correct {
		return 1
	}
	return 0
}

func printMetrics(w io.Writer, defs []metricDef, m map[string]float64, prefix string) {
	for _, d := range defs {
		fmt.Fprintf(w, "%s%-36s %14.6g %s\n", prefix, d.name, m[d.name], d.unit)
	}
}

// runChild runs this binary with args in a fresh process, echoing its
// standard output when echo is non-nil, and returns its result line with
// the error of a run that exited non-zero.
func runChild(args []string, echo, stderr io.Writer) (*result, error) {
	exe, err := os.Executable()
	if err != nil {
		return nil, err
	}
	var out bytes.Buffer
	cmd := exec.Command(exe, args...)
	cmd.Stdout, cmd.Stderr = &out, stderr
	if echo != nil {
		cmd.Stdout = io.MultiWriter(echo, &out)
	}
	runErr := cmd.Run()
	res, err := lastResult(out.Bytes())
	if err != nil {
		return nil, errors.Join(runErr, err)
	}
	return res, runErr
}

// lastResult parses the JSON result from the last line of a run's output.
func lastResult(out []byte) (*result, error) {
	out = bytes.TrimSpace(out)
	var res result
	if err := json.Unmarshal(out[bytes.LastIndexByte(out, '\n')+1:], &res); err != nil {
		return nil, fmt.Errorf("no result line: %w", err)
	}
	return &res, nil
}

// runAll runs every workload, each in its own process, passes their
// output through, and ends with one combined result whose metrics are
// named <workload>.<metric>.
func runAll(args []string, stdout, stderr io.Writer) int {
	all := result{Correct: true, Metrics: make(map[string]metricValue)}
	for _, w := range workloads {
		res, err := runChild(append(args, "--workload", w.name), stdout, stderr)
		if res == nil {
			fmt.Fprintf(stderr, "bench: %s: %v\n", w.name, err)
			return 1
		}
		all.Correct = all.Correct && res.Correct && err == nil
		all.Attempted += res.Attempted
		all.Failed += res.Failed
		for k, v := range res.Metrics {
			all.Metrics[w.name+"."+k] = v
		}
	}
	line, err := json.Marshal(all)
	if err != nil {
		fmt.Fprintln(stderr, "bench:", err)
		return 1
	}
	fmt.Fprintln(stdout, string(line))
	if !all.Correct {
		return 1
	}
	return 0
}
