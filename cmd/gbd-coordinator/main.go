// Command gbd-coordinator runs one sweep campaign across a fleet of
// gbd-server workers and merges the results into a single NDJSON stream
// that is byte-identical to what one server would have produced — under
// worker crashes, stream truncation, stalls, and error bursts
// (internal/fabric; DESIGN.md §12).
//
// The campaign's progress lives in a work ledger (a fingerprint-bound
// checkpoint file): a killed coordinator rerun with -resume recomputes
// only the missing points, and a re-dispatched or hedged shard can never
// double-count — duplicate rows are verified byte-identical against the
// ledger before being discarded.
//
// The -chaos-* flags wrap every worker in an in-process fault-injecting
// proxy (internal/fabric/chaos) with a seeded schedule, which is how the
// CI chaos job and local soak tests exercise the failure machinery
// against real servers.
//
// Usage:
//
//	gbd-coordinator -workers URL[,URL...] -axis n -values 60,120,180 [flags]
//
// Examples:
//
//	gbd-coordinator -workers http://10.0.0.7:8080,http://10.0.0.8:8080 \
//	    -axis n -values 60,120,180,240 -trials 20000 -seed 7 \
//	    -ledger campaign.ckpt.json -out merged.ndjson
//	gbd-coordinator -workers http://10.0.0.7:8080 -resume \
//	    -axis n -values 60,120,180,240 -trials 20000 -seed 7 \
//	    -ledger campaign.ckpt.json -out merged.ndjson
package main

import (
	"bytes"
	"context"
	"encoding/json"
	"flag"
	"fmt"
	"io"
	"math"
	"os"
	"strconv"
	"strings"
	"time"

	gbd "github.com/groupdetect/gbd"
	"github.com/groupdetect/gbd/internal/fabric"
	"github.com/groupdetect/gbd/internal/fabric/chaos"
	"github.com/groupdetect/gbd/internal/obs"
	"github.com/groupdetect/gbd/internal/scenario"
	"github.com/groupdetect/gbd/internal/serve"
)

func main() {
	if err := run(os.Args[1:], os.Stdout); err != nil {
		fmt.Fprintln(os.Stderr, "gbd-coordinator:", err)
		os.Exit(1)
	}
}

func run(args []string, w io.Writer) (err error) {
	fs := flag.NewFlagSet("gbd-coordinator", flag.ContinueOnError)
	var (
		workers  = fs.String("workers", "", "comma-separated gbd-server base URLs (required)")
		axis     = fs.String("axis", "n", "swept parameter (n, v, k, m, pd, dead_frac)")
		values   = fs.String("values", "", "comma-separated axis values (required)")
		scenJSON = fs.String("scenario", "{}", "scenario overrides as JSON (e.g. '{\"k\":3}')")
		trials   = fs.Int("trials", 0, "Monte Carlo trials per point (0 = analysis only)")
		seed     = fs.Int64("seed", 1, "campaign seed")
		keep     = fs.Bool("keep-going", false, "finish past point failures, emitting error rows")
		rngName  = fs.String("rng", "", "trial RNG scheme sent with every shard: legacy (default) or philox")

		ledger  = fs.String("ledger", "", "work-ledger checkpoint file (required)")
		resume  = fs.Bool("resume", false, "resume the ledger, recomputing only missing points")
		out     = fs.String("out", "-", "merged NDJSON destination ('-' = stdout)")
		report  = fs.String("report", "", "write the campaign report (events, per-worker health) as JSON to this file")
		verbose = fs.Bool("v", false, "log scheduling events to stderr as they happen")

		shardSize = fs.Int("shard-size", 8, "sweep points per dispatched shard")
		retries   = fs.Int("retries", 6, "transient re-dispatches per shard (0 = none)")
		backoff   = fs.Duration("retry-backoff", 100*time.Millisecond, "base backoff between shard re-dispatches")
		stall     = fs.Duration("stall-timeout", 30*time.Second, "fail an attempt with no stream progress for this long (0 or negative disables)")
		hedges    = fs.Int("hedges", 1, "speculative twins per straggling shard (0 disables); a twin fires past 3x the 0.9 quantile of completed shard durations, at least 1s, once 3 have completed")

		circuitN = fs.Int("circuit-threshold", 3, "consecutive failures that open a worker's circuit")
		circuitC = fs.Duration("circuit-cooldown", 5*time.Second, "how long an open circuit waits before its re-admission probe")

		chaosSeed  = fs.Int64("chaos-seed", 0, "seed for the fault-injection schedule (with any -chaos-*-every)")
		chaosDrop  = fs.Int("chaos-drop-every", 0, "drop every k-th request at the chaos proxy (0 = never)")
		chaos503   = fs.Int("chaos-503-every", 0, "503 every k-th request at the chaos proxy (0 = never)")
		chaosTrunc = fs.Int("chaos-truncate-every", 0, "truncate every k-th stream mid-row (0 = never)")
		chaosStall = fs.Int("chaos-stall-every", 0, "stall every k-th stream mid-row (0 = never)")
		chaosPause = fs.Duration("chaos-stall-duration", 2*time.Second, "how long a chaos stall freezes the stream")
	)
	obsFlags := obs.AddFlags(fs)
	if err := fs.Parse(args); err != nil {
		return err
	}
	cfg := fabric.Config{
		ShardSize:        *shardSize,
		Retries:          *retries,
		RetryBackoff:     *backoff,
		StallTimeout:     *stall,
		MaxHedges:        *hedges,
		CircuitThreshold: *circuitN,
		CircuitCooldown:  *circuitC,
	}
	if err := cfg.Validate(); err != nil {
		return err
	}
	for _, f := range []struct {
		name  string
		every int
	}{{"chaos-drop-every", *chaosDrop}, {"chaos-503-every", *chaos503}, {"chaos-truncate-every", *chaosTrunc}, {"chaos-stall-every", *chaosStall}} {
		if f.every < 0 {
			return fmt.Errorf("%s = %d must be >= 0 (0 = never)", f.name, f.every)
		}
	}
	if *chaosPause <= 0 {
		return fmt.Errorf("chaos-stall-duration = %v must be > 0", *chaosPause)
	}
	if *trials < 0 {
		return fmt.Errorf("trials = %d must be >= 0", *trials)
	}
	urls, err := splitList(*workers)
	if err != nil || len(urls) == 0 {
		return fmt.Errorf("-workers must list at least one gbd-server URL")
	}
	grid, err := parseValues(*values)
	if err != nil {
		return err
	}
	// The base scenario is checked here, before any ledger or dispatch: a
	// malformed or invalid one would fail on every worker anyway.
	scen, err := scenario.Decode([]byte(*scenJSON))
	if err != nil {
		return fmt.Errorf("-scenario: %w", err)
	}
	if *ledger == "" {
		return fmt.Errorf("-ledger is required (the work ledger is what makes re-dispatch idempotent)")
	}
	scheme, err := gbd.ParseRNGScheme(*rngName)
	if err != nil {
		return err
	}

	sess, err := obsFlags.Start("gbd-coordinator", args)
	if err != nil {
		return err
	}
	defer sess.Finish(&err)
	ctx, cancel := sess.SignalContext(context.Background())
	defer cancel()
	sess.SetSeed(*seed)

	// With a chaos schedule configured, every worker gets its own
	// fault-injecting proxy (phase-shifted per worker so faults spread
	// across the fleet); the coordinator dials the proxies.
	chaosOn := *chaosDrop > 0 || *chaos503 > 0 || *chaosTrunc > 0 || *chaosStall > 0
	var proxies []*chaos.Proxy
	if chaosOn {
		for i, u := range urls {
			p, err := chaos.Start(chaos.Config{
				Seed:          *chaosSeed + int64(i),
				Target:        u,
				DropEvery:     *chaosDrop,
				Err503Every:   *chaos503,
				TruncateEvery: *chaosTrunc,
				StallEvery:    *chaosStall,
				Stall:         *chaosPause,
			})
			if err != nil {
				return err
			}
			defer p.Close()
			proxies = append(proxies, p)
			urls[i] = p.URL()
		}
		fmt.Fprintf(os.Stderr, "chaos: %d workers proxied (seed %d)\n", len(urls), *chaosSeed)
	}

	cfg.Workers = urls
	cfg.Request = serve.SweepRequest{
		Scenario:  scen,
		Axis:      serve.SweepAxis(*axis),
		Values:    grid,
		Trials:    *trials,
		Seed:      *seed,
		KeepGoing: *keep,
		RNG:       scheme.Canonical(),
	}
	cfg.LedgerPath, cfg.Resume = *ledger, *resume
	if *verbose {
		cfg.OnEvent = func(ev fabric.Event) {
			fmt.Fprintf(os.Stderr, "fabric: %-12s shard=%d worker=%d %s\n", ev.Type, ev.Shard, ev.Worker, ev.Err)
		}
	}
	sess.SetParams(cfg)

	coord, err := fabric.New(cfg)
	if err != nil {
		return err
	}
	rep, runErr := coord.Run(ctx)
	if *report != "" {
		if werr := writeReport(*report, rep, proxies); werr != nil && runErr == nil {
			runErr = werr
		}
	}
	if runErr != nil {
		return runErr
	}

	var buf bytes.Buffer
	if err := coord.WriteMerged(&buf); err != nil {
		return err
	}
	if *out == "-" {
		if _, err := w.Write(buf.Bytes()); err != nil {
			return err
		}
	} else if err := os.WriteFile(*out, buf.Bytes(), 0o644); err != nil {
		return err
	}
	fmt.Fprintf(os.Stderr,
		"gbd-coordinator: %d points over %d workers: %d shards (%d restored), %d dispatched, %d retried, %d hedged, %d duplicate results, %d circuit opens\n",
		rep.Points, len(urls), rep.Shards, rep.Restored, rep.Dispatched, rep.Retried, rep.Hedged, rep.Duplicates, rep.Opens)
	return nil
}

// writeReport dumps the campaign report, with per-proxy chaos tallies
// when the run was chaos-wrapped.
func writeReport(path string, rep *fabric.Report, proxies []*chaos.Proxy) error {
	doc := struct {
		*fabric.Report
		Chaos []chaos.Counts `json:"chaos,omitempty"`
	}{Report: rep}
	for _, p := range proxies {
		doc.Chaos = append(doc.Chaos, p.Counts())
	}
	blob, err := json.MarshalIndent(doc, "", "  ")
	if err != nil {
		return err
	}
	return os.WriteFile(path, append(blob, '\n'), 0o644)
}

func splitList(s string) ([]string, error) {
	var out []string
	for _, part := range strings.Split(s, ",") {
		part = strings.TrimSpace(part)
		if part != "" {
			out = append(out, part)
		}
	}
	return out, nil
}

func parseValues(s string) ([]float64, error) {
	parts, _ := splitList(s)
	if len(parts) == 0 {
		return nil, fmt.Errorf("-values must list at least one axis value")
	}
	out := make([]float64, len(parts))
	for i, p := range parts {
		v, err := strconv.ParseFloat(p, 64)
		if err != nil || math.IsNaN(v) || math.IsInf(v, 0) {
			return nil, fmt.Errorf("-values: %q is not a finite number", p)
		}
		out[i] = v
	}
	return out, nil
}
