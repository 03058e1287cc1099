// Command gbd-server serves the group-based-detection analysis and
// simulator as a long-lived HTTP JSON API — the paper's models as a
// service rather than a batch run. It exposes
//
//	POST /v1/analyze              M-S-approach detection probability
//	                              (h_nodes >= 1 switches to the
//	                              distinct-nodes extension)
//	POST /v1/design               false-alarm-driven K + fleet sizing
//	POST /v1/latency              analytical detection-latency CDF
//	POST /v1/simulate             bounded Monte Carlo campaign with
//	                              optional fault injection
//	POST /v1/infer                closed-loop failure inference: score
//	                              the SPRT dead-sensor inferencer and
//	                              its degradation estimate vs truth
//	POST /v1/place                optimal deployment: lazy-greedy
//	                              sensor placement on a candidate grid
//	                              vs the uniform-random baseline
//	POST /v1/sweep                parameter sweep streamed as NDJSON
//	POST /v1/batch                many operations in one request, one
//	                              NDJSON line per item in input order
//	GET  /v1/experiments/{id}     a registry experiment as a JSON table
//	GET  /healthz                 liveness probe
//	GET  /metrics                 JSON snapshot of the metrics registry
//
// Identical requests are canonicalized onto one cache key: repeats are
// served bit-identically from an LRU over rendered bytes, concurrent
// duplicates share a single computation, and an admission controller
// (bounded queue in front of a bounded worker pool) sheds overload with
// 429/503 + Retry-After instead of collapsing. SIGINT/SIGTERM drains
// gracefully: in-flight requests — including NDJSON sweep streams — run
// to completion, then the process exits 0.
//
// With -peers (and -self), replicas of one build form a fleet: cache
// keys are sharded across the replicas by consistent hashing, a miss on
// a key owned elsewhere is forwarded to its owner, and no key is
// computed by more than one replica (DESIGN.md §14).
//
// Usage:
//
//	gbd-server [flags]
//
// Examples:
//
//	gbd-server -addr 127.0.0.1:8080
//	curl -s localhost:8080/healthz
//	curl -s -d '{"scenario":{}}' localhost:8080/v1/analyze
//	curl -sN -d '{"scenario":{},"axis":"n","values":[60,120,180]}' \
//	    localhost:8080/v1/sweep
//	gbd-server -addr 127.0.0.1:8081 \
//	    -peers http://127.0.0.1:8081,http://127.0.0.1:8082 \
//	    -self  http://127.0.0.1:8081
package main

import (
	"context"
	"errors"
	"flag"
	"fmt"
	"io"
	"net"
	"net/http"
	"os"
	"strings"
	"time"

	gbd "github.com/groupdetect/gbd"
	"github.com/groupdetect/gbd/internal/obs"
	"github.com/groupdetect/gbd/internal/serve"
	"github.com/groupdetect/gbd/internal/sweep"
)

func main() {
	if err := run(os.Args[1:], os.Stdout); err != nil {
		fmt.Fprintln(os.Stderr, "gbd-server:", err)
		os.Exit(1)
	}
}

func run(args []string, w io.Writer) (err error) {
	fs := flag.NewFlagSet("gbd-server", flag.ContinueOnError)
	var (
		addr         = fs.String("addr", "127.0.0.1:8080", "listen address (host:port; port 0 picks a free port)")
		cacheEntries = fs.Int("cache-entries", 1024, "result cache capacity in entries (negative disables caching)")
		workers      = fs.Int("workers", 0, "concurrent computations (0 = all cores)")
		queueDepth   = fs.Int("queue-depth", 0, "admission queue bound (0 = 4x workers); beyond it requests get 429")
		reqTimeout   = fs.Duration("request-timeout", 30*time.Second, "per-request computation deadline")
		maxTrials    = fs.Int("max-trials", 200000, "largest accepted Monte Carlo trial count per request")
		maxPoints    = fs.Int("max-sweep-points", 512, "largest accepted sweep value list")
		drainTimeout = fs.Duration("drain-timeout", 30*time.Second, "how long to wait for in-flight requests on shutdown")
		rngName      = fs.String("rng", "", "default trial RNG scheme for requests without \"rng\": legacy (default) or philox")
		peersFlag    = fs.String("peers", "", "comma-separated fleet view for consistent-hash cache sharding: every replica's base URL (http://host:port), identical on every replica; empty disables sharding")
		selfFlag     = fs.String("self", "", "this replica's own entry in -peers, verbatim (required with -peers)")
		peerCooldown = fs.Duration("peer-cooldown", 2*time.Second, "how long a dead peer stays out of the ring before a re-admission probe")
		peerTimeout  = fs.Duration("peer-timeout", 2*time.Second, "per-forward round-trip deadline; a stalled owner trips its breaker and the request computes locally")
	)
	maxBatch := fs.Int("batch-max-items", 1024, "largest accepted /v1/batch item list; overflow is rejected with 413")
	// The default fault policy of sweep streams and experiment tables.
	policy := sweep.BindFlags(fs, 1)
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
	sess, err := obsFlags.Start("gbd-server", args)
	if err != nil {
		return err
	}
	// A signal-triggered drain exits with err == nil; the signal has
	// already pinned the manifest status, so it records "interrupted"
	// while the process still exits 0.
	defer sess.Finish(&err)
	ctx, cancel := sess.SignalContext(context.Background())
	defer cancel()

	cfg := serve.Config{
		CacheEntries:   *cacheEntries,
		Workers:        *workers,
		QueueDepth:     *queueDepth,
		RequestTimeout: *reqTimeout,
		MaxTrials:      *maxTrials,
		MaxSweepPoints: *maxPoints,
		Sweep:          *policy,
		RNG:            scheme,
		MaxBatchItems:  *maxBatch,
		PeerCooldown:   *peerCooldown,
		PeerTimeout:    *peerTimeout,
	}
	if *peersFlag != "" {
		cfg.Peers = strings.Split(*peersFlag, ",")
		cfg.Self = *selfFlag
		if err := cfg.ValidatePeers(); err != nil {
			return err
		}
	}
	sess.SetParams(cfg)
	srv := serve.New(cfg)

	ln, err := net.Listen("tcp", *addr)
	if err != nil {
		return err
	}
	httpSrv := &http.Server{Handler: srv.Handler()}
	// The test harness and smoke scripts parse this line for the bound
	// port, so keep its shape stable.
	fmt.Fprintf(w, "gbd-server listening on http://%s\n", ln.Addr())

	serveErr := make(chan error, 1)
	go func() { serveErr <- httpSrv.Serve(ln) }()
	select {
	case err := <-serveErr:
		return err
	case <-ctx.Done():
	}

	fmt.Fprintln(os.Stderr, "draining in-flight requests")
	dctx, dcancel := context.WithTimeout(context.Background(), *drainTimeout)
	defer dcancel()
	if err := httpSrv.Shutdown(dctx); err != nil {
		return fmt.Errorf("drain: %w", err)
	}
	if err := <-serveErr; !errors.Is(err, http.ErrServerClosed) {
		return err
	}
	fmt.Fprintln(w, "gbd-server drained cleanly")
	return nil
}
