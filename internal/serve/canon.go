// Request canonicalization: every JSON body is decoded strictly into a
// wire struct, defaults are resolved, and the resulting canonical value is
// re-encoded with a fixed field order and fingerprinted via
// obs.Fingerprint. Two bodies that differ only in field order, whitespace,
// or explicitly-spelled defaults therefore map to the same cache key,
// while any parameter mutation changes the canonical encoding and so the
// key — the property the canonicalization test suite guards.
package serve

import (
	"bytes"
	"encoding/json"
	"errors"
	"fmt"
	"io"
	"math"
	"net/http"
	"sync"
	"time"

	"github.com/groupdetect/gbd/internal/detect"
	"github.com/groupdetect/gbd/internal/field"
	"github.com/groupdetect/gbd/internal/obs"
)

// ErrRequest reports an invalid API request; handlers map it to 400.
var ErrRequest = errors.New("serve: invalid request")

// ErrTooLarge reports a request exceeding a configured size bound (the
// /v1/batch item cap); handlers map it to 413.
var ErrTooLarge = errors.New("serve: request too large")

// maxBodyBytes bounds request bodies; scenario + options JSON is tiny.
const maxBodyBytes = 1 << 20

// Scenario is the wire form of detect.Params. Every field is optional;
// omitted fields take the paper's ONR defaults (gbd.Defaults), so a
// minimal request is `{"scenario":{}}`. Pointers distinguish "omitted"
// from an explicit zero, which is rejected by parameter validation rather
// than silently replaced.
type Scenario struct {
	N             *int     `json:"n,omitempty"`
	FieldSide     *float64 `json:"field_side,omitempty"`
	Rs            *float64 `json:"rs,omitempty"`
	V             *float64 `json:"v,omitempty"`
	PeriodSeconds *float64 `json:"period_seconds,omitempty"`
	Pd            *float64 `json:"pd,omitempty"`
	M             *int     `json:"m,omitempty"`
	K             *int     `json:"k,omitempty"`
}

// params resolves the scenario against the defaults and validates it.
func (s Scenario) params() (detect.Params, error) {
	p := detect.Defaults()
	if s.N != nil {
		p.N = *s.N
	}
	if s.FieldSide != nil {
		p.FieldSide = *s.FieldSide
	}
	if s.Rs != nil {
		p.Rs = *s.Rs
	}
	if s.V != nil {
		p.V = *s.V
	}
	if s.PeriodSeconds != nil {
		sec := *s.PeriodSeconds
		if !(sec > 0) || math.IsInf(sec, 0) || math.IsNaN(sec) {
			return p, fmt.Errorf("period_seconds = %v must be positive and finite: %w", sec, ErrRequest)
		}
		p.T = time.Duration(sec * float64(time.Second))
	}
	if s.Pd != nil {
		p.Pd = *s.Pd
	}
	if s.M != nil {
		p.M = *s.M
	}
	if s.K != nil {
		p.K = *s.K
	}
	if err := p.Validate(); err != nil {
		return p, err
	}
	return p, nil
}

// scenarioEcho is the fully resolved scenario as echoed in responses and
// used in canonical fingerprints: every field concrete, fixed order.
type scenarioEcho struct {
	N             int     `json:"n"`
	FieldSide     float64 `json:"field_side"`
	Rs            float64 `json:"rs"`
	V             float64 `json:"v"`
	PeriodSeconds float64 `json:"period_seconds"`
	Pd            float64 `json:"pd"`
	M             int     `json:"m"`
	K             int     `json:"k"`
}

func echoParams(p detect.Params) scenarioEcho {
	return scenarioEcho{
		N: p.N, FieldSide: p.FieldSide, Rs: p.Rs, V: p.V,
		PeriodSeconds: p.T.Seconds(), Pd: p.Pd, M: p.M, K: p.K,
	}
}

// AnalyzeOptions is the wire form of detect.MSOptions plus response
// shaping. Zero values mean "plan automatically", like the CLI flags.
type AnalyzeOptions struct {
	Gh             int     `json:"gh,omitempty"`
	G              int     `json:"g,omitempty"`
	TargetAccuracy float64 `json:"target_accuracy,omitempty"`
	// Matrix selects the literal Eq. (12) matrix evaluator.
	Matrix bool `json:"matrix,omitempty"`
	// NoNormalize skips the Eq. (13) renormalization (Figure 9(b)).
	NoNormalize bool `json:"no_normalize,omitempty"`
	// IncludePMF adds the full report-count distribution to the response.
	IncludePMF bool `json:"include_pmf,omitempty"`
}

func (o AnalyzeOptions) msOptions() detect.MSOptions {
	opt := detect.MSOptions{
		Gh: o.Gh, G: o.G,
		TargetAccuracy: o.TargetAccuracy,
		NoNormalize:    o.NoNormalize,
	}
	if o.Matrix {
		opt.Evaluator = detect.EvaluatorMatrix
	}
	return opt
}

// AnalyzeRequest is the /v1/analyze body: a scenario, analysis options,
// and an optional >= h distinct-nodes extension.
type AnalyzeRequest struct {
	Scenario Scenario       `json:"scenario"`
	Options  AnalyzeOptions `json:"options,omitempty"`
	HNodes   int            `json:"h_nodes,omitempty"`
	// RNG selects the simulator's RNG scheme ("legacy" or "philox");
	// empty inherits the server default. Analysis itself draws nothing,
	// but the scheme still partitions the cache so a deployment flipping
	// its default cannot serve bytes attributed to the other scheme.
	RNG string `json:"rng,omitempty"`
}

// DesignRequest is the /v1/design body: the deployment-design workflow
// inputs (the scenario's N and K are outputs here, not inputs).
type DesignRequest struct {
	Scenario Scenario `json:"scenario"`
	// TargetProb is the required detection probability (default 0.9).
	TargetProb float64 `json:"target_prob,omitempty"`
	// FalseAlarmP is the per-sensor per-period false alarm probability
	// (default 1e-4); Budget the system-level false alarm budget over
	// Horizon sensing periods (defaults 0.01 and 1440).
	FalseAlarmP float64 `json:"false_alarm_p,omitempty"`
	Budget      float64 `json:"budget,omitempty"`
	Horizon     int     `json:"horizon,omitempty"`
	// NMax bounds the fleet search (default 1000).
	NMax int `json:"n_max,omitempty"`
}

// LatencyRequest is the /v1/latency body.
type LatencyRequest struct {
	Scenario Scenario       `json:"scenario"`
	Options  AnalyzeOptions `json:"options,omitempty"`
}

// SimulateRequest is the /v1/simulate body: a bounded Monte Carlo
// campaign, optionally with fault injection (Bernoulli node death and/or
// lossy multi-hop delivery — the gbd-faults vocabulary).
type SimulateRequest struct {
	Scenario Scenario `json:"scenario"`
	// Trials must be in [1, Config.MaxTrials].
	Trials int   `json:"trials"`
	Seed   int64 `json:"seed,omitempty"`
	// DeadFrac, when positive, kills that fraction of sensors per trial.
	DeadFrac float64 `json:"dead_frac,omitempty"`
	// CommRange, when positive, routes reports over a unit-disk relay
	// network with PerHopLoss and HopRetries per hop.
	CommRange  float64 `json:"comm_range,omitempty"`
	PerHopLoss float64 `json:"per_hop_loss,omitempty"`
	HopRetries int     `json:"hop_retries,omitempty"`
	// RNG selects the trial RNG scheme ("legacy" or "philox"); empty
	// inherits the server default. Different schemes produce different
	// (equally valid) campaign results, so the scheme is part of the
	// cache identity.
	RNG string `json:"rng,omitempty"`
}

// SweepAxis names a parameter swept by /v1/sweep.
type SweepAxis string

// Sweepable axes.
const (
	AxisN        SweepAxis = "n"
	AxisV        SweepAxis = "v"
	AxisK        SweepAxis = "k"
	AxisM        SweepAxis = "m"
	AxisPd       SweepAxis = "pd"
	AxisDeadFrac SweepAxis = "dead_frac"
)

// SweepRequest is the /v1/sweep body: one scenario parameter swept over
// explicit values, streamed back as NDJSON rows in input order. Trials =
// 0 runs analysis only; positive Trials add a Monte Carlo column per row.
// The retry fields are the sweep fault policy (shared vocabulary with
// gbd-experiments -retries / gbd-faults -point-retries); nil Retries
// inherits the server default.
type SweepRequest struct {
	Scenario Scenario       `json:"scenario"`
	Options  AnalyzeOptions `json:"options,omitempty"`
	Axis     SweepAxis      `json:"axis"`
	Values   []float64      `json:"values"`
	Trials   int            `json:"trials,omitempty"`
	Seed     int64          `json:"seed,omitempty"`
	// Retries / RetryBackoffMS / PointTimeoutMS override the server's
	// default sweep fault policy for this request.
	Retries        *int  `json:"retries,omitempty"`
	RetryBackoffMS int64 `json:"retry_backoff_ms,omitempty"`
	PointTimeoutMS int64 `json:"point_timeout_ms,omitempty"`
	// KeepGoing finishes the sweep past point failures, emitting error
	// rows (gbd-faults -keep-going; sweep.Options.Degrade).
	KeepGoing bool `json:"keep_going,omitempty"`
	// IndexBase offsets the Index field of every emitted row. A sweep
	// coordinator dispatching a shard of a larger grid sets it to the
	// shard's global starting index, so worker rows carry campaign-global
	// indexes and merge byte-identically with a single-machine stream.
	IndexBase int `json:"index_base,omitempty"`
	// RNG selects the trial RNG scheme for the Monte Carlo column
	// ("legacy" or "philox"); empty inherits the server default.
	RNG string `json:"rng,omitempty"`
	// HeartbeatMS opts this stream into keep-alive rows: while no data
	// row is ready, the stream emits `{"hb":true}` lines at this period so
	// proxies, idle timeouts, and the coordinator's stall detector all see
	// a live connection through slow sweep points. 0 (the default)
	// disables heartbeats entirely — a plain sweep stream carries result
	// and error rows only.
	HeartbeatMS int64 `json:"heartbeat_ms,omitempty"`
}

// Heartbeat is the NDJSON keep-alive row interleaved into /v1/sweep
// streams between data rows. Consumers identify it by the "hb" field and
// must not count it as a sweep point.
type Heartbeat struct {
	HB bool `json:"hb"`
}

// decodeBytes strictly decodes a request body into v: unknown fields and
// trailing garbage are request errors, so a typo cannot silently analyze
// the default scenario (and cannot alias two semantically different
// bodies onto one cache key).
func decodeBytes(body []byte, v any) error {
	dec := json.NewDecoder(bytes.NewReader(body))
	dec.DisallowUnknownFields()
	if err := dec.Decode(v); err != nil {
		return fmt.Errorf("decode body: %v: %w", err, ErrRequest)
	}
	if dec.More() {
		return fmt.Errorf("trailing data after JSON body: %w", ErrRequest)
	}
	return nil
}

// bodyScratch recycles the raw-body read buffer across requests so the
// cache-hit fast path performs no allocation.
type bodyScratch struct {
	buf []byte
}

var bodyPool = sync.Pool{New: func() any { return &bodyScratch{buf: make([]byte, 0, 512)} }}

// readBody reads r's whole body into the pooled scratch, prefixed with
// the endpoint so the raw digest is endpoint-scoped (identical bodies
// posted to different endpoints must not collide). The returned slice
// aliases sc.buf and is valid until the scratch is pooled again.
func readBody(r *http.Request, endpoint string, sc *bodyScratch) ([]byte, error) {
	buf := append(sc.buf[:0], endpoint...)
	for {
		if len(buf) == cap(buf) {
			buf = append(buf, 0)[:len(buf)]
		}
		n, err := r.Body.Read(buf[len(buf):cap(buf)])
		buf = buf[:len(buf)+n]
		if len(buf) > len(endpoint)+maxBodyBytes {
			sc.buf = buf
			return nil, fmt.Errorf("body exceeds %d bytes: %w", maxBodyBytes, ErrRequest)
		}
		if err == io.EOF {
			sc.buf = buf
			return buf, nil
		}
		if err != nil {
			sc.buf = buf
			return nil, fmt.Errorf("read body: %v: %w", err, ErrRequest)
		}
	}
}

// readJSON reads r's body through the pooled scratch and strictly
// decodes it into v — the uncached /v1/sweep and /v1/batch envelopes
// read bodies the same way the endpoint table does.
func readJSON(r *http.Request, v any) error {
	sc := bodyPool.Get().(*bodyScratch)
	defer bodyPool.Put(sc)
	raw, err := readBody(r, "", sc)
	if err != nil {
		return err
	}
	return decodeBytes(raw, v)
}

// resolveRNG maps a wire scheme name to the effective scheme: empty
// inherits the server default, anything else must parse.
func (s *Server) resolveRNG(name string) (field.RNGScheme, error) {
	if name == "" {
		return s.cfg.RNG, nil
	}
	scheme, err := field.ParseRNGScheme(name)
	if err != nil {
		return 0, fmt.Errorf("%v: %w", err, ErrRequest)
	}
	return scheme, nil
}

// canonRNG is the scheme's canonical wire spelling: empty for legacy so
// that pre-scheme cache keys (and clients) are undisturbed, the scheme
// name otherwise.
func canonRNG(scheme field.RNGScheme) string {
	if scheme == field.SchemeLegacy {
		return ""
	}
	return scheme.String()
}

// cacheKey fingerprints a canonical request value for one endpoint. The
// canonical value must be fully resolved (defaults applied) and have a
// deterministic encoding; struct field order provides that. The seed
// separates simulation campaigns that differ only in seed.
func cacheKey(endpoint string, canonical any, seed int64) (string, error) {
	blob, err := json.Marshal(canonical)
	if err != nil {
		return "", fmt.Errorf("serve: canonicalize %s request: %w", endpoint, err)
	}
	return obs.Fingerprint("gbd-server"+endpoint, string(blob), seed), nil
}
