// The /v1/place op: the optimal-deployment engine behind the same
// canonicalize/cache/admission discipline as every other compute
// endpoint. Placement runs are deterministic per (config, seed), so
// caching the rendered bytes is sound.
package serve

import (
	"context"
	"fmt"

	"github.com/groupdetect/gbd/internal/placement"
	"github.com/groupdetect/gbd/internal/scenario"
)

// placeMaxGrid bounds each candidate-grid axis; placeMaxCells bounds
// trials x patterns, the size of the precomputed report-count matrix
// (uint16 entries, so the cap is ~32 MiB of engine state per request).
const (
	placeMaxGrid    = 128
	placeMaxClasses = 16
	placeMaxCells   = 1 << 24
)

// PlaceRequest is the /v1/place body: the scenario (its N is the
// placement budget unless classes are given), the candidate grid, the
// Monte Carlo panel, and the §6 false-alarm model attached to the result.
type PlaceRequest struct {
	Scenario scenario.Scenario `json:"scenario"`
	// Classes is the heterogeneous fleet to place; empty means one class
	// of scenario.n sensors at the scenario's rs and pd.
	Classes []placement.Class `json:"classes,omitempty"`
	// GridCols and GridRows shape the candidate lattice (default 32x32,
	// max 128 per axis).
	GridCols int `json:"grid_cols,omitempty"`
	GridRows int `json:"grid_rows,omitempty"`
	// Trials sizes the track panel (default 2000, bounded by the server's
	// MaxTrials and the grid-area product cap).
	Trials int   `json:"trials,omitempty"`
	Seed   int64 `json:"seed,omitempty"`
	// RNG selects the stream scheme ("legacy" or "philox"); empty
	// inherits the server default. Part of the cache identity.
	RNG string `json:"rng,omitempty"`
	// FalseAlarmP, Budget and Horizon parameterize the §6 report
	// thresholds (defaults 1e-4, 0.01, 1440).
	FalseAlarmP float64 `json:"false_alarm_p,omitempty"`
	Budget      float64 `json:"budget,omitempty"`
	Horizon     int     `json:"horizon,omitempty"`
}

// PlacedSensor is one placed sensor on the wire, in selection order.
type PlacedSensor struct {
	X     float64 `json:"x"`
	Y     float64 `json:"y"`
	Class int     `json:"class"`
	Gain  float64 `json:"gain"`
}

// PlaceResponse is the /v1/place result: the layout, the placed-vs-
// uniform comparison, and the §6 thresholds for the placed fleet.
type PlaceResponse struct {
	Scenario        scenario.Echo     `json:"scenario"` // N = total placed fleet
	Classes         []placement.Class `json:"classes"`
	GridCols        int               `json:"grid_cols"`
	GridRows        int               `json:"grid_rows"`
	Trials          int               `json:"trials"`
	Candidates      int               `json:"candidates"`
	Sensors         []PlacedSensor    `json:"sensors"`
	PlacedProb      float64           `json:"placed_prob"`
	PlacedCILo      float64           `json:"placed_ci_lo"`
	PlacedCIHi      float64           `json:"placed_ci_hi"`
	UniformProb     float64           `json:"uniform_prob"`
	UniformCILo     float64           `json:"uniform_ci_lo"`
	UniformCIHi     float64           `json:"uniform_ci_hi"`
	UniformAnalysis float64           `json:"uniform_analysis"`
	AbsGain         float64           `json:"abs_gain"`
	RelGain         float64           `json:"rel_gain"`
	Evals           int64             `json:"evals"`
	LazyHits        int64             `json:"lazy_hits"`
	KMin            int               `json:"k_min"`
	KMinExact       int               `json:"k_min_exact"`
}

// placeCanonical is the fingerprinted form of a PlaceRequest: scenario
// fully resolved with N canonicalized to the total fleet size, the class
// list always explicit (a nil list resolves to the single scenario-derived
// class), every knob concrete. Seed rides the fingerprint's seed slot.
type placeCanonical struct {
	Scenario    scenario.Echo     `json:"scenario"`
	Classes     []placement.Class `json:"classes"`
	GridCols    int               `json:"grid_cols"`
	GridRows    int               `json:"grid_rows"`
	Trials      int               `json:"trials"`
	FalseAlarmP float64           `json:"false_alarm_p"`
	Budget      float64           `json:"budget"`
	Horizon     int               `json:"horizon"`
	RNG         string            `json:"rng,omitempty"`
}

// placeConfig translates a PlaceRequest into a placement configuration
// resolved by the placement package (every default spelled out, so the
// canonical form below is a direct copy of its fields) and its fleet
// size. Workers is pinned to 1: intra-request parallelism is the
// admission pool's job, and placement results are worker-count-
// independent anyway.
func (s *Server) placeConfig(req PlaceRequest) (placement.Config, int, error) {
	p, err := resolveScenario(req.Scenario)
	if err != nil {
		return placement.Config{}, 0, err
	}
	if req.GridCols < 0 || req.GridCols > placeMaxGrid || req.GridRows < 0 || req.GridRows > placeMaxGrid {
		return placement.Config{}, 0, fmt.Errorf("grid %dx%d: each axis must be in [1, %d]: %w",
			req.GridCols, req.GridRows, placeMaxGrid, ErrRequest)
	}
	if len(req.Classes) > placeMaxClasses {
		return placement.Config{}, 0, fmt.Errorf("%d classes, limit %d: %w", len(req.Classes), placeMaxClasses, ErrTooLarge)
	}
	if req.Trials < 0 || req.Trials > s.cfg.MaxTrials {
		return placement.Config{}, 0, fmt.Errorf("trials = %d must be in [0, %d]: %w", req.Trials, s.cfg.MaxTrials, ErrRequest)
	}
	if req.Horizon > maxHorizon {
		return placement.Config{}, 0, fmt.Errorf("horizon = %d exceeds the limit %d: %w", req.Horizon, maxHorizon, ErrTooLarge)
	}
	scheme, err := s.resolveRNG(req.RNG)
	if err != nil {
		return placement.Config{}, 0, err
	}
	cfg, total, err := placement.Config{
		Base:        p,
		Classes:     req.Classes,
		GridCols:    req.GridCols,
		GridRows:    req.GridRows,
		Trials:      req.Trials,
		Seed:        req.Seed,
		RNG:         scheme,
		Workers:     1,
		FalseAlarmP: req.FalseAlarmP,
		FAHorizon:   req.Horizon,
		FABudget:    req.Budget,
	}.Resolve()
	if err != nil {
		return placement.Config{}, 0, err
	}
	// The bounded scenario is the whole placed fleet's, at each class's
	// sensing range.
	for _, cl := range cfg.Classes {
		p := cfg.Base.WithN(total)
		p.Rs = cl.Rs
		if err := checkSize(p); err != nil {
			return placement.Config{}, 0, err
		}
	}
	// The report-count matrix is trials x classes x cells of uint16; cap
	// its area so one request cannot pin unbounded memory.
	if cells := int64(cfg.GridCols) * int64(cfg.GridRows) * int64(len(cfg.Classes)) * int64(cfg.Trials); cells > placeMaxCells {
		return placement.Config{}, 0, fmt.Errorf("grid x classes x trials = %d cells, limit %d: %w",
			cells, placeMaxCells, ErrTooLarge)
	}
	return cfg, total, nil
}

// placeKey validates a PlaceRequest and returns its resolved placement
// config, fleet size, and cache key.
func (s *Server) placeKey(req PlaceRequest) (placement.Config, int, string, error) {
	cfg, total, err := s.placeConfig(req)
	if err != nil {
		return cfg, 0, "", err
	}
	// Canonicalize: N is the fleet size whether it arrived via scenario.n
	// or a class list, and every default is spelled out.
	echo := scenario.NewEcho(cfg.Base)
	echo.N = total
	canon := placeCanonical{
		Scenario: echo, Classes: cfg.Classes,
		GridCols: cfg.GridCols, GridRows: cfg.GridRows, Trials: cfg.Trials,
		FalseAlarmP: cfg.FalseAlarmP, Budget: cfg.FABudget, Horizon: cfg.FAHorizon,
		RNG: cfg.RNG.Canonical(),
	}
	key, err := cacheKey("/v1/place", canon, req.Seed)
	return cfg, total, key, err
}

// computePlace runs the placement engine for a validated request.
func (s *Server) computePlace(ctx context.Context, cfg placement.Config, total int) (*PlaceResponse, error) {
	res, err := placement.PlaceCtx(ctx, cfg)
	if err != nil {
		return nil, err
	}
	echo := scenario.NewEcho(cfg.Base)
	echo.N = total
	sensors := make([]PlacedSensor, len(res.Sensors))
	for i, sn := range res.Sensors {
		sensors[i] = PlacedSensor{X: sn.Pos.X, Y: sn.Pos.Y, Class: sn.Class, Gain: sn.Gain}
	}
	c := res.VsUniform
	return &PlaceResponse{
		Scenario: echo, Classes: cfg.Classes,
		GridCols: cfg.GridCols, GridRows: cfg.GridRows,
		Trials: res.Trials, Candidates: res.Candidates,
		Sensors:    sensors,
		PlacedProb: c.PlacedProb, PlacedCILo: c.PlacedCI.Lo, PlacedCIHi: c.PlacedCI.Hi,
		UniformProb: c.UniformProb, UniformCILo: c.UniformCI.Lo, UniformCIHi: c.UniformCI.Hi,
		UniformAnalysis: c.UniformAnalysis,
		AbsGain:         c.AbsGain, RelGain: c.RelGain,
		Evals: res.Evals, LazyHits: res.LazyHits,
		KMin: res.KMin, KMinExact: res.KMinExact,
	}, nil
}
