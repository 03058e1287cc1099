// Package scenario is the one vocabulary for a surveillance scenario
// (detect.Params). Every front end reads a scenario through it:
//
//   - Scenario is the request spelling HTTP bodies carry ("n",
//     "field_side", ...), resolved against the paper's ONR defaults;
//   - Echo is the resolved scenario as responses and cache keys spell it;
//   - BindFlags declares the command-line flags -n/-side/-rs/-v/-t/-pd/-m/-k;
//   - Load and Unmarshal read a JSON scenario file in either the file
//     schema (File) or the request spelling, and Save and Marshal write
//     the file schema (file.go).
package scenario

import (
	"bytes"
	"encoding/json"
	"errors"
	"flag"
	"fmt"
	"io"
	"math"
	"time"

	"github.com/groupdetect/gbd/internal/detect"
)

// The §6 design request's sizing defaults, shared by the gbd-design flags
// and /v1/design: the required detection probability and the largest
// fleet the sizing loop considers.
const (
	DesignTarget = 0.9
	DesignNMax   = 1000
)

// ErrScenario reports a malformed scenario file or request value.
var ErrScenario = errors.New("scenario: invalid scenario")

// Scenario is the request spelling of detect.Params. Every field is
// optional; omitted fields take the paper's ONR defaults
// (detect.Defaults), so the minimal scenario is `{}`. Pointers tell
// "omitted" from an explicit zero, which parameter validation rejects
// rather than silently replaces.
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

// Params resolves the scenario against the defaults and validates it.
// Errors wrap detect.ErrParams.
func (s Scenario) Params() (detect.Params, error) {
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
			return p, fmt.Errorf("period_seconds = %v must be positive and finite: %w", sec, detect.ErrParams)
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

// Decode strictly decodes one request-spelling scenario object and
// checks that it resolves to valid parameters. An unknown key, trailing
// data or an invalid parameter is an ErrScenario.
func Decode(data []byte) (Scenario, error) {
	var s Scenario
	if err := decodeStrict(data, &s); err != nil {
		return s, err
	}
	if _, err := s.Params(); err != nil {
		return s, fmt.Errorf("%w: %v", ErrScenario, err)
	}
	return s, nil
}

// decodeStrict decodes exactly one JSON object into v: an unknown key
// (say the typo "sensor") or trailing data is an ErrScenario, not a
// silently zero field.
func decodeStrict(data []byte, v any) error {
	dec := json.NewDecoder(bytes.NewReader(data))
	dec.DisallowUnknownFields()
	if err := dec.Decode(v); err != nil {
		return fmt.Errorf("%w: %v", ErrScenario, err)
	}
	if _, err := dec.Token(); err != io.EOF {
		return fmt.Errorf("%w: trailing data after the scenario object", ErrScenario)
	}
	return nil
}

// Echo is the fully resolved scenario as responses echo it and cache
// keys fingerprint it: every field concrete, in a fixed order.
type Echo struct {
	N             int     `json:"n"`
	FieldSide     float64 `json:"field_side"`
	Rs            float64 `json:"rs"`
	V             float64 `json:"v"`
	PeriodSeconds float64 `json:"period_seconds"`
	Pd            float64 `json:"pd"`
	M             int     `json:"m"`
	K             int     `json:"k"`
}

// NewEcho spells p as an Echo.
func NewEcho(p detect.Params) Echo {
	return Echo{
		N: p.N, FieldSide: p.FieldSide, Rs: p.Rs, V: p.V,
		PeriodSeconds: p.T.Seconds(), Pd: p.Pd, M: p.M, K: p.K,
	}
}

// AllFlags names every scenario flag BindFlags can declare.
var AllFlags = []string{"n", "side", "rs", "v", "t", "pd", "m", "k"}

// BindFlags declares the named scenario flags on fs, each defaulting to
// its detect.Defaults value, and returns the parameters they fill once
// fs is parsed. Fields whose flag is not named keep their default. It
// panics on a name outside AllFlags, a programming error.
func BindFlags(fs *flag.FlagSet, names ...string) *detect.Params {
	p := detect.Defaults()
	for _, name := range names {
		switch name {
		case "n":
			fs.IntVar(&p.N, name, p.N, "number of sensors")
		case "side":
			fs.Float64Var(&p.FieldSide, name, p.FieldSide, "field side length (m)")
		case "rs":
			fs.Float64Var(&p.Rs, name, p.Rs, "sensing range (m)")
		case "v":
			fs.Float64Var(&p.V, name, p.V, "target speed (m/s)")
		case "t":
			fs.DurationVar(&p.T, name, p.T, "sensing period")
		case "pd":
			fs.Float64Var(&p.Pd, name, p.Pd, "in-range detection probability")
		case "m":
			fs.IntVar(&p.M, name, p.M, "detection window (periods)")
		case "k":
			fs.IntVar(&p.K, name, p.K, "required reports")
		default:
			panic(fmt.Sprintf("scenario: no scenario flag %q", name))
		}
	}
	return &p
}
