// Package scenario loads and saves surveillance scenarios as JSON so CLI
// runs and experiment configurations are reproducible artifacts. Durations
// are encoded as strings ("1m30s") for human editing, per the style guide's
// field-tag rule for marshaled structs.
package scenario

import (
	"bytes"
	"encoding/json"
	"errors"
	"fmt"
	"io"
	"os"
	"time"

	"github.com/groupdetect/gbd/internal/detect"
)

// ErrScenario reports a malformed scenario file.
var ErrScenario = errors.New("scenario: invalid scenario")

// wire is the on-disk schema.
type wire struct {
	N             int     `json:"sensors"`
	FieldSideM    float64 `json:"fieldSideMeters"`
	RsM           float64 `json:"sensingRangeMeters"`
	SpeedMPS      float64 `json:"targetSpeedMPS"`
	SensingPeriod string  `json:"sensingPeriod"`
	Pd            float64 `json:"detectionProb"`
	WindowM       int     `json:"windowPeriods"`
	ThresholdK    int     `json:"reportThreshold"`
}

// Marshal encodes params as indented JSON.
func Marshal(p detect.Params) ([]byte, error) {
	if err := p.Validate(); err != nil {
		return nil, err
	}
	w := wire{
		N:             p.N,
		FieldSideM:    p.FieldSide,
		RsM:           p.Rs,
		SpeedMPS:      p.V,
		SensingPeriod: p.T.String(),
		Pd:            p.Pd,
		WindowM:       p.M,
		ThresholdK:    p.K,
	}
	return json.MarshalIndent(w, "", "  ")
}

// Unmarshal decodes and validates a scenario. Decoding is strict, as for
// HTTP request bodies: an unknown key (say the typo "sensor") or trailing
// data is an ErrScenario, not a silently zero field.
func Unmarshal(data []byte) (detect.Params, error) {
	var w wire
	dec := json.NewDecoder(bytes.NewReader(data))
	dec.DisallowUnknownFields()
	if err := dec.Decode(&w); err != nil {
		return detect.Params{}, fmt.Errorf("%w: %v", ErrScenario, err)
	}
	if _, err := dec.Token(); err != io.EOF {
		return detect.Params{}, fmt.Errorf("%w: trailing data after the scenario object", ErrScenario)
	}
	t, err := time.ParseDuration(w.SensingPeriod)
	if err != nil {
		return detect.Params{}, fmt.Errorf("%w: sensing period %q: %v", ErrScenario, w.SensingPeriod, err)
	}
	p := detect.Params{
		N:         w.N,
		FieldSide: w.FieldSideM,
		Rs:        w.RsM,
		V:         w.SpeedMPS,
		T:         t,
		Pd:        w.Pd,
		M:         w.WindowM,
		K:         w.ThresholdK,
	}
	if err := p.Validate(); err != nil {
		return detect.Params{}, fmt.Errorf("%w: %v", ErrScenario, err)
	}
	return p, nil
}

// Load reads a scenario file.
func Load(path string) (detect.Params, error) {
	data, err := os.ReadFile(path)
	if err != nil {
		return detect.Params{}, err
	}
	return Unmarshal(data)
}

// Save writes a scenario file.
func Save(path string, p detect.Params) error {
	data, err := Marshal(p)
	if err != nil {
		return err
	}
	return os.WriteFile(path, append(data, '\n'), 0o644)
}
