package scenario

import (
	"encoding/json"
	"fmt"
	"os"
	"time"

	"github.com/groupdetect/gbd/internal/detect"
)

// File is the scenario file schema Marshal and Save write. Durations are
// strings ("1m30s") for human editing, and unlike a request's
// period_seconds they round-trip every nanosecond exactly.
type File struct {
	N             int     `json:"sensors"`
	FieldSideM    float64 `json:"fieldSideMeters"`
	RsM           float64 `json:"sensingRangeMeters"`
	SpeedMPS      float64 `json:"targetSpeedMPS"`
	SensingPeriod string  `json:"sensingPeriod"`
	Pd            float64 `json:"detectionProb"`
	WindowM       int     `json:"windowPeriods"`
	ThresholdK    int     `json:"reportThreshold"`
}

// params converts the file schema and validates it.
func (f File) params() (detect.Params, error) {
	t, err := time.ParseDuration(f.SensingPeriod)
	if err != nil {
		return detect.Params{}, fmt.Errorf("sensing period %q: %v", f.SensingPeriod, err)
	}
	p := detect.Params{
		N:         f.N,
		FieldSide: f.FieldSideM,
		Rs:        f.RsM,
		V:         f.SpeedMPS,
		T:         t,
		Pd:        f.Pd,
		M:         f.WindowM,
		K:         f.ThresholdK,
	}
	return p, p.Validate()
}

// Marshal encodes params as indented JSON in the file schema.
func Marshal(p detect.Params) ([]byte, error) {
	if err := p.Validate(); err != nil {
		return nil, err
	}
	return json.MarshalIndent(File{
		N:             p.N,
		FieldSideM:    p.FieldSide,
		RsM:           p.Rs,
		SpeedMPS:      p.V,
		SensingPeriod: p.T.String(),
		Pd:            p.Pd,
		WindowM:       p.M,
		ThresholdK:    p.K,
	}, "", "  ")
}

// Unmarshal decodes and validates a scenario object in either spelling:
// the file schema ({"sensors":240,...}, every key required) or the
// request spelling ({"n":240}, omitted keys take detect.Defaults, so {}
// is the default scenario). Decoding is strict, as for HTTP request
// bodies: an unknown key, trailing data, or an object mixing the two
// spellings is an ErrScenario.
func Unmarshal(data []byte) (detect.Params, error) {
	// encoding/json allocates an embedded pointer only when one of its
	// keys appears, so which pointers are set says which spelling was used.
	var either struct {
		*File
		*Scenario
	}
	if err := decodeStrict(data, &either); err != nil {
		return detect.Params{}, err
	}
	var p detect.Params
	var err error
	switch {
	case either.File != nil && either.Scenario != nil:
		return detect.Params{}, fmt.Errorf("%w: the object mixes file-schema and request-spelling keys", ErrScenario)
	case either.File != nil:
		p, err = either.File.params()
	case either.Scenario != nil:
		p, err = either.Scenario.Params()
	default: // {} holds no key of either spelling: the default scenario
		p, err = Scenario{}.Params()
	}
	if err != nil {
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
