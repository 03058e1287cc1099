package scenario

import (
	"errors"
	"path/filepath"
	"strings"
	"testing"

	"github.com/groupdetect/gbd/internal/detect"
)

func TestRoundTrip(t *testing.T) {
	p := detect.Defaults().WithN(240).WithV(4)
	data, err := Marshal(p)
	if err != nil {
		t.Fatal(err)
	}
	if !strings.Contains(string(data), `"sensingPeriod": "1m0s"`) {
		t.Errorf("duration not human-readable:\n%s", data)
	}
	got, err := Unmarshal(data)
	if err != nil {
		t.Fatal(err)
	}
	if got != p {
		t.Errorf("round trip changed params: %+v vs %+v", got, p)
	}
}

func TestMarshalRejectsInvalid(t *testing.T) {
	bad := detect.Defaults()
	bad.N = -1
	if _, err := Marshal(bad); err == nil {
		t.Error("invalid params should fail")
	}
}

// unmarshalErrorCases are malformed scenario files; each must be an
// ErrScenario. FuzzUnmarshal seeds its corpus with them.
var unmarshalErrorCases = []struct {
	name string
	data string
}{
	{"bad json", `{`},
	{"bad duration", `{"sensors":10,"fieldSideMeters":1000,"sensingRangeMeters":10,"targetSpeedMPS":1,"sensingPeriod":"soon","detectionProb":0.9,"windowPeriods":20,"reportThreshold":5}`},
	{"invalid params", `{"sensors":-1,"fieldSideMeters":1000,"sensingRangeMeters":10,"targetSpeedMPS":1,"sensingPeriod":"1m","detectionProb":0.9,"windowPeriods":20,"reportThreshold":5}`},
	// A misspelt key used to load as N = 0, which Validate accepts.
	{"unknown key", `{"sensor":240,"fieldSideMeters":32000,"sensingRangeMeters":1000,"targetSpeedMPS":10,"sensingPeriod":"1m","detectionProb":0.9,"windowPeriods":20,"reportThreshold":5}`},
	{"trailing data", `{"sensors":240,"fieldSideMeters":32000,"sensingRangeMeters":1000,"targetSpeedMPS":10,"sensingPeriod":"1m","detectionProb":0.9,"windowPeriods":20,"reportThreshold":5}}`},
}

func TestUnmarshalErrors(t *testing.T) {
	for _, tc := range unmarshalErrorCases {
		if _, err := Unmarshal([]byte(tc.data)); !errors.Is(err, ErrScenario) {
			t.Errorf("%s: want ErrScenario, got %v", tc.name, err)
		}
	}
}

func TestSaveLoad(t *testing.T) {
	path := filepath.Join(t.TempDir(), "scenario.json")
	p := detect.Defaults()
	if err := Save(path, p); err != nil {
		t.Fatal(err)
	}
	got, err := Load(path)
	if err != nil {
		t.Fatal(err)
	}
	if got != p {
		t.Errorf("Load = %+v, want %+v", got, p)
	}
	if _, err := Load(filepath.Join(t.TempDir(), "missing.json")); err == nil {
		t.Error("missing file should fail")
	}
	if err := Save(filepath.Join(t.TempDir(), "x", "y", "z.json"), p); err == nil {
		t.Error("unwritable path should fail")
	}
	bad := p
	bad.K = 0
	if err := Save(path, bad); err == nil {
		t.Error("invalid params should fail to save")
	}
}

// FuzzUnmarshal checks that no scenario file panics the decoder, that
// every rejection is an ErrScenario, and that every accepted scenario
// survives a Marshal/Unmarshal round trip unchanged.
func FuzzUnmarshal(f *testing.F) {
	seed, err := Marshal(detect.Defaults().WithN(240).WithV(4))
	if err != nil {
		f.Fatal(err)
	}
	f.Add(seed)
	for _, tc := range unmarshalErrorCases {
		f.Add([]byte(tc.data))
	}
	f.Fuzz(func(t *testing.T, data []byte) {
		p, err := Unmarshal(data)
		if err != nil {
			if !errors.Is(err, ErrScenario) {
				t.Fatalf("rejection is not ErrScenario: %v", err)
			}
			return
		}
		out, err := Marshal(p)
		if err != nil {
			t.Fatalf("accepted scenario %+v does not marshal: %v", p, err)
		}
		got, err := Unmarshal(out)
		if err != nil {
			t.Fatalf("marshaled scenario does not load: %v\n%s", err, out)
		}
		if got != p {
			t.Fatalf("round trip changed params: %+v vs %+v", got, p)
		}
	})
}
