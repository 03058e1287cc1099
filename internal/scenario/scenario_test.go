package scenario

import (
	"errors"
	"flag"
	"path/filepath"
	"strings"
	"testing"
	"time"

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
	// The request spelling is as strict as the file schema.
	{"request invalid params", `{"n":240,"k":0}`},
	{"request bad period", `{"period_seconds":-60}`},
	{"request unknown key", `{"n":240,"vv":4}`},
	{"request trailing data", `{"n":240} {"n":120}`},
	// An object mixing the two spellings is neither.
	{"mixed spellings", `{"sensors":240,"fieldSideMeters":32000,"sensingRangeMeters":1000,"targetSpeedMPS":10,"sensingPeriod":"1m","detectionProb":0.9,"windowPeriods":20,"reportThreshold":5,"v":4}`},
	{"mixed partial", `{"n":240,"targetSpeedMPS":4}`},
}

// TestUnmarshalRequestSpelling: a request-spelling object loads like the
// HTTP scenario it spells, omitted keys taking the ONR defaults, and
// equals the file-schema spelling of the same scenario.
func TestUnmarshalRequestSpelling(t *testing.T) {
	want := detect.Defaults().WithN(240).WithV(4)
	for _, data := range []string{
		`{"n":240,"v":4}`,
		`{"v":4,"n":240,"period_seconds":60,"k":5}`,
		`{"sensors":240,"fieldSideMeters":32000,"sensingRangeMeters":1000,"targetSpeedMPS":4,"sensingPeriod":"1m","detectionProb":0.9,"windowPeriods":20,"reportThreshold":5}`,
	} {
		got, err := Unmarshal([]byte(data))
		if err != nil || got != want {
			t.Errorf("Unmarshal(%s) = %+v, %v; want %+v", data, got, err, want)
		}
	}
	if got, err := Unmarshal([]byte(`{}`)); err != nil || got != detect.Defaults() {
		t.Errorf("Unmarshal({}) = %+v, %v; want the defaults", got, err)
	}
}

// TestDecode: the request decoder the coordinator's -scenario uses keeps
// the spelled fields, and rejects what Unmarshal rejects.
func TestDecode(t *testing.T) {
	s, err := Decode([]byte(`{"k":3}`))
	if err != nil || s.K == nil || *s.K != 3 || s.N != nil {
		t.Fatalf("Decode = %+v, %v", s, err)
	}
	for _, data := range []string{`{"k":3} trailing`, `{"k":0}`, `{"sensors":10}`, `{`} {
		if _, err := Decode([]byte(data)); !errors.Is(err, ErrScenario) {
			t.Errorf("Decode(%s): want ErrScenario, got %v", data, err)
		}
	}
}

// TestBindFlags: the bound flags default to detect.Defaults, fill the
// returned parameters when parsed, and leave unbound fields at their
// defaults.
func TestBindFlags(t *testing.T) {
	fs := flag.NewFlagSet("test", flag.ContinueOnError)
	p := BindFlags(fs, "n", "t", "k")
	if err := fs.Parse([]string{"-n", "240", "-t", "90s"}); err != nil {
		t.Fatal(err)
	}
	want := detect.Defaults().WithN(240)
	want.T = 90 * time.Second
	if *p != want {
		t.Errorf("parsed %+v, want %+v", *p, want)
	}
	if fs.Lookup("v") != nil {
		t.Error("-v was bound without being named")
	}
	all := flag.NewFlagSet("all", flag.ContinueOnError)
	BindFlags(all, AllFlags...)
	if all.Lookup("side").DefValue != "32000" || all.Lookup("t").DefValue != "1m0s" {
		t.Errorf("defaults: side %s, t %s", all.Lookup("side").DefValue, all.Lookup("t").DefValue)
	}
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
	f.Add([]byte(`{"n":240,"v":4,"period_seconds":0.0123456789}`))
	f.Add([]byte(`{}`))
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
