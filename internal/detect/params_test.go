package detect

import (
	"errors"
	"math"
	"testing"
	"time"

	"github.com/groupdetect/gbd/internal/numeric"
)

func TestDefaultsValid(t *testing.T) {
	p := Defaults()
	if err := p.Validate(); err != nil {
		t.Fatalf("Defaults invalid: %v", err)
	}
	if p.M != 20 || p.K != 5 || p.Pd != 0.9 {
		t.Errorf("unexpected defaults: %+v", p)
	}
}

func TestValidateRejects(t *testing.T) {
	base := Defaults()
	cases := []struct {
		name string
		mut  func(*Params)
	}{
		{"negative N", func(p *Params) { p.N = -1 }},
		{"zero field", func(p *Params) { p.FieldSide = 0 }},
		{"inf field", func(p *Params) { p.FieldSide = math.Inf(1) }},
		{"zero Rs", func(p *Params) { p.Rs = 0 }},
		{"negative V", func(p *Params) { p.V = -1 }},
		{"zero T", func(p *Params) { p.T = 0 }},
		{"zero Pd", func(p *Params) { p.Pd = 0 }},
		{"Pd > 1", func(p *Params) { p.Pd = 1.01 }},
		{"zero M", func(p *Params) { p.M = 0 }},
		{"zero K", func(p *Params) { p.K = 0 }},
		{"Rs too large", func(p *Params) { p.Rs = 20000 }},
		{"NaN Rs", func(p *Params) { p.Rs = math.NaN() }},
	}
	for _, tc := range cases {
		p := base
		tc.mut(&p)
		if err := p.Validate(); err == nil {
			t.Errorf("%s: expected error", tc.name)
		}
	}
}

// TestValidateMsOverflow: ms = ⌈2Rs/(V·t)⌉ is checked in floating point,
// so a speed too small for ms to fit an int is an ErrParams, not a wrapped
// negative ms that panics the first table sized by it.
func TestValidateMsOverflow(t *testing.T) {
	vFor := func(ms float64) float64 { return 2 * 1000 / (ms * 60) } // Rs 1000, t 1 min
	cases := []struct {
		name string
		v    float64
		t    time.Duration
		ok   bool
	}{
		{"V 1e-300", 1e-300, time.Minute, false},
		{"V·t underflows to 0", 5e-324, time.Nanosecond, false},
		{"ms 2^64", vFor(0x1p64), time.Minute, false},
		{"ms 1e19", vFor(1e19), time.Minute, false},
		{"ms 2^62", vFor(0x1p62), time.Minute, true},
		{"ms 1e6", vFor(1e6), time.Minute, true},
		{"defaults", 10, time.Minute, true},
	}
	for _, tc := range cases {
		p := Defaults()
		p.V, p.T = tc.v, tc.t
		err := p.Validate()
		if tc.ok && err != nil {
			t.Errorf("%s: %v", tc.name, err)
		}
		if !tc.ok && !errors.Is(err, ErrParams) {
			t.Errorf("%s: got %v, want ErrParams", tc.name, err)
		}
	}
}

func TestDerivedQuantities(t *testing.T) {
	p := Defaults()
	if got := p.Vt(); got != 600 {
		t.Errorf("Vt = %v, want 600", got)
	}
	if got := p.FieldArea(); got != 32000.0*32000.0 {
		t.Errorf("FieldArea = %v", got)
	}
	if got := p.Ms(); got != 4 {
		t.Errorf("Ms = %d, want 4", got)
	}
	if got := p.WithV(4).Ms(); got != 9 {
		t.Errorf("Ms at V=4 = %d, want 9", got)
	}
	// p_indi = Pd * (2*Rs*Vt + pi*Rs^2) / S.
	want := 0.9 * (2*1000*600 + math.Pi*1000*1000) / (32000.0 * 32000.0)
	if got := p.PIndi(); !numeric.AlmostEqual(got, want, 1e-15, 1e-12) {
		t.Errorf("PIndi = %v, want %v", got, want)
	}
	if d := p.Density(); !numeric.AlmostEqual(d, 120*math.Pi*1e6/1.024e9, 1e-12, 1e-12) {
		t.Errorf("Density = %v", d)
	}
	if d := p.Density(); d >= 1 {
		t.Errorf("ONR deployment should be sparse, density = %v", d)
	}
}

func TestWithHelpers(t *testing.T) {
	p := Defaults()
	if q := p.WithN(99); q.N != 99 || p.N != 120 {
		t.Error("WithN should copy")
	}
	if q := p.WithV(4); q.V != 4 {
		t.Error("WithV failed")
	}
	if q := p.WithK(7); q.K != 7 {
		t.Error("WithK failed")
	}
	if q := p.WithM(30); q.M != 30 {
		t.Error("WithM failed")
	}
}

func TestMsInvalidParams(t *testing.T) {
	p := Defaults()
	p.Rs = -1
	if p.Ms() != 0 {
		t.Error("invalid params should give Ms 0")
	}
	if p.PIndi() != 0 {
		t.Error("invalid params should give PIndi 0")
	}
	if p.Density() != 0 {
		t.Error("invalid Rs gives zero circle area, so zero density")
	}
}

func TestSinglePeriod(t *testing.T) {
	p := Defaults()
	pmf, err := SinglePeriod(p)
	if err != nil {
		t.Fatal(err)
	}
	if len(pmf) != p.N+1 {
		t.Errorf("support = %d, want N+1 = %d", len(pmf), p.N+1)
	}
	if !numeric.AlmostEqual(pmf.Total(), 1, 1e-10, 1e-10) {
		t.Errorf("total = %v", pmf.Total())
	}
	if !numeric.AlmostEqual(pmf.Mean(), float64(p.N)*p.PIndi(), 1e-9, 1e-9) {
		t.Errorf("mean = %v, want %v", pmf.Mean(), float64(p.N)*p.PIndi())
	}
	tail, err := SinglePeriodTail(p, 1)
	if err != nil {
		t.Fatal(err)
	}
	if !numeric.AlmostEqual(tail, pmf.Tail(1), 1e-12, 1e-10) {
		t.Errorf("tail = %v, pmf tail = %v", tail, pmf.Tail(1))
	}
	// In a sparse network, two simultaneous reports are rare (the paper's
	// motivation for M > 1).
	twoPlus, err := SinglePeriodTail(p, 2)
	if err != nil {
		t.Fatal(err)
	}
	if twoPlus > 0.1 {
		t.Errorf("P[X >= 2 in one period] = %v, expected rare", twoPlus)
	}
}

func TestSinglePeriodErrors(t *testing.T) {
	bad := Defaults()
	bad.N = -1
	if _, err := SinglePeriod(bad); err == nil {
		t.Error("invalid params should fail")
	}
	if _, err := SinglePeriodTail(bad, 1); err == nil {
		t.Error("invalid params should fail")
	}
	// Huge DR: p_indi would exceed 1.
	huge := Defaults()
	huge.FieldSide = 2100
	huge.Rs = 1000
	huge.V = 1000
	huge.T = time.Hour
	if _, err := SinglePeriod(huge); err == nil {
		t.Error("p_indi > 1 should fail")
	}
	if _, err := SinglePeriodTail(huge, 1); err == nil {
		t.Error("p_indi > 1 should fail")
	}
}
