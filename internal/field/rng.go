// Package field provides the deployment substrate for the simulator:
// deterministic random number utilities, uniform sensor deployment, and a
// uniform-grid spatial index for range queries along a target track.
package field

import (
	"errors"
	"fmt"
	"math/rand"
)

// ErrRNGScheme reports an unknown RNG scheme name or value.
var ErrRNGScheme = errors.New("field: unknown rng scheme")

// RNGScheme selects how a campaign turns (seed, trial) into a random
// stream. The zero value is the legacy scheme, so existing configs,
// wire requests, and checkpoints keep their meaning (and their exact
// bit streams) unless a caller opts in to the counter-based scheme.
type RNGScheme int

const (
	// SchemeLegacy reseeds math/rand's lagged-Fibonacci generator with
	// DeriveSeed(seed, trial) per trial — the original scheme, and the
	// default. Its stream is math/rand's, bit for bit; the reseed runs on
	// legacySource, whose Seed fills the 607-word vector from a table of
	// powers (about 2 µs) instead of 1 841 sequential Park–Miller steps.
	SchemeLegacy RNGScheme = iota
	// SchemePhilox derives trial streams from the Philox4×32-10
	// counter-based generator: key = seed, counter = trial. Stream setup
	// is O(1), which removes the per-trial reseed floor. Draws differ
	// from SchemeLegacy, so results are reproducible per scheme, not
	// across schemes.
	SchemePhilox
)

// String returns the canonical scheme name used in flags, wire requests,
// and checkpoint fingerprints.
func (s RNGScheme) String() string {
	switch s {
	case SchemeLegacy:
		return "legacy"
	case SchemePhilox:
		return "philox"
	}
	return fmt.Sprintf("rngscheme(%d)", int(s))
}

// Canonical is the scheme's spelling in cache keys, checkpoint
// fingerprints and the requests a coordinator forwards: empty for legacy,
// so keys and checkpoints from before the scheme existed stay valid, and
// the scheme name otherwise.
func (s RNGScheme) Canonical() string {
	if s == SchemeLegacy {
		return ""
	}
	return s.String()
}

// Validate rejects scheme values outside the known set.
func (s RNGScheme) Validate() error {
	switch s {
	case SchemeLegacy, SchemePhilox:
		return nil
	}
	return fmt.Errorf("%w: %d", ErrRNGScheme, int(s))
}

// ParseRNGScheme maps a scheme name to its value. The empty string is
// the legacy scheme, matching the zero value of omitted config and wire
// fields.
func ParseRNGScheme(name string) (RNGScheme, error) {
	switch name {
	case "", "legacy":
		return SchemeLegacy, nil
	case "philox":
		return SchemePhilox, nil
	}
	return SchemeLegacy, fmt.Errorf("%w: %q", ErrRNGScheme, name)
}

// splitMix64 advances a SplitMix64 state and returns the next output. It is
// the standard seed-derivation mixer: consecutive stream indices produce
// decorrelated 64-bit values.
func splitMix64(state uint64) uint64 {
	state += 0x9e3779b97f4a7c15
	z := state
	z = (z ^ (z >> 30)) * 0xbf58476d1ce4e5b9
	z = (z ^ (z >> 27)) * 0x94d049bb133111eb
	return z ^ (z >> 31)
}

// DeriveSeed deterministically derives an independent child seed from a base
// seed and a stream index. Simulation trials use it so that trial i is
// reproducible regardless of how trials are scheduled across workers.
func DeriveSeed(base int64, stream int64) int64 {
	mixed := splitMix64(uint64(base)*0x9e3779b97f4a7c15 + uint64(stream))
	return int64(mixed)
}

// NewRand returns a deterministic *rand.Rand for the given seed. It draws
// exactly what rand.New(rand.NewSource(seed)) draws, reseeds included.
func NewRand(seed int64) *rand.Rand {
	src := new(legacySource)
	src.Seed(seed)
	return rand.New(src)
}

// Stream is a reusable generator that can be pointed at any (seed, id)
// stream under either scheme without allocating: SchemeLegacy reseeds one
// lagged-Fibonacci generator with DeriveSeed(seed, id), yielding the same
// draws as NewRand(DeriveSeed(seed, id)) (a 607-word fill, about 2 µs);
// SchemePhilox resets the counter words of one Philox, the O(1) seek the
// counter-based scheme exists for.
// The id is whatever the caller's determinism contract keys draws on — a
// trial index, or a trial's stream channel. Not safe for concurrent use.
type Stream struct {
	legacy  *rand.Rand
	philox  Philox
	philoxR *rand.Rand // rand.New(&philox), built once
}

// NewStream returns a Stream; position it with At before drawing.
func NewStream() *Stream {
	s := &Stream{legacy: NewRand(0)}
	s.philoxR = rand.New(&s.philox)
	return s
}

// At positions the stream at (seed, id) under scheme and returns the
// generator to draw from.
func (s *Stream) At(scheme RNGScheme, seed, id int64) *rand.Rand {
	if scheme == SchemePhilox {
		s.philox.Reset(seed, id)
		return s.philoxR
	}
	s.legacy.Seed(DeriveSeed(seed, id))
	return s.legacy
}

// Philox is the concrete generator behind At under SchemePhilox. Its
// direct Float64 and Float64s calls advance the same stream, draw for
// draw, as the *rand.Rand At returned, without the interface hop.
func (s *Stream) Philox() *Philox { return &s.philox }
