package field

import (
	"math"
	"math/rand"
	"testing"
)

// TestPhiloxKnownAnswers checks the raw block function against the
// Random123 reference known-answer vectors for philox4x32-10 (file
// tests/kat_vectors in the reference distribution).
func TestPhiloxKnownAnswers(t *testing.T) {
	cases := []struct {
		ctr  [4]uint32
		key  [2]uint32
		want [4]uint32
	}{
		{
			ctr:  [4]uint32{0, 0, 0, 0},
			key:  [2]uint32{0, 0},
			want: [4]uint32{0x6627e8d5, 0xe169c58d, 0xbc57ac4c, 0x9b00dbd8},
		},
		{
			ctr:  [4]uint32{0xffffffff, 0xffffffff, 0xffffffff, 0xffffffff},
			key:  [2]uint32{0xffffffff, 0xffffffff},
			want: [4]uint32{0x408f276d, 0x41c83b0e, 0xa20bc7c6, 0x6d5451fd},
		},
		{
			ctr:  [4]uint32{0x243f6a88, 0x85a308d3, 0x13198a2e, 0x03707344},
			key:  [2]uint32{0xa4093822, 0x299f31d0},
			want: [4]uint32{0xd16cfe09, 0x94fdcceb, 0x5001e420, 0x24126ea1},
		},
	}
	for i, c := range cases {
		b0, b1, b2, b3 := philoxBlock(c.ctr[0], c.ctr[1], c.ctr[2], c.ctr[3], c.key[0], c.key[1])
		if got := [4]uint32{b0, b1, b2, b3}; got != c.want {
			t.Errorf("vector %d: philoxBlock(%08x, %08x) = %08x, want %08x",
				i, c.ctr, c.key, got, c.want)
		}
	}
}

// TestPhiloxStreamMatchesBlocks pins the Uint64 output layout to the
// block function: block words pair little-endian-wise into two uint64s,
// and the block counter advances by one per block.
func TestPhiloxStreamMatchesBlocks(t *testing.T) {
	const seed, trial = 42, 7
	p := NewPhilox(seed, trial)
	for blk := uint32(0); blk < 4; blk++ {
		b0, b1, b2, b3 := philoxBlock(blk, 0, 7, 0, 42, 0)
		want0 := uint64(b0) | uint64(b1)<<32
		want1 := uint64(b2) | uint64(b3)<<32
		if got := p.Uint64(); got != want0 {
			t.Fatalf("block %d word 0: got %016x, want %016x", blk, got, want0)
		}
		if got := p.Uint64(); got != want1 {
			t.Fatalf("block %d word 1: got %016x, want %016x", blk, got, want1)
		}
	}
}

// TestPhiloxResetIsO1Replay verifies that Reset replays the exact stream
// (the counter-based contract: any trial's stream is recomputable from
// (seed, trial) alone) and that distinct trials and seeds get distinct
// streams.
func TestPhiloxResetIsO1Replay(t *testing.T) {
	p := NewPhilox(3, 100)
	first := make([]uint64, 16)
	for i := range first {
		first[i] = p.Uint64()
	}
	p.Reset(3, 100)
	for i := range first {
		if got := p.Uint64(); got != first[i] {
			t.Fatalf("replay diverged at draw %d: %016x vs %016x", i, got, first[i])
		}
	}
	p.Reset(3, 101)
	if got := p.Uint64(); got == first[0] {
		t.Fatalf("trial 101 repeats trial 100's first draw %016x", got)
	}
	p.Reset(4, 100)
	if got := p.Uint64(); got == first[0] {
		t.Fatalf("seed 4 repeats seed 3's first draw %016x", got)
	}
}

// TestPhiloxThroughRand asserts the bit-identity contract between the
// concrete methods and the same stream consumed through a *rand.Rand
// wrapper: the trial kernel's sense stage calls Float64 directly, its
// other stages go through rand.New, and both must see identical draws.
func TestPhiloxThroughRand(t *testing.T) {
	direct := NewPhilox(9, 4)
	wrapped := rand.New(NewPhilox(9, 4))
	for i := 0; i < 1000; i++ {
		if d, w := direct.Float64(), wrapped.Float64(); d != w {
			t.Fatalf("draw %d: direct Float64 %v != wrapped %v", i, d, w)
		}
	}
	direct.Reset(9, 4)
	wrapped = rand.New(NewPhilox(9, 4))
	for i := 0; i < 1000; i++ {
		if d, w := direct.Int63(), wrapped.Int63(); d != w {
			t.Fatalf("draw %d: direct Int63 %v != wrapped %v", i, d, w)
		}
	}
}

// TestPhiloxFloat64s asserts the bulk fill is bit-identical to repeated
// scalar draws from the same stream position, across fill sizes that
// land on every buffer phase (odd, even, zero, spanning many blocks).
func TestPhiloxFloat64s(t *testing.T) {
	scalar := NewPhilox(5, 77)
	bulk := NewPhilox(5, 77)
	var dst [513]float64
	for _, size := range []int{0, 1, 2, 3, 8, 513} {
		bulk.Float64s(dst[:size])
		for i := 0; i < size; i++ {
			if want := scalar.Float64(); dst[i] != want {
				t.Fatalf("size %d draw %d: bulk %v != scalar %v", size, i, dst[i], want)
			}
		}
	}
	// The streams must remain aligned afterward.
	if b, s := bulk.Uint64(), scalar.Uint64(); b != s {
		t.Fatalf("streams diverged after bulk fills: %016x vs %016x", b, s)
	}
}

// TestPhiloxUniformity is a chi-square smoke test: 64k Float64 draws
// into 64 equiprobable bins. With 63 degrees of freedom the 99.9%
// critical value is ~103.4; a correct generator fails this with
// probability 0.001, and a broken word-packing or off-by-one in the
// counter fails it catastrophically.
func TestPhiloxUniformity(t *testing.T) {
	const (
		bins  = 64
		draws = 1 << 16
	)
	var counts [bins]int
	p := NewPhilox(12345, 0)
	for i := 0; i < draws; i++ {
		f := p.Float64()
		if f < 0 || f >= 1 {
			t.Fatalf("draw %d out of [0,1): %v", i, f)
		}
		counts[int(f*bins)]++
	}
	expect := float64(draws) / bins
	chi2 := 0.0
	for _, c := range counts {
		d := float64(c) - expect
		chi2 += d * d / expect
	}
	if chi2 > 103.4 {
		t.Fatalf("chi-square %v exceeds the 99.9%% critical value 103.4 for %d bins", chi2, bins)
	}
	if math.IsNaN(chi2) {
		t.Fatal("chi-square is NaN")
	}
}

// TestPhiloxSeekStartsAtStageCounter pins the stage layout: after
// Seek(s), from any position, the stream's first block is philoxBlock at
// block index s·2^56 — counter words (0, s<<24, trial) — of the same
// (seed, trial), and Seek(0) replays Reset.
func TestPhiloxSeekStartsAtStageCounter(t *testing.T) {
	const seed, trial = 42, 7
	for _, s := range []uint8{0, 1, 2, 255} {
		p := NewPhilox(seed, trial)
		p.Uint64() // seek from mid-block
		p.Seek(s)
		b0, b1, b2, b3 := philoxBlock(0, uint32(s)<<24, trial, 0, seed, 0)
		if got, want := p.Uint64(), uint64(b0)|uint64(b1)<<32; got != want {
			t.Errorf("stage %d word 0: got %016x, want %016x", s, got, want)
		}
		if got, want := p.Uint64(), uint64(b2)|uint64(b3)<<32; got != want {
			t.Errorf("stage %d word 1: got %016x, want %016x", s, got, want)
		}
	}
	p, ref := NewPhilox(seed, trial), NewPhilox(seed, trial)
	p.Float64()
	p.Seek(0)
	for i := 0; i < 8; i++ {
		if a, b := p.Uint64(), ref.Uint64(); a != b {
			t.Fatalf("Seek(0) draw %d: %016x, Reset %016x", i, a, b)
		}
	}
}

// TestPhiloxStageRangesDisjoint: stage s owns block indices [s·2^56,
// (s+1)·2^56). Seek lands on the range's first index, ranges sit 2^56
// apart up to the last index 2^64−1, and the block counter carries from
// its low word into the high word without touching the stage bits.
func TestPhiloxStageRangesDisjoint(t *testing.T) {
	block := func(p *Philox) uint64 { return uint64(p.ctr[1])<<32 | uint64(p.ctr[0]) }
	var p Philox
	for s := 0; s < 256; s++ {
		p.Seek(uint8(s))
		if got, want := block(&p), uint64(s)<<56; got != want {
			t.Fatalf("Seek(%d) at block %#x, want %#x", s, got, want)
		}
	}
	if last := uint64(255)<<56 + (1<<56 - 1); last != math.MaxUint64 {
		t.Fatalf("stage 255 ends at block %#x, not the last block index", last)
	}
	p.Seek(1)
	p.ctr[0] = math.MaxUint32 // the next two blocks cross the low word's carry
	p.Uint64()
	p.Uint64()
	p.Uint64()
	if got, want := block(&p), uint64(1)<<56+1<<32+1; got != want {
		t.Fatalf("after the carry the stream is at block %#x, want %#x", got, want)
	}
}

// TestPhiloxStageLeavesMainStream: drawing a stage from a copy of the
// stream, between two draws of the main range, leaves the main range's
// outputs unchanged — the kernel's out-of-window sensors rely on it.
func TestPhiloxStageLeavesMainStream(t *testing.T) {
	ref, p := NewPhilox(5, 9), NewPhilox(5, 9)
	want := make([]float64, 10)
	ref.Float64s(want)
	got := make([]float64, 10)
	p.Float64s(got[:3]) // stop mid-block
	rest := *p
	rest.Seek(1)
	var buf [17]float64
	rest.Float64s(buf[:])
	p.Float64s(got[3:])
	for i := range want {
		if got[i] != want[i] {
			t.Fatalf("main draw %d: %v with a stage drawn in between, %v without", i, got[i], want[i])
		}
	}
	if buf[0] == want[3] {
		t.Fatal("the stage range repeats the main range")
	}
}

// TestPhiloxSchemeNames pins the flag/wire names and the zero default.
func TestPhiloxSchemeNames(t *testing.T) {
	var zero RNGScheme
	if zero != SchemeLegacy {
		t.Fatalf("zero RNGScheme = %v, want legacy", zero)
	}
	for _, c := range []struct {
		name string
		want RNGScheme
	}{{"", SchemeLegacy}, {"legacy", SchemeLegacy}, {"philox", SchemePhilox}} {
		got, err := ParseRNGScheme(c.name)
		if err != nil || got != c.want {
			t.Fatalf("ParseRNGScheme(%q) = %v, %v; want %v", c.name, got, err, c.want)
		}
	}
	if _, err := ParseRNGScheme("xorshift"); err == nil {
		t.Fatal("ParseRNGScheme accepted an unknown scheme")
	}
	if err := RNGScheme(99).Validate(); err == nil {
		t.Fatal("Validate accepted scheme 99")
	}
	if SchemeLegacy.String() != "legacy" || SchemePhilox.String() != "philox" {
		t.Fatalf("scheme names: %q, %q", SchemeLegacy, SchemePhilox)
	}
}

func BenchmarkPhiloxReset(b *testing.B) {
	p := NewPhilox(1, 0)
	b.ReportAllocs()
	for i := 0; i < b.N; i++ {
		p.Reset(1, int64(i))
		_ = p.Uint64()
	}
}

func BenchmarkPhiloxFloat64(b *testing.B) {
	p := NewPhilox(1, 0)
	b.ReportAllocs()
	for i := 0; i < b.N; i++ {
		_ = p.Float64()
	}
}

// BenchmarkPhiloxFloat64s is the deploy stage's bulk fill: 300 draws, the
// X and Y of 150 sensors.
func BenchmarkPhiloxFloat64s(b *testing.B) {
	p := NewPhilox(1, 0)
	dst := make([]float64, 300)
	b.ReportAllocs()
	for i := 0; i < b.N; i++ {
		p.Reset(1, int64(i))
		p.Float64s(dst)
	}
}

// TestStreamMatchesFreshGenerators pins Stream's contract: repositioning
// one pooled Stream yields exactly the draws of a fresh generator for the
// same (seed, id) under each scheme, in any order of At calls.
func TestStreamMatchesFreshGenerators(t *testing.T) {
	s := NewStream()
	for _, id := range []int64{3, 0, 3, 77} {
		legacy := s.At(SchemeLegacy, 42, id)
		fresh := NewRand(DeriveSeed(42, id))
		for i := 0; i < 50; i++ {
			if a, b := legacy.Float64(), fresh.Float64(); a != b {
				t.Fatalf("legacy id %d draw %d: %v vs %v", id, i, a, b)
			}
		}
		philox := s.At(SchemePhilox, 42, id)
		direct := NewPhilox(42, id)
		for i := 0; i < 50; i++ {
			if a, b := philox.Float64(), direct.Float64(); a != b {
				t.Fatalf("philox id %d draw %d: %v vs %v", id, i, a, b)
			}
		}
	}
}
