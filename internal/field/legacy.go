package field

import "math/rand"

// legacySource is math/rand's additive lagged-Fibonacci generator
// (rngSource) with a cheaper Seed: the same seeded vector, the same draws,
// bit for bit, for every seed.
//
// rngSource.Seed walks the Park–Miller generator x ← 48271·x mod 2³¹−1
// through 1 841 sequential steps and builds word i of its 607-word vector
// from x₂₁₊₃ᵢ, x₂₂₊₃ᵢ and x₂₃₊₃ᵢ, XORed with a fixed "cooked" word. Since
// xₖ = s·48271ᵏ mod 2³¹−1, Seed here computes each xₖ as one independent
// product against legacyPow, with no dependency chain between steps.
//
// The cooked table is not copied from math/rand: init recovers it from
// the first 607 outputs of rand.NewSource(1), so math/rand stays the one
// definition of the stream.
type legacySource struct {
	tap, feed int
	vec       [lfLen]uint64
}

const (
	lfLen = 607 // words in the generator's state vector
	lfTap = 273 // lag of the second tap

	// mersenne31 is the Park–Miller modulus 2³¹−1.
	mersenne31 = 1<<31 - 1
	// lfSkip is how many Park–Miller steps Seed discards before word 0.
	lfSkip = 20
	// lfZeroSeed replaces a seed that is 0 mod 2³¹−1, as rngSource does.
	lfZeroSeed = 89482311
)

var (
	// legacyPow[k] = 48271ᵏ mod 2³¹−1, for every k that Seed reads.
	legacyPow [lfSkip + 1 + 3*lfLen]uint64
	// legacyCooked is rngSource's cooked table.
	legacyCooked [lfLen]uint64
)

func init() {
	legacyPow[0] = 1
	for k := 1; k < len(legacyPow); k++ {
		legacyPow[k] = mulMod31(legacyPow[k-1], 48271)
	}

	// o[n] is the n-th draw (1-based) of math/rand at seed 1, and v the
	// vector it was seeded with. Draw n adds the word at feed 334−n (mod
	// 607) to the word at tap 607−n and stores the sum at feed, so every
	// seeded word is one draw minus a word that is either still seeded
	// or was stored by draw n−273.
	ref := rand.NewSource(1).(rand.Source64)
	var o [lfLen + 1]uint64
	for n := 1; n <= lfLen; n++ {
		o[n] = ref.Uint64()
	}
	var v [lfLen]uint64
	for n := 335; n <= lfLen; n++ {
		v[941-n] = o[n] - o[n-lfTap]
	}
	for n := 1; n <= lfTap; n++ {
		v[334-n] = o[n] - v[607-n]
	}
	for n := lfTap + 1; n <= 334; n++ {
		v[334-n] = o[n] - o[n-lfTap]
	}
	// Seeding while legacyCooked is still zero yields the uncooked words.
	var plain legacySource
	plain.Seed(1)
	for i := range legacyCooked {
		legacyCooked[i] = v[i] ^ plain.vec[i]
	}
}

// mulMod31 returns a·b mod 2³¹−1 for a, b < 2³¹ by Mersenne reduction.
// The result is never 0 for nonzero a and b, since the modulus is prime.
func mulMod31(a, b uint64) uint64 {
	t := a * b
	t = t&mersenne31 + t>>31
	if t >= mersenne31 {
		t -= mersenne31
	}
	return t
}

// Seed positions the generator at seed exactly as rand.NewSource(seed).
func (r *legacySource) Seed(seed int64) {
	r.tap = 0
	r.feed = lfLen - lfTap
	seed %= mersenne31
	if seed < 0 {
		seed += mersenne31
	}
	if seed == 0 {
		seed = lfZeroSeed
	}
	s := uint64(seed)
	pow := legacyPow[lfSkip+1:]
	for i := range r.vec {
		p := pow[3*i : 3*i+3 : 3*i+3]
		u := mulMod31(s, p[0])<<40 ^ mulMod31(s, p[1])<<20 ^ mulMod31(s, p[2])
		r.vec[i] = u ^ legacyCooked[i]
	}
}

// Uint64 returns the next 64-bit draw.
func (r *legacySource) Uint64() uint64 {
	r.tap--
	if r.tap < 0 {
		r.tap += lfLen
	}
	r.feed--
	if r.feed < 0 {
		r.feed += lfLen
	}
	x := r.vec[r.feed] + r.vec[r.tap]
	r.vec[r.feed] = x
	return x
}

// Int63 returns the next draw with its top bit cleared.
func (r *legacySource) Int63() int64 {
	return int64(r.Uint64() & (1<<63 - 1))
}
