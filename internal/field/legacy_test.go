package field

import (
	"math"
	"math/rand"
	"testing"
)

// legacySeeds are the seeds the differential test runs: the edges of
// the seed normalisation (0 and every multiple of 2³¹−1 map to the same
// replacement seed, negative seeds fold up by 2³¹−1) and a few hundred
// trial seeds as the kernel derives them.
func legacySeeds() []int64 {
	seeds := []int64{
		0, 1, -1,
		mersenne31, -mersenne31, 2 * mersenne31,
		mersenne31 - 1, mersenne31 + 1, lfZeroSeed,
		math.MinInt64, math.MaxInt64,
	}
	for i := int64(0); i < 300; i++ {
		seeds = append(seeds, DeriveSeed(i%7, i))
	}
	return seeds
}

// legacyDraws are the draw counts around the generator's two lags: the
// first draw that reads a stored word (274), the first that wraps the
// feed (335), and the first that rereads a word it wrote (608).
var legacyDraws = []int{0, 1, 272, 273, 274, 334, 335, 607, 608, 2000}

// TestLegacySourceMatchesMathRand is the differential gate of the legacy
// stream: NewRand(seed) and rand.New(rand.NewSource(seed)) must agree,
// draw for draw, under every rand.Rand call the simulator makes, and
// again after a reseed of a generator that has already drawn.
func TestLegacySourceMatchesMathRand(t *testing.T) {
	calls := []struct {
		name string
		draw func(r *rand.Rand, n int) []uint64
	}{
		{"Uint64", repeat(func(r *rand.Rand) uint64 { return r.Uint64() })},
		{"Int63", repeat(func(r *rand.Rand) uint64 { return uint64(r.Int63()) })},
		{"Float64", repeat(func(r *rand.Rand) uint64 { return math.Float64bits(r.Float64()) })},
		{"Intn", repeat(func(r *rand.Rand) uint64 { return uint64(r.Intn(1_000_000_007)) })},
		{"Perm", func(r *rand.Rand, n int) []uint64 {
			out := make([]uint64, n)
			for i, v := range r.Perm(n) {
				out[i] = uint64(v)
			}
			return out
		}},
		{"reseed", func(r *rand.Rand, n int) []uint64 {
			for range n {
				r.Uint64()
			}
			r.Seed(int64(n) - 5)
			return repeat(func(r *rand.Rand) uint64 { return r.Uint64() })(r, lfLen+1)
		}},
	}
	for _, c := range calls {
		for _, seed := range legacySeeds() {
			for _, n := range legacyDraws {
				got := c.draw(NewRand(seed), n)
				want := c.draw(rand.New(rand.NewSource(seed)), n)
				for i := range want {
					if got[i] != want[i] {
						t.Fatalf("%s seed %d, %d draws: draw %d = %#x, math/rand %#x", c.name, seed, n, i, got[i], want[i])
					}
				}
			}
		}
	}
}

// repeat turns one draw into a call that makes n of them.
func repeat(one func(r *rand.Rand) uint64) func(r *rand.Rand, n int) []uint64 {
	return func(r *rand.Rand, n int) []uint64 {
		out := make([]uint64, n)
		for i := range out {
			out[i] = one(r)
		}
		return out
	}
}

// FuzzLegacySource checks the legacy stream against math/rand at any
// seed and draw count, then once more after reseeding both generators
// with the count mixed into the seed.
func FuzzLegacySource(f *testing.F) {
	f.Add(int64(0), uint16(0))
	f.Add(int64(1), uint16(608))
	f.Add(int64(-mersenne31), uint16(335))
	f.Add(int64(math.MinInt64), uint16(2000))
	f.Fuzz(func(t *testing.T, seed int64, draws uint16) {
		got, want := NewRand(seed), rand.New(rand.NewSource(seed))
		for round := range 2 {
			for i := range int(draws) {
				if a, b := got.Uint64(), want.Uint64(); a != b {
					t.Fatalf("seed %d round %d draw %d: %#x, math/rand %#x", seed, round, i, a, b)
				}
			}
			seed ^= int64(draws) << 17
			got.Seed(seed)
			want.Seed(seed)
		}
	})
}
