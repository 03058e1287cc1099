package field

// Philox4×32-10 (Salmon et al., "Parallel random numbers: as easy as
// 1, 2, 3", SC'11) — the counter-based generator behind SchemePhilox.
// The generator is a keyed bijection over a 128-bit counter: key = the
// campaign seed, counter high half = the trial index, counter low half =
// the block index within the trial. Any trial's stream is therefore
// computable in O(1) with zero heap state — pointing a pooled scratch at
// a new trial resets two words instead of running the ~1 KiB lagged-
// Fibonacci reseed that rand.Rand.Seed performs.

// Philox round constants: the two multipliers and the Weyl key schedule
// increments from the reference Random123 implementation.
const (
	philoxM0 = 0xD2511F53
	philoxM1 = 0xCD9E8D57
	philoxW0 = 0x9E3779B9 // golden ratio
	philoxW1 = 0xBB67AE85 // sqrt(3)-1
)

// philoxBlock applies the 10-round Philox4×32 bijection to the counter
// (c0, c1, c2, c3) under the key (k0, k1), returning the four output
// words. It is the pure keyed permutation — golden-vector tests check it
// against the Random123 known-answer vectors directly. It takes and
// returns scalars because Go's register ABI passes no array longer than
// one element in registers: [4]uint32 and [2]uint32 would round-trip
// through the stack on every block.
func philoxBlock(c0, c1, c2, c3, k0, k1 uint32) (uint32, uint32, uint32, uint32) {
	// 10 rounds, unrolled in pairs: the round body is four 32×32→64
	// multiplies' worth of ILP, and unrolling keeps the key schedule in
	// registers instead of re-entering a loop carried dependence.
	for r := 0; r < 5; r++ {
		p0 := uint64(c0) * philoxM0
		p1 := uint64(c2) * philoxM1
		c0, c1, c2, c3 = uint32(p1>>32)^c1^k0, uint32(p1), uint32(p0>>32)^c3^k1, uint32(p0)
		k0 += philoxW0
		k1 += philoxW1
		p0 = uint64(c0) * philoxM0
		p1 = uint64(c2) * philoxM1
		c0, c1, c2, c3 = uint32(p1>>32)^c1^k0, uint32(p1), uint32(p0>>32)^c3^k1, uint32(p0)
		k0 += philoxW0
		k1 += philoxW1
	}
	return c0, c1, c2, c3
}

// Philox is a Philox4×32-10 stream positioned at one (seed, trial) pair.
// It implements rand.Source64, so rand.New(&p) yields a *rand.Rand whose
// draws come from the counter-based stream; the concrete Float64 and
// Uint64 methods produce the same values without the interface hop, which
// the simulator's trial kernel exploits in its hot loops.
//
// The zero value is the stream for seed 0, trial 0. Philox is a value
// type with no heap state; copying copies the stream position.
type Philox struct {
	key [2]uint32
	ctr [4]uint32 // ctr[0,1] = block index, ctr[2,3] = trial index
	buf [2]uint64 // one block yields two 64-bit outputs
	i   uint32    // next unread buf entry; 2 = empty
}

// NewPhilox returns a Philox stream for the given campaign seed and trial
// index.
func NewPhilox(seed, trial int64) *Philox {
	p := &Philox{}
	p.Reset(seed, trial)
	return p
}

// Reset points the stream at the start of (seed, trial). It is O(1) —
// this is the whole point of a counter-based generator.
func (p *Philox) Reset(seed, trial int64) {
	p.key[0] = uint32(uint64(seed))
	p.key[1] = uint32(uint64(seed) >> 32)
	p.ctr[0] = 0
	p.ctr[1] = 0
	p.ctr[2] = uint32(uint64(trial))
	p.ctr[3] = uint32(uint64(trial) >> 32)
	p.i = 2
}

// Seed implements rand.Source by resetting to (seed, trial 0).
func (p *Philox) Seed(seed int64) { p.Reset(seed, 0) }

// Uint64 returns the next 64 bits of the stream (rand.Source64).
func (p *Philox) Uint64() uint64 {
	if p.i >= 2 {
		b0, b1, b2, b3 := philoxBlock(p.ctr[0], p.ctr[1], p.ctr[2], p.ctr[3], p.key[0], p.key[1])
		p.buf[0] = uint64(b0) | uint64(b1)<<32
		p.buf[1] = uint64(b2) | uint64(b3)<<32
		// 64-bit block-counter increment over ctr[0,1]; a trial would need
		// 2^65 draws to overflow into the trial-index words.
		p.ctr[0]++
		if p.ctr[0] == 0 {
			p.ctr[1]++
		}
		p.i = 0
	}
	v := p.buf[p.i]
	p.i++
	return v
}

// Int63 implements rand.Source with the same truncation rand.Rand applies
// to a Source64, so draws through rand.New(p) and direct calls agree.
func (p *Philox) Int63() int64 { return int64(p.Uint64() >> 1) }

// Float64 returns a float64 in [0, 1), replicating rand.Rand.Float64's
// exact construction (including the f == 1 rejection of math/rand's
// documented historical quirk) so that direct calls in the trial kernel
// are draw-for-draw identical to calls through a *rand.Rand wrapper.
func (p *Philox) Float64() float64 {
	for {
		f := float64(p.Int63()) / (1 << 63)
		if f != 1 {
			return f
		}
	}
}

// Float64s fills dst with the next len(dst) Float64 draws, bit-identical
// to calling Float64 that many times but with the block generation and
// output buffering inlined into one loop — the simulator's trial kernel
// uses it for the ~2N deployment draws per trial, where per-call overhead
// would otherwise rival the Philox rounds themselves. Multiplying by the
// exactly representable 2^-63 is the same correctly rounded operation as
// Float64's division by 2^63.
func (p *Philox) Float64s(dst []float64) {
	i, buf := p.i, p.buf
	for k := range dst {
	draw:
		if i >= 2 {
			b0, b1, b2, b3 := philoxBlock(p.ctr[0], p.ctr[1], p.ctr[2], p.ctr[3], p.key[0], p.key[1])
			buf[0] = uint64(b0) | uint64(b1)<<32
			buf[1] = uint64(b2) | uint64(b3)<<32
			p.ctr[0]++
			if p.ctr[0] == 0 {
				p.ctr[1]++
			}
			i = 0
		}
		f := float64(int64(buf[i]>>1)) * (1.0 / (1 << 63))
		i++
		if f == 1 {
			goto draw
		}
		dst[k] = f
	}
	p.i, p.buf = i, buf
}
