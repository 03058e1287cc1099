package numeric

import "math"

// Kahan is a compensated (Kahan-Babuska) accumulator. The zero value is an
// empty sum ready to use. It keeps a running compensation term so that long
// sums of small probabilities do not lose mass to rounding.
type Kahan struct {
	sum float64
	c   float64
}

// Add accumulates x into the sum.
func (k *Kahan) Add(x float64) {
	t := k.sum + x
	if math.Abs(k.sum) >= math.Abs(x) {
		k.c += (k.sum - t) + x
	} else {
		k.c += (x - t) + k.sum
	}
	k.sum = t
}

// Sum returns the compensated total.
func (k *Kahan) Sum() float64 { return k.sum + k.c }

// SumSlice returns the compensated sum of xs.
func SumSlice(xs []float64) float64 {
	var k Kahan
	for _, x := range xs {
		k.Add(x)
	}
	return k.Sum()
}
