package faults

import (
	"math"
	"math/rand"
	"slices"
	"testing"

	"github.com/groupdetect/gbd/internal/field"
	"github.com/groupdetect/gbd/internal/geom"
)

func deployment(t *testing.T, n int, bounds geom.Rect, seed int64) []geom.Point {
	t.Helper()
	pts, err := field.Uniform(n, bounds, field.NewRand(seed))
	if err != nil {
		t.Fatal(err)
	}
	return pts
}

// masks draws model's death periods and expands them into alive[t][i],
// whether node i is alive in period t+1: the per-period masks the kernel
// walks.
func masks(t *testing.T, model Model, nodes []geom.Point, bounds geom.Rect, periods int, rng *rand.Rand) [][]bool {
	t.Helper()
	deaths, err := model.Deaths(nil, nodes, bounds, periods, rng)
	if err != nil {
		t.Fatal(err)
	}
	if len(deaths) != len(nodes) {
		t.Fatalf("%d death periods for %d nodes", len(deaths), len(nodes))
	}
	out := make([][]bool, periods)
	for p := range out {
		out[p] = make([]bool, len(nodes))
		for i, d := range deaths {
			if d < 1 || d > periods+1 {
				t.Fatalf("node %d death period %d outside [1, %d]", i, d, periods+1)
			}
			out[p][i] = p+1 < d
		}
	}
	return out
}

// aliveFraction is the fraction of true entries in a mask.
func aliveFraction(mask []bool) float64 {
	alive := 0
	for _, a := range mask {
		if a {
			alive++
		}
	}
	return float64(alive) / float64(len(mask))
}

func TestNoneKeepsEveryoneAlive(t *testing.T) {
	bounds := geom.Square(1000)
	nodes := deployment(t, 50, bounds, 1)
	for t2, m := range masks(t, None{}, nodes, bounds, 5, field.NewRand(2)) {
		if aliveFraction(m) != 1 {
			t.Errorf("period %d alive fraction %v", t2+1, aliveFraction(m))
		}
	}
}

func TestBernoulliDeadFraction(t *testing.T) {
	bounds := geom.Square(1000)
	nodes := deployment(t, 5000, bounds, 3)
	masks := masks(t, Bernoulli{DeadFrac: 0.3}, nodes, bounds, 4, field.NewRand(4))
	got := aliveFraction(masks[0])
	if math.Abs(got-0.7) > 0.03 {
		t.Errorf("alive fraction %v, want ~0.7", got)
	}
	// Death is decided once: the mask is constant across periods.
	for p := 1; p < len(masks); p++ {
		for i := range masks[p] {
			if masks[p][i] != masks[0][i] {
				t.Fatalf("period %d mask differs from period 1", p+1)
			}
		}
	}
}

func TestBernoulliValidation(t *testing.T) {
	bounds := geom.Square(100)
	nodes := deployment(t, 3, bounds, 5)
	if _, err := (Bernoulli{DeadFrac: 1.5}).Deaths(nil, nodes, bounds, 3, field.NewRand(1)); err == nil {
		t.Error("dead fraction > 1 should fail")
	}
	if _, err := (Bernoulli{DeadFrac: math.NaN()}).Deaths(nil, nodes, bounds, 3, field.NewRand(1)); err == nil {
		t.Error("NaN dead fraction should fail")
	}
	if _, err := (Bernoulli{DeadFrac: 0.5}).Deaths(nil, nodes, bounds, 0, field.NewRand(1)); err == nil {
		t.Error("zero periods should fail")
	}
}

func TestLifetimeMonotoneAndGeometric(t *testing.T) {
	bounds := geom.Square(1000)
	nodes := deployment(t, 4000, bounds, 6)
	const hazard = 0.1
	masks := masks(t, Lifetime{Hazard: hazard}, nodes, bounds, 10, field.NewRand(7))
	prev := 1.0
	for p, m := range masks {
		frac := aliveFraction(m)
		if frac > prev {
			t.Fatalf("period %d alive fraction %v rose above %v", p+1, frac, prev)
		}
		want := math.Pow(1-hazard, float64(p+1))
		if math.Abs(frac-want) > 0.03 {
			t.Errorf("period %d alive fraction %v, want ~%v", p+1, frac, want)
		}
		prev = frac
	}
	// Once dead, stays dead.
	for p := 1; p < len(masks); p++ {
		for i := range masks[p] {
			if masks[p][i] && !masks[p-1][i] {
				t.Fatalf("node %d resurrected at period %d", i, p+1)
			}
		}
	}
}

func TestBlobKillsDiskFromEventPeriod(t *testing.T) {
	bounds := geom.Square(1000)
	// A 3x3 grid of known positions.
	var nodes []geom.Point
	for _, x := range []float64{100, 500, 900} {
		for _, y := range []float64{100, 500, 900} {
			nodes = append(nodes, geom.Point{X: x, Y: y})
		}
	}
	center := geom.Point{X: 500, Y: 500}
	masks := masks(t, Blob{Radius: 450, At: 3, Center: &center}, nodes, bounds, 5, field.NewRand(8))
	for i := range nodes {
		inBlast := nodes[i].Dist(center) <= 450
		for p := range masks {
			wantAlive := !(inBlast && p >= 2) // periods 3..5 post-event
			if masks[p][i] != wantAlive {
				t.Errorf("node %d period %d alive = %v, want %v", i, p+1, masks[p][i], wantAlive)
			}
		}
	}
}

func TestBlobRandomCenterDeterministicPerSeed(t *testing.T) {
	bounds := geom.Square(1000)
	nodes := deployment(t, 200, bounds, 9)
	a := masks(t, Blob{Radius: 300}, nodes, bounds, 4, field.NewRand(10))
	b := masks(t, Blob{Radius: 300}, nodes, bounds, 4, field.NewRand(10))
	for p := range a {
		for i := range a[p] {
			if a[p][i] != b[p][i] {
				t.Fatal("same seed produced different masks")
			}
		}
	}
}

func TestComposeIntersects(t *testing.T) {
	bounds := geom.Square(1000)
	nodes := deployment(t, 2000, bounds, 11)
	model := Compose{Bernoulli{DeadFrac: 0.2}, Bernoulli{DeadFrac: 0.2}}
	got := aliveFraction(masks(t, model, nodes, bounds, 3, field.NewRand(12))[0])
	if math.Abs(got-0.64) > 0.04 {
		t.Errorf("composed alive fraction %v, want ~0.64", got)
	}
	if _, err := (Compose{}).Deaths(nil, nodes, bounds, 3, field.NewRand(1)); err == nil {
		t.Error("empty composition should fail")
	}
}

// perRowMasks is the per-period mask construction Bernoulli (hazard < 0:
// no per-period draws) and Lifetime used before death periods replaced
// masks, drawing in the same order: the reference the death periods must
// reproduce bit for bit.
func perRowMasks(n, periods int, initialDead, hazard float64, rng *rand.Rand) [][]bool {
	alive := make([]bool, n)
	for i := range alive {
		alive[i] = rng.Float64() >= initialDead
	}
	masks := make([][]bool, periods)
	for t := range masks {
		for i := range alive {
			if hazard >= 0 && alive[i] && rng.Float64() < hazard {
				alive[i] = false
			}
		}
		masks[t] = append([]bool(nil), alive...)
	}
	return masks
}

// perRowBlob is the per-period mask construction of Blob, drawing the
// center the same way.
func perRowBlob(nodes []geom.Point, bounds geom.Rect, radius float64, at, periods int, rng *rand.Rand) [][]bool {
	center := geom.Point{
		X: bounds.MinX + rng.Float64()*(bounds.MaxX-bounds.MinX),
		Y: bounds.MinY + rng.Float64()*(bounds.MaxY-bounds.MinY),
	}
	masks := make([][]bool, periods)
	for t := range masks {
		masks[t] = make([]bool, len(nodes))
		for i, p := range nodes {
			masks[t][i] = t < at-1 || p.Dist2(center) > radius*radius
		}
	}
	return masks
}

// TestDeathsMatchPerRowMasks: the death periods of a composition of every
// drawing model expand to the per-period masks the models drew before,
// bit for bit, and a buffer passed back is reused.
func TestDeathsMatchPerRowMasks(t *testing.T) {
	bounds := geom.Square(1000)
	nodes := deployment(t, 300, bounds, 13)
	const periods = 6
	var buf []int
	for seed := int64(1); seed <= 5; seed++ {
		model := Compose{Bernoulli{DeadFrac: 0.2}, Lifetime{Hazard: 0.1, InitialDeadFrac: 0.05}, Blob{Radius: 300, At: 4}}
		got := masks(t, model, nodes, bounds, periods, field.NewRand(seed))
		ref := field.NewRand(seed)
		want := perRowMasks(len(nodes), periods, 0.2, -1, ref)
		life := perRowMasks(len(nodes), periods, 0.05, 0.1, ref)
		blob := perRowBlob(nodes, bounds, 300, 4, periods, ref)
		for tt := range want {
			for i := range want[tt] {
				want[tt][i] = want[tt][i] && life[tt][i] && blob[tt][i]
			}
		}
		for tt := range want {
			if !slices.Equal(got[tt], want[tt]) {
				t.Fatalf("seed %d period %d: death-period mask differs from the per-row one", seed, tt+1)
			}
		}
		deaths, err := model.Deaths(buf, nodes, bounds, periods, field.NewRand(seed))
		if err != nil {
			t.Fatal(err)
		}
		if buf != nil && &deaths[0] != &buf[0] {
			t.Errorf("seed %d: a returned buffer passed back was not reused", seed)
		}
		buf = deaths
	}
}
