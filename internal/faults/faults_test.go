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

func TestNoneKeepsEveryoneAlive(t *testing.T) {
	bounds := geom.Square(1000)
	nodes := deployment(t, 50, bounds, 1)
	masks, err := None{}.Masks(nodes, bounds, 5, field.NewRand(2))
	if err != nil {
		t.Fatal(err)
	}
	if len(masks) != 5 {
		t.Fatalf("periods = %d", len(masks))
	}
	for t2, m := range masks {
		if AliveFraction(m) != 1 {
			t.Errorf("period %d alive fraction %v", t2+1, AliveFraction(m))
		}
	}
}

func TestBernoulliDeadFraction(t *testing.T) {
	bounds := geom.Square(1000)
	nodes := deployment(t, 5000, bounds, 3)
	masks, err := Bernoulli{DeadFrac: 0.3}.Masks(nodes, bounds, 4, field.NewRand(4))
	if err != nil {
		t.Fatal(err)
	}
	got := AliveFraction(masks[0])
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
	if _, err := (Bernoulli{DeadFrac: 1.5}).Masks(nodes, bounds, 3, field.NewRand(1)); err == nil {
		t.Error("dead fraction > 1 should fail")
	}
	if _, err := (Bernoulli{DeadFrac: 0.5}).Masks(nodes, bounds, 0, field.NewRand(1)); err == nil {
		t.Error("zero periods should fail")
	}
}

func TestLifetimeMonotoneAndGeometric(t *testing.T) {
	bounds := geom.Square(1000)
	nodes := deployment(t, 4000, bounds, 6)
	const hazard = 0.1
	masks, err := Lifetime{Hazard: hazard}.Masks(nodes, bounds, 10, field.NewRand(7))
	if err != nil {
		t.Fatal(err)
	}
	prev := 1.0
	for p, m := range masks {
		frac := AliveFraction(m)
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
	masks, err := Blob{Radius: 450, At: 3, Center: &center}.Masks(nodes, bounds, 5, field.NewRand(8))
	if err != nil {
		t.Fatal(err)
	}
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
	a, err := Blob{Radius: 300}.Masks(nodes, bounds, 4, field.NewRand(10))
	if err != nil {
		t.Fatal(err)
	}
	b, err := Blob{Radius: 300}.Masks(nodes, bounds, 4, field.NewRand(10))
	if err != nil {
		t.Fatal(err)
	}
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
	masks, err := model.Masks(nodes, bounds, 3, field.NewRand(12))
	if err != nil {
		t.Fatal(err)
	}
	got := AliveFraction(masks[0])
	if math.Abs(got-0.64) > 0.04 {
		t.Errorf("composed alive fraction %v, want ~0.64", got)
	}
	if _, err := (Compose{}).Masks(nodes, bounds, 3, field.NewRand(1)); err == nil {
		t.Error("empty composition should fail")
	}
}

// perRowMasks is the one-slice-per-period construction Bernoulli (hazard
// < 0: no per-period draws) and Lifetime used before their rows shared a
// backing array, drawing in the same order: the reference the shared layout
// must reproduce bit for bit.
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

// TestSharedRowsMatchPerRowMasks: masks sliced from one backing array equal
// the per-row construction bit for bit, and no row aliases its neighbour —
// a write into, or an append onto, row t leaves row t+1 as it was.
func TestSharedRowsMatchPerRowMasks(t *testing.T) {
	bounds := geom.Square(1000)
	nodes := deployment(t, 300, bounds, 13)
	const periods = 6
	for seed := int64(1); seed <= 5; seed++ {
		model := Compose{Bernoulli{DeadFrac: 0.2}, Lifetime{Hazard: 0.1, InitialDeadFrac: 0.05}}
		got, err := model.Masks(nodes, bounds, periods, field.NewRand(seed))
		if err != nil {
			t.Fatal(err)
		}
		ref := field.NewRand(seed)
		want := perRowMasks(len(nodes), periods, 0.2, -1, ref)
		life := perRowMasks(len(nodes), periods, 0.05, 0.1, ref)
		for tt := range want {
			for i := range want[tt] {
				want[tt][i] = want[tt][i] && life[tt][i]
			}
		}
		for tt := range want {
			if !slices.Equal(got[tt], want[tt]) {
				t.Fatalf("seed %d period %d: shared-row mask differs from the per-row one", seed, tt+1)
			}
		}
		for tt := 0; tt+1 < periods; tt++ {
			next := slices.Clone(got[tt+1])
			for i := range got[tt] {
				got[tt][i] = !got[tt][i]
			}
			_ = append(got[tt], !next[0]) // spills into row t+1 if the rows are uncapped
			if !slices.Equal(got[tt+1], next) {
				t.Fatalf("seed %d: writing row %d changed row %d", seed, tt, tt+1)
			}
		}
	}
}

func TestAliveFractionHelpers(t *testing.T) {
	if AliveFraction(nil) != 1 {
		t.Error("empty mask should count as fully alive")
	}
	if got := AliveFraction([]bool{true, false, true, false}); got != 0.5 {
		t.Errorf("alive fraction %v, want 0.5", got)
	}
}
