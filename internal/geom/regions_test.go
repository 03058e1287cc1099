package geom

import (
	"math"
	"math/rand"
	"testing"
	"testing/quick"

	"github.com/groupdetect/gbd/internal/numeric"
)

func mustGeometry(t *testing.T, rs, vt float64) DRGeometry {
	t.Helper()
	g, err := NewDRGeometry(rs, vt)
	if err != nil {
		t.Fatalf("NewDRGeometry(%v, %v): %v", rs, vt, err)
	}
	return g
}

func TestNewDRGeometryValidation(t *testing.T) {
	bad := [][2]float64{
		{0, 1}, {1, 0}, {-1, 1}, {1, -1},
		{math.NaN(), 1}, {1, math.NaN()}, {math.Inf(1), 1}, {1, math.Inf(1)},
		{1000, 6e-298}, {1000, 5e-324}, // ms = ceil(2 rs/vt) no int holds
	}
	for _, b := range bad {
		if _, err := NewDRGeometry(b[0], b[1]); err == nil {
			t.Errorf("NewDRGeometry(%v, %v) should fail", b[0], b[1])
		}
	}
}

func TestMsPaperValues(t *testing.T) {
	// ONR defaults: Rs = 1000 m, t = 60 s.
	fast := mustGeometry(t, 1000, 10*60) // V = 10 m/s
	if fast.Ms != 4 {
		t.Errorf("V=10: ms = %d, want 4", fast.Ms)
	}
	slow := mustGeometry(t, 1000, 4*60) // V = 4 m/s
	if slow.Ms != 9 {
		t.Errorf("V=4: ms = %d, want 9", slow.Ms)
	}
	// Exact division: 2Rs/Vt integer.
	exact := mustGeometry(t, 1000, 500)
	if exact.Ms != 4 {
		t.Errorf("exact: ms = %d, want 4", exact.Ms)
	}
}

func TestAreaHLiteralMatchesClosedForm(t *testing.T) {
	cases := []struct{ rs, vt float64 }{
		{1000, 600},  // ONR V=10
		{1000, 240},  // ONR V=4
		{1000, 500},  // exact ms
		{1000, 2500}, // vt > 2rs: ms = 1
		{2, 0.3},     // large ms
	}
	for _, c := range cases {
		g := mustGeometry(t, c.rs, c.vt)
		for i := 0; i <= g.Ms+2; i++ {
			lit := g.AreaH(i)
			closed := g.AreaHClosed(i)
			if !numeric.AlmostEqual(lit, closed, 1e-6, 1e-9) {
				t.Errorf("rs=%v vt=%v AreaH(%d): literal %v, closed %v", c.rs, c.vt, i, lit, closed)
			}
		}
	}
}

func TestAreaHPartitionsDR(t *testing.T) {
	for _, vt := range []float64{600, 240, 500, 1999, 2000, 2500} {
		g := mustGeometry(t, 1000, vt)
		var sum numeric.Kahan
		for i := 1; i <= g.Ms+1; i++ {
			a := g.AreaHClosed(i)
			if a < -1e-9 {
				t.Errorf("vt=%v: AreaH(%d) = %v < 0", vt, i, a)
			}
			sum.Add(a)
		}
		if !numeric.AlmostEqual(sum.Sum(), g.DRArea(), 1e-6, 1e-12) {
			t.Errorf("vt=%v: sum AreaH = %v, DR area = %v", vt, sum.Sum(), g.DRArea())
		}
	}
}

func TestAreaBPartitionsBodyNEDR(t *testing.T) {
	for _, vt := range []float64{600, 240, 500, 2500} {
		g := mustGeometry(t, 1000, vt)
		var sum numeric.Kahan
		for i := 1; i <= g.Ms+1; i++ {
			a := g.AreaB(i)
			if a < -1e-9 {
				t.Errorf("vt=%v: AreaB(%d) = %v < 0", vt, i, a)
			}
			sum.Add(a)
		}
		if !numeric.AlmostEqual(sum.Sum(), g.BodyNEDRArea(), 1e-6, 1e-12) {
			t.Errorf("vt=%v: sum AreaB = %v, body NEDR = %v", vt, sum.Sum(), g.BodyNEDRArea())
		}
	}
}

func TestAreaTPartitionsTailNEDR(t *testing.T) {
	g := mustGeometry(t, 1000, 600)
	for j := 1; j <= g.Ms; j++ {
		var sum numeric.Kahan
		for i := 1; i <= g.Ms+1-j; i++ {
			a := g.AreaT(j, i)
			if a < -1e-9 {
				t.Errorf("AreaT(%d,%d) = %v < 0", j, i, a)
			}
			sum.Add(a)
		}
		if !numeric.AlmostEqual(sum.Sum(), g.BodyNEDRArea(), 1e-6, 1e-12) {
			t.Errorf("j=%d: sum AreaT = %v, want %v", j, sum.Sum(), g.BodyNEDRArea())
		}
	}
}

func TestAreaTOutOfRange(t *testing.T) {
	g := mustGeometry(t, 1000, 600)
	if g.AreaT(0, 1) != 0 || g.AreaT(g.Ms+1, 1) != 0 {
		t.Error("invalid j should give 0")
	}
	if g.AreaT(1, 0) != 0 || g.AreaT(1, g.Ms+1) != 0 {
		t.Error("invalid i should give 0")
	}
	if g.AreaTAll(0) != nil || g.AreaTAll(g.Ms+1) != nil {
		t.Error("invalid j should give nil slice")
	}
}

func TestAllSlicesIndexedFromOne(t *testing.T) {
	g := mustGeometry(t, 1000, 600)
	h := g.AreaHAll()
	if len(h) != g.Ms+2 || h[0] != 0 {
		t.Errorf("AreaHAll = %v", h)
	}
	b := g.AreaBAll()
	if len(b) != g.Ms+2 || b[0] != 0 {
		t.Errorf("AreaBAll = %v", b)
	}
	tt := g.AreaTAll(2)
	if len(tt) != g.Ms || tt[0] != 0 {
		t.Errorf("AreaTAll(2) = %v", tt)
	}
}

func TestRegionsPartitionARegion(t *testing.T) {
	for _, vt := range []float64{600, 240, 500} {
		g := mustGeometry(t, 1000, vt)
		for _, m := range []int{g.Ms + 1, g.Ms + 2, 20, 50} {
			regions, err := g.Regions(m)
			if err != nil {
				t.Fatalf("Regions(%d): %v", m, err)
			}
			var sum numeric.Kahan
			for i := 1; i <= g.Ms+1; i++ {
				if regions[i] < -1e-9 {
					t.Errorf("vt=%v M=%d: Region(%d) = %v < 0", vt, m, i, regions[i])
				}
				sum.Add(regions[i])
			}
			if !numeric.AlmostEqual(sum.Sum(), g.ARegionArea(m), 1e-5, 1e-12) {
				t.Errorf("vt=%v M=%d: sum Regions = %v, ARegion = %v", vt, m, sum.Sum(), g.ARegionArea(m))
			}
		}
	}
}

func TestRegionsRequiresMGreaterThanMs(t *testing.T) {
	g := mustGeometry(t, 1000, 600)
	if _, err := g.Regions(g.Ms); err == nil {
		t.Error("Regions(ms) should fail")
	}
}

func TestARegionAreaEdge(t *testing.T) {
	g := mustGeometry(t, 1000, 600)
	if g.ARegionArea(0) != 0 {
		t.Error("M=0 ARegion should be 0")
	}
	if got := g.ARegionArea(1); !numeric.AlmostEqual(got, g.DRArea(), 1e-9, 1e-12) {
		t.Errorf("M=1 ARegion = %v, want DR area %v", got, g.DRArea())
	}
}

// TestRegionsAgainstMonteCarlo validates the whole Eq. (6)/(8)/(10) chain:
// classify uniformly sampled points by how many of the M periods they cover
// the target (geometric ground truth via segment distances) and compare the
// measured subarea of each coverage count with Regions(i).
func TestRegionsAgainstMonteCarlo(t *testing.T) {
	if testing.Short() {
		t.Skip("Monte Carlo validation skipped in -short mode")
	}
	cases := []struct {
		rs, vt float64
		m      int
	}{
		{2, 1, 8},    // ms = 4, like ONR V=10 scaled down
		{2, 0.5, 12}, // ms = 8
		{1, 3, 5},    // ms = 1 (very fast target)
	}
	rng := rand.New(rand.NewSource(99))
	for _, c := range cases {
		g := mustGeometry(t, c.rs, c.vt)
		regions, err := g.Regions(c.m)
		if err != nil {
			t.Fatal(err)
		}
		line := NewLine(straightTrack(Point{0, 0}, Vec{c.vt, 0}, c.m))
		bounds := Rect{-c.rs, -c.rs, float64(c.m)*c.vt + c.rs, c.rs}
		boxArea := bounds.Area()
		const samples = 600_000
		counts := make([]int, g.Ms+2)
		for i := 0; i < samples; i++ {
			p := Point{
				X: bounds.MinX + rng.Float64()*(bounds.MaxX-bounds.MinX),
				Y: bounds.MinY + rng.Float64()*(bounds.MaxY-bounds.MinY),
			}
			first, last := line.Cover(p, c.rs)
			cov := max(last-first+1, 0)
			if cov > g.Ms+1 {
				t.Fatalf("coverage %d exceeds ms+1 = %d", cov, g.Ms+1)
			}
			counts[cov]++
		}
		for i := 1; i <= g.Ms+1; i++ {
			measured := boxArea * float64(counts[i]) / samples
			// MC standard error is about sqrt(p/n)*boxArea; allow 4 sigma.
			p := float64(counts[i]) / samples
			tol := 4*boxArea*math.Sqrt(p/(samples)) + 1e-6
			if math.Abs(measured-regions[i]) > tol {
				t.Errorf("rs=%v vt=%v M=%d Region(%d): MC %v, closed %v (tol %v)",
					c.rs, c.vt, c.m, i, measured, regions[i], tol)
			}
		}
	}
}

func TestCoverPeriodsZeroOutsideARegion(t *testing.T) {
	line := NewLine(straightTrack(Point{0, 0}, Vec{1, 0}, 10))
	// Far away point never covers.
	if first, last := line.Cover(Point{100, 100}, 1); first <= last {
		t.Errorf("far sensor covers periods %d..%d", first, last)
	}
	// A sensor on the track covers at least one period.
	if first, last := line.Cover(Point{2.5, 0}, 1); first > last {
		t.Errorf("on-track sensor covers periods %d..%d", first, last)
	}
}

func TestAreaPropertiesRandom(t *testing.T) {
	f := func(rsRaw, vtRaw float64) bool {
		rs := 0.5 + math.Abs(math.Mod(rsRaw, 10))
		vt := 0.1 + math.Abs(math.Mod(vtRaw, 10))
		g, err := NewDRGeometry(rs, vt)
		if err != nil {
			return false
		}
		var sumH, sumB numeric.Kahan
		for i := 1; i <= g.Ms+1; i++ {
			h := g.AreaHClosed(i)
			b := g.AreaB(i)
			if h < -1e-9 || b < -1e-9 {
				return false
			}
			sumH.Add(h)
			sumB.Add(b)
		}
		return numeric.AlmostEqual(sumH.Sum(), g.DRArea(), 1e-6, 1e-9) &&
			numeric.AlmostEqual(sumB.Sum(), g.BodyNEDRArea(), 1e-6, 1e-9)
	}
	cfg := &quick.Config{MaxCount: 300, Rand: rand.New(rand.NewSource(8))}
	if err := quick.Check(f, cfg); err != nil {
		t.Error(err)
	}
}
