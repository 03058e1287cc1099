package placement

import (
	"context"
	"errors"
	"math"
	"reflect"
	"testing"

	"github.com/groupdetect/gbd/internal/detect"
	"github.com/groupdetect/gbd/internal/field"
	"github.com/groupdetect/gbd/internal/obs"
	"github.com/groupdetect/gbd/internal/sim"
)

// testConfig is a fast-but-real scenario: the ONR geometry with a reduced
// panel and grid so the whole suite stays in the sub-second range.
func testConfig() Config {
	p := detect.Defaults()
	p.N = 40
	return Config{
		Base:     p,
		GridCols: 16, GridRows: 16,
		Trials: 400,
		Seed:   1,
	}
}

func TestPlaceBeatsUniform(t *testing.T) {
	for _, scheme := range []field.RNGScheme{field.SchemeLegacy, field.SchemePhilox} {
		cfg := testConfig()
		cfg.RNG = scheme
		res, err := Place(cfg)
		if err != nil {
			t.Fatalf("%v: %v", scheme, err)
		}
		if len(res.Sensors) != 40 {
			t.Fatalf("%v: placed %d sensors, want 40", scheme, len(res.Sensors))
		}
		c := res.VsUniform
		if c.PlacedProb < c.UniformProb {
			t.Errorf("%v: placed %.4f < uniform %.4f — optimizer loses to random",
				scheme, c.PlacedProb, c.UniformProb)
		}
		if c.AbsGain != c.PlacedProb-c.UniformProb {
			t.Errorf("%v: AbsGain %.6f inconsistent", scheme, c.AbsGain)
		}
		if c.UniformAnalysis <= 0 || c.UniformAnalysis > 1 {
			t.Errorf("%v: UniformAnalysis = %v", scheme, c.UniformAnalysis)
		}
		// The paired uniform baseline should agree with the analytical
		// model to Monte Carlo accuracy.
		if math.Abs(c.UniformProb-c.UniformAnalysis) > 0.1 {
			t.Errorf("%v: uniform sim %.4f vs analysis %.4f disagree beyond MC noise",
				scheme, c.UniformProb, c.UniformAnalysis)
		}
		if res.KMin < 1 || res.KMinExact < 1 || res.KMinExact > res.KMin {
			t.Errorf("%v: kmin=%d kmin_exact=%d", scheme, res.KMin, res.KMinExact)
		}
		if res.Evals <= 0 || res.LazyHits <= 0 {
			t.Errorf("%v: evals=%d lazy_hits=%d — lazy queue not engaged", scheme, res.Evals, res.LazyHits)
		}
	}
}

// plainGreedy is the reference O(rounds * patterns * trials)
// implementation: every round re-evaluates every usable pattern and picks
// the best under the same (gain, pattern index) order the heap uses.
func plainGreedy(e *engine) []int {
	nCands := len(e.cands)
	nPatterns := len(e.cfg.Classes) * nCands
	cur := make([]int32, e.cfg.Trials)
	remaining := make([]int, len(e.cfg.Classes))
	for i, cl := range e.cfg.Classes {
		remaining[i] = cl.Count
	}
	candUsed := make([]bool, nCands)
	var picks []int
	for len(picks) < e.total {
		best, bestGain := -1, int32(-1)
		for j := 0; j < nPatterns; j++ {
			if candUsed[j%nCands] || remaining[j/nCands] == 0 {
				continue
			}
			if g := e.marginalGain(j, cur); g > bestGain {
				best, bestGain = j, g
			}
		}
		row := e.counts[best*e.cfg.Trials : (best+1)*e.cfg.Trials]
		for t := range cur {
			cur[t] += int32(row[t])
		}
		candUsed[best%nCands] = true
		remaining[best/nCands]--
		picks = append(picks, best)
	}
	return picks
}

func TestLazyGreedyMatchesPlainGreedy(t *testing.T) {
	cases := []Config{
		// K=1: the objective is a genuine coverage function (submodular),
		// so lazy and plain greedy provably coincide.
		func() Config {
			c := testConfig()
			c.Base.K = 1
			c.Base.N = 12
			return c
		}(),
		// The paper's K=5 rule on a mixed fleet (fixed seed instance).
		{
			Base: detect.Defaults().WithN(12),
			Classes: []Class{
				{Count: 8, Rs: 1000, Pd: 0.9},
				{Count: 4, Rs: 2000, Pd: 0.7},
			},
			GridCols: 10, GridRows: 10,
			Trials: 300,
			Seed:   7,
		},
	}
	for i, cfg := range cases {
		res, err := Place(cfg)
		if err != nil {
			t.Fatalf("case %d: %v", i, err)
		}
		full, total, err := cfg.Resolve()
		if err != nil {
			t.Fatalf("case %d: %v", i, err)
		}
		eng, err := newEngine(context.Background(), full, total)
		if err != nil {
			t.Fatalf("case %d: %v", i, err)
		}
		picks := plainGreedy(eng)
		if len(picks) != len(res.Sensors) {
			t.Fatalf("case %d: %d vs %d selections", i, len(picks), len(res.Sensors))
		}
		nCands := full.GridCols * full.GridRows
		for s, j := range picks {
			got := res.Sensors[s]
			if got.Class != j/nCands || got.Pos != eng.cands[j%nCands] {
				t.Fatalf("case %d: selection %d differs: lazy (class %d, %v) vs plain (class %d, %v)",
					i, s, got.Class, got.Pos, j/nCands, eng.cands[j%nCands])
			}
		}
	}
}

// bruteForceBest evaluates every size-`budget` candidate subset exactly
// and returns the best detected-trial count.
func bruteForceBest(e *engine, budget int) int {
	nCands := len(e.cands)
	cur := make([]int32, e.cfg.Trials)
	k := int32(e.cfg.Base.K)
	best := 0
	subset := make([]int, budget)
	var walk func(start, depth int)
	walk = func(start, depth int) {
		if depth == budget {
			detected := 0
			for _, c := range cur {
				if c >= k {
					detected++
				}
			}
			if detected > best {
				best = detected
			}
			return
		}
		for cand := start; cand < nCands; cand++ {
			row := e.counts[cand*e.cfg.Trials : (cand+1)*e.cfg.Trials]
			for t := range cur {
				cur[t] += int32(row[t])
			}
			subset[depth] = cand
			walk(cand+1, depth+1)
			for t := range cur {
				cur[t] -= int32(row[t])
			}
		}
	}
	walk(0, 0)
	return best
}

func TestGreedyNearOptimalOnBruteForceableInstances(t *testing.T) {
	// Tiny single-class instances where exhaustive search is feasible:
	// 5x5 grid, budget 3 -> C(25,3) = 2300 subsets.
	for _, k := range []int{1, 2} {
		p := detect.Defaults()
		p.N = 3
		p.K = k
		p.Rs = 3000 // widen sensing so a 3-sensor fleet detects something
		cfg := Config{Base: p, GridCols: 5, GridRows: 5, Trials: 250, Seed: 3}
		res, err := Place(cfg)
		if err != nil {
			t.Fatalf("K=%d: %v", k, err)
		}
		full, total, err := cfg.Resolve()
		if err != nil {
			t.Fatal(err)
		}
		eng, err := newEngine(context.Background(), full, total)
		if err != nil {
			t.Fatal(err)
		}
		opt := bruteForceBest(eng, total)
		got := int(math.Round(res.VsUniform.PlacedProb * float64(cfg.Trials)))
		if opt == 0 {
			t.Fatalf("K=%d: degenerate instance, OPT=0", k)
		}
		// Greedy on a monotone submodular objective (K=1 exactly; K=2 on
		// this fixed-seed instance) guarantees (1-1/e)*OPT.
		bound := (1 - 1/math.E) * float64(opt)
		if float64(got) < bound {
			t.Errorf("K=%d: greedy %d < (1-1/e)*OPT = %.2f (OPT %d)", k, got, bound, opt)
		}
	}
}

func TestBitIdenticalAcrossWorkers(t *testing.T) {
	for _, scheme := range []field.RNGScheme{field.SchemeLegacy, field.SchemePhilox} {
		var baseline *Result
		for _, workers := range []int{1, 4, 0} { // 0 = GOMAXPROCS
			cfg := testConfig()
			cfg.Base.N = 15
			cfg.Trials = 250
			cfg.RNG = scheme
			cfg.Workers = workers
			res, err := Place(cfg)
			if err != nil {
				t.Fatalf("%v workers=%d: %v", scheme, workers, err)
			}
			if baseline == nil {
				baseline = res
				continue
			}
			if !reflect.DeepEqual(baseline, res) {
				t.Errorf("%v: result at workers=%d differs from workers=1", scheme, workers)
			}
		}
	}
}

func TestSchemesDiffer(t *testing.T) {
	// The two schemes are different generators; identical results would
	// mean the scheme knob is not plumbed through.
	a, err := Place(testConfig())
	if err != nil {
		t.Fatal(err)
	}
	cfg := testConfig()
	cfg.RNG = field.SchemePhilox
	b, err := Place(cfg)
	if err != nil {
		t.Fatal(err)
	}
	if reflect.DeepEqual(a.VsUniform, b.VsUniform) {
		t.Error("legacy and philox runs produced identical comparisons")
	}
}

// TestPlaceCountsNoKernelTrials: placement runs its trials on sim's
// executor, but sim.trials counts kernel trials only (the serving
// benchmark reads it per layer), so a solve at any worker count must
// leave it where it was, while a kernel campaign moves it.
func TestPlaceCountsNoKernelTrials(t *testing.T) {
	trials := obs.Default.Counter("sim.trials")
	for _, workers := range []int{1, 4} {
		cfg := testConfig()
		cfg.Workers = workers
		before := trials.Value()
		if _, err := Place(cfg); err != nil {
			t.Fatal(err)
		}
		if got := trials.Value() - before; got != 0 {
			t.Errorf("workers=%d: Place moved sim.trials by %d, want 0", workers, got)
		}
	}
	before := trials.Value()
	if _, err := sim.Run(sim.Config{Params: detect.Defaults(), Trials: 10, Workers: 1}); err != nil {
		t.Fatal(err)
	}
	if got := trials.Value() - before; got != 10 {
		t.Errorf("a 10-trial campaign moved sim.trials by %d, want 10", got)
	}
}

func TestPlaceCtxCancel(t *testing.T) {
	ctx, cancel := context.WithCancel(context.Background())
	cancel()
	if _, err := PlaceCtx(ctx, testConfig()); !errors.Is(err, context.Canceled) {
		t.Errorf("want context.Canceled, got %v", err)
	}
}

func TestConfigValidation(t *testing.T) {
	bad := []func(*Config){
		func(c *Config) { c.Base.N = 0 },                     // zero budget
		func(c *Config) { c.GridCols, c.GridRows = 4, 4 },    // budget > candidates
		func(c *Config) { c.Trials = -1 },                    // bad trials
		func(c *Config) { c.Workers = -2 },                   // bad workers
		func(c *Config) { c.Classes = []Class{{Count: -1}} }, // bad class
		func(c *Config) { c.RNG = field.RNGScheme(9) },       // bad scheme
		func(c *Config) { c.FalseAlarmP = 2 },                // bad Pf
		func(c *Config) { c.FalseAlarmP = math.NaN() },       // NaN Pf
		func(c *Config) {
			c.Classes = []Class{{Count: 5, Rs: -1, Pd: 0.9}} // bad class Rs
		},
	}
	for i, mutate := range bad {
		cfg := testConfig()
		mutate(&cfg)
		if _, _, err := cfg.Resolve(); err == nil {
			t.Errorf("case %d: invalid config accepted", i)
		}
	}
	if _, _, err := testConfig().Resolve(); err != nil {
		t.Errorf("valid config rejected: %v", err)
	}
}

func TestMixedClassBudgets(t *testing.T) {
	cfg := Config{
		Base: detect.Defaults(),
		Classes: []Class{
			{Count: 10, Rs: 1000, Pd: 0.9},
			{Count: 5, Rs: 2500, Pd: 0.6},
		},
		GridCols: 12, GridRows: 12,
		Trials: 300,
		Seed:   2,
	}
	res, err := Place(cfg)
	if err != nil {
		t.Fatal(err)
	}
	byClass := map[int]int{}
	seen := map[[2]float64]bool{}
	for _, s := range res.Sensors {
		byClass[s.Class]++
		key := [2]float64{s.Pos.X, s.Pos.Y}
		if seen[key] {
			t.Fatalf("candidate cell %v placed twice", s.Pos)
		}
		seen[key] = true
	}
	if byClass[0] != 10 || byClass[1] != 5 {
		t.Errorf("per-class placements = %v, want 10 and 5", byClass)
	}
}
