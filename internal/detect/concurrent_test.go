package detect

import (
	"context"
	"runtime"
	"testing"

	"github.com/groupdetect/gbd/internal/sweep"
)

// sweepPoint is one analysis request in the concurrent cache hammer: a
// scenario plus the >=h-nodes extension order (0 = plain MSApproach).
type sweepPoint struct {
	p Params
	h int
}

// cacheHammerGrid builds a parameter grid that exercises every memo map —
// areas, stage PMFs, joints, and both small-window maps — and repeats it so
// later repetitions must hit entries the first one populated.
func cacheHammerGrid() []sweepPoint {
	var pts []sweepPoint
	for rep := 0; rep < 3; rep++ {
		for _, n := range []int{60, 120} {
			for _, m := range []int{1, 3, 10, 20} { // ms = 4: both regimes
				p := Defaults().WithN(n).WithM(m)
				pts = append(pts, sweepPoint{p: p})
				pts = append(pts, sweepPoint{p: p, h: 2})
			}
		}
	}
	return pts
}

func analyzePoint(pt sweepPoint) (float64, error) {
	opt := MSOptions{Gh: 4, G: 4}
	if pt.h > 0 {
		res, err := MSApproachNodes(pt.p, pt.h, opt)
		if err != nil {
			return 0, err
		}
		return res.DetectionProb, nil
	}
	res, err := MSApproach(pt.p, opt)
	if err != nil {
		return 0, err
	}
	return res.DetectionProb, nil
}

// cacheTraffic snapshots every cache metric group as (lookups, hits,
// misses) triples, in a fixed order.
func cacheTraffic() [5][3]uint64 {
	groups := [5]cacheMetrics{
		areaMemo.metrics, pmfMemos.stages.metrics, jointMemos.stages.metrics,
		pmfMemos.heads.metrics, jointMemos.heads.metrics,
	}
	var out [5][3]uint64
	for i, g := range groups {
		out[i] = [3]uint64{g.lookups.Value(), g.hits.Value(), g.misses.Value()}
	}
	return out
}

// TestConcurrentSweepCacheConsistency hammers the analysis entry points
// from GOMAXPROCS goroutines and checks two things the race detector alone
// cannot: the concurrent results are bit-identical to a sequential run, and
// the cache accounting balances (every lookup resolved to exactly one hit
// or miss, with no increments lost to races).
func TestConcurrentSweepCacheConsistency(t *testing.T) {
	pts := cacheHammerGrid()
	run := func(workers int) []float64 {
		t.Helper()
		rep, err := sweep.Run(context.Background(), sweep.Options{Workers: workers}, pts,
			func(_ context.Context, _ int, pt sweepPoint) (float64, error) { return analyzePoint(pt) })
		if err != nil {
			t.Fatal(err)
		}
		return rep.Results
	}

	seq := run(1)
	before := cacheTraffic()
	par := run(runtime.GOMAXPROCS(0))
	after := cacheTraffic()

	for i := range seq {
		if seq[i] != par[i] {
			t.Errorf("point %d (%+v): concurrent %v != sequential %v", i, pts[i], par[i], seq[i])
		}
	}
	names := [5]string{"areas", "pmfs", "joints", "smallheads", "smalljoints"}
	sawTraffic := false
	for i, name := range names {
		lookups := after[i][0] - before[i][0]
		hits := after[i][1] - before[i][1]
		misses := after[i][2] - before[i][2]
		if hits+misses != lookups {
			t.Errorf("cache %s: hits %d + misses %d != lookups %d", name, hits, misses, lookups)
		}
		if lookups > 0 {
			sawTraffic = true
		}
	}
	if !sawTraffic {
		t.Error("concurrent sweep generated no cache traffic; grid is not exercising the caches")
	}
}
