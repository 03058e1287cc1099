package detect

import (
	"errors"
	"sort"
	"strings"
	"testing"

	"github.com/groupdetect/gbd/internal/dist"
	"github.com/groupdetect/gbd/internal/obs"
)

func pmfStages(p Params, gh, g int) (*stages[dist.PMF], error) {
	return pmfMemos.full(p, gh, g, 0, regionSet.reportPMF)
}

func jointStages(p Params, gh, g, ys int) (*stages[dist.Joint], error) {
	return jointMemos.full(p, gh, g, ys, func(r regionSet, g int) (dist.Joint, error) {
		return r.reportJoint(g, ys)
	})
}

// TestStageCacheSharesEntries pins the memoization contract: repeated
// analyses of the same scenario reuse one entry, and M is not part of the
// key, so an M-sweep shares it too.
func TestStageCacheSharesEntries(t *testing.T) {
	p := Defaults()
	a, err := pmfStages(p, 3, 3)
	if err != nil {
		t.Fatal(err)
	}
	b, err := pmfStages(p, 3, 3)
	if err != nil {
		t.Fatal(err)
	}
	if a != b {
		t.Error("second lookup of the same scenario did not hit the cache")
	}
	c, err := pmfStages(p.WithM(p.M+7), 3, 3)
	if err != nil {
		t.Fatal(err)
	}
	if a != c {
		t.Error("varying only M missed the cache; stage PMFs do not depend on M")
	}
	d, err := pmfStages(p.WithN(p.N+1), 3, 3)
	if err != nil {
		t.Fatal(err)
	}
	if a == d {
		t.Error("varying N must produce a distinct entry")
	}
}

// TestStageCacheResultsMatchUncached checks a cache hit returns the same
// distributions a fresh computation does.
func TestStageCacheResultsMatchUncached(t *testing.T) {
	p := Defaults().WithN(200)
	cached, err := pmfStages(p, 4, 3)
	if err != nil {
		t.Fatal(err)
	}
	cached, err = pmfStages(p, 4, 3) // guaranteed hit
	if err != nil {
		t.Fatal(err)
	}
	fresh, err := computeStages(p, 4, 3, regionSet.reportPMF)
	if err != nil {
		t.Fatal(err)
	}
	samePMF := func(name string, a, b []float64) {
		if len(a) != len(b) {
			t.Fatalf("%s: length %d vs %d", name, len(a), len(b))
		}
		for i := range a {
			if a[i] != b[i] {
				t.Fatalf("%s[%d]: %g vs %g", name, i, a[i], b[i])
			}
		}
	}
	samePMF("ph", cached.head, fresh.head)
	samePMF("pb", cached.body, fresh.body)
	if len(cached.tails) != len(fresh.tails) {
		t.Fatalf("pt count %d vs %d", len(cached.tails), len(fresh.tails))
	}
	for j := range fresh.tails {
		samePMF("pt", cached.tails[j], fresh.tails[j])
	}
}

// TestStageCacheBounded checks the wholesale-reset policy keeps each map at
// or below the limit.
func TestStageCacheBounded(t *testing.T) {
	p := Defaults()
	for i := 0; i < stageCacheLimit+20; i++ {
		if _, err := pmfStages(p.WithN(60+i), 2, 2); err != nil {
			t.Fatal(err)
		}
		pmfMemos.stages.mu.Lock()
		n := len(pmfMemos.stages.m)
		pmfMemos.stages.mu.Unlock()
		if n > stageCacheLimit {
			t.Fatalf("pmf cache grew to %d entries, limit is %d", n, stageCacheLimit)
		}
	}
}

// TestStageJointCacheSharesEntries covers the extension path's memo.
func TestStageJointCacheSharesEntries(t *testing.T) {
	p := Defaults()
	a, err := jointStages(p, 3, 3, 3)
	if err != nil {
		t.Fatal(err)
	}
	b, err := jointStages(p, 3, 3, 3)
	if err != nil {
		t.Fatal(err)
	}
	if a != b {
		t.Error("second joint lookup did not hit the cache")
	}
	c, err := jointStages(p, 3, 3, 4)
	if err != nil {
		t.Fatal(err)
	}
	if a == c {
		t.Error("varying the reporter axis must produce a distinct entry")
	}
}

// TestStageCacheMemoFailureNotStored: a failed compute stores nothing, so
// the next lookup of the key misses and computes again.
func TestStageCacheMemoFailureNotStored(t *testing.T) {
	m := newMemo[int, int](obs.NewRegistry(), "test")
	boom := errors.New("boom")
	calls := 0
	fail := func() (int, error) { calls++; return 0, boom }
	for i := 0; i < 2; i++ {
		if _, err := m.get(1, fail); !errors.Is(err, boom) {
			t.Fatalf("get %d: err = %v, want the compute error", i, err)
		}
	}
	if calls != 2 || m.metrics.misses.Value() != 2 || m.metrics.hits.Value() != 0 {
		t.Errorf("after two failed gets: %d computes, %d misses, %d hits; want 2, 2, 0",
			calls, m.metrics.misses.Value(), m.metrics.hits.Value())
	}
	if v, err := m.get(1, func() (int, error) { return 7, nil }); err != nil || v != 7 {
		t.Fatalf("get after failures = %d, %v; want 7", v, err)
	}
	if v, err := m.get(1, fail); err != nil || v != 7 {
		t.Errorf("stored key = %d, %v; want a hit on 7", v, err)
	}
	if l, h, mi := m.metrics.lookups.Value(), m.metrics.hits.Value(), m.metrics.misses.Value(); l != 4 || h != 1 || mi != 3 {
		t.Errorf("lookups %d, hits %d, misses %d; want 4, 1, 3", l, h, mi)
	}
}

// TestStageCacheMemoDrops: the insert that finds the map at
// stageCacheLimit entries drops it wholesale and counts one drop.
func TestStageCacheMemoDrops(t *testing.T) {
	m := newMemo[int, int](obs.NewRegistry(), "test")
	id := func(k int) func() (int, error) { return func() (int, error) { return k, nil } }
	for k := 0; k < stageCacheLimit; k++ {
		m.get(k, id(k))
	}
	if d := m.metrics.drops.Value(); d != 0 || len(m.m) != stageCacheLimit {
		t.Fatalf("at the limit: %d drops, %d entries; want 0, %d", d, len(m.m), stageCacheLimit)
	}
	m.get(stageCacheLimit, id(stageCacheLimit))
	if d := m.metrics.drops.Value(); d != 1 || len(m.m) != 1 {
		t.Errorf("past the limit: %d drops, %d entries; want 1, 1", d, len(m.m))
	}
}

// TestStageCacheMetricNames: the five memos register exactly the twenty
// detect.cache.* counters run manifests and the benchmark read.
func TestStageCacheMetricNames(t *testing.T) {
	var want []string
	for _, memo := range []string{"areas", "pmfs", "joints", "smallheads", "smalljoints"} {
		for _, c := range []string{"lookups", "hits", "misses", "drops"} {
			want = append(want, "detect.cache."+memo+"."+c)
		}
	}
	var got []string
	for name := range obs.Default.Snapshot().Counters {
		if strings.HasPrefix(name, "detect.cache.") {
			got = append(got, name)
		}
	}
	sort.Strings(want)
	sort.Strings(got)
	if strings.Join(got, " ") != strings.Join(want, " ") {
		t.Errorf("detect.cache counters = %v, want %v", got, want)
	}
}
