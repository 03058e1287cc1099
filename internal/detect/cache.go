package detect

import (
	"sync"

	"github.com/groupdetect/gbd/internal/dist"
	"github.com/groupdetect/gbd/internal/geom"
	"github.com/groupdetect/gbd/internal/obs"
)

// The analytical hot path builds the same intermediate objects over and
// over during parameter sweeps: the Head/Body/Tail subarea decompositions
// (fixed by Rs and Vt alone) and the per-stage distributions (fixed by the
// scenario minus M, since the window length only sets how many body steps
// are chained downstream). Both are memoized here, so a sweep over N
// shares all geometry work and a sweep over M (e.g. DetectionLatency)
// shares everything.
//
// Cached values are shared and immutable: callers must never write to a
// returned slice. Every current caller only reads them or feeds them to
// allocating combinators (dist.Convolve and friends).

// stageCacheLimit bounds each memo map. At the limit a map is dropped
// wholesale: sweeps revisit keys in clusters, so an occasional cold
// restart beats eviction bookkeeping.
const stageCacheLimit = 256

// cacheMetrics counts one memo's traffic. Every lookup increments lookups
// on entry and then exactly one of hits or misses, so
// lookups == hits + misses at any quiescent point (the concurrent-sweep
// test asserts this under the race detector). drops counts wholesale map
// resets at stageCacheLimit.
type cacheMetrics struct {
	lookups, hits, misses, drops *obs.Counter
}

// memo is one bounded, concurrency-safe memo map. Its metric handles are
// resolved once at construction, so lookups do plain atomic increments,
// never registry map lookups.
type memo[K comparable, V any] struct {
	mu      sync.Mutex
	m       map[K]V
	metrics cacheMetrics
}

// newMemo returns an empty memo counting into reg under
// detect.cache.<name>.{lookups,hits,misses,drops}.
func newMemo[K comparable, V any](reg *obs.Registry, name string) *memo[K, V] {
	prefix := "detect.cache." + name + "."
	return &memo[K, V]{
		m: make(map[K]V),
		metrics: cacheMetrics{
			lookups: reg.Counter(prefix + "lookups"),
			hits:    reg.Counter(prefix + "hits"),
			misses:  reg.Counter(prefix + "misses"),
			drops:   reg.Counter(prefix + "drops"),
		},
	}
}

// get returns the value stored under key, computing and storing it on a
// miss. A failed compute stores nothing, so the next get retries it.
// Concurrent misses on the same key may compute twice; the loser's entry
// simply replaces the winner's equal one.
func (c *memo[K, V]) get(key K, compute func() (V, error)) (V, error) {
	c.metrics.lookups.Inc()
	c.mu.Lock()
	v, ok := c.m[key]
	c.mu.Unlock()
	if ok {
		c.metrics.hits.Inc()
		return v, nil
	}
	c.metrics.misses.Inc()
	v, err := compute()
	if err != nil {
		return v, err
	}
	c.mu.Lock()
	if len(c.m) >= stageCacheLimit {
		c.metrics.drops.Inc()
		c.m = make(map[K]V)
	}
	c.m[key] = v
	c.mu.Unlock()
	return v, nil
}

// areaKey identifies a detectable-region decomposition.
type areaKey struct {
	rs, vt float64
}

// stageAreas holds the subarea slices of every stage: head and body are
// AreaHAll/AreaBAll, tails[j-1] is AreaTAll(j) for tail step j.
type stageAreas struct {
	head, body []float64
	tails      [][]float64
}

// stageKey identifies everything one stage set or small-window head
// depends on. ys is the joint's reporter-axis size (0 for the report PMF).
// A full stage set does not depend on the window, so its m is 0; the
// window-truncated head caps coverage spans at M and uses only the head
// bound gh, so its g is 0 and its m is M.
type stageKey struct {
	rs, vt, fieldSide, pd float64
	n, gh, g, m, ys       int
}

// chainMemos are the two memos one evaluator keeps its M-S stages in: the
// full stage set and the small-window head.
type chainMemos[T any] struct {
	stages *memo[stageKey, *stages[T]]
	heads  *memo[stageKey, T]
}

func newChainMemos[T any](stagesName, headsName string) chainMemos[T] {
	return chainMemos[T]{
		stages: newMemo[stageKey, *stages[T]](obs.Default, stagesName),
		heads:  newMemo[stageKey, T](obs.Default, headsName),
	}
}

var (
	areaMemo   = newMemo[areaKey, *stageAreas](obs.Default, "areas")
	pmfMemos   = newChainMemos[dist.PMF]("pmfs", "smallheads")
	jointMemos = newChainMemos[dist.Joint]("joints", "smalljoints")
)

// cachedAreas returns the (possibly memoized) subarea decomposition of
// every stage for the given geometry.
func cachedAreas(gm geom.DRGeometry) *stageAreas {
	a, _ := areaMemo.get(areaKey{rs: gm.Rs, vt: gm.Vt}, func() (*stageAreas, error) {
		a := &stageAreas{head: gm.AreaHAll(), body: gm.AreaBAll(), tails: make([][]float64, gm.Ms)}
		for j := 1; j <= gm.Ms; j++ {
			a.tails[j-1] = gm.AreaTAll(j)
		}
		return a, nil
	})
	return a
}
