// Package faults injects node failures into a deployment. The paper assumes
// every deployed sensor stays alive for the whole mission; real sparse
// deployments lose nodes to battery exhaustion, hardware death and localized
// events (jamming, flooding). Each model here draws, deterministically from a
// seedable stream, the period in which each node of a deployment dies, which
// the simulator and the network layer consume: a dead sensor neither senses
// nor relays.
//
// All models are permanent-death models: once a node dies it stays dead, so
// one death period per node describes the whole mission, and the alive mask
// of every period follows from it.
package faults

import (
	"errors"
	"fmt"
	"math"
	"math/rand"

	"github.com/groupdetect/gbd/internal/geom"
)

// ErrModel reports an invalid failure model.
var ErrModel = errors.New("faults: invalid failure model")

// Model draws the death periods of a deployment.
type Model interface {
	// Deaths returns dst, resized to len(nodes), holding each node's death
	// period: node i is alive in the 1-based sensing period p iff
	// p < dst[i], so 1 means dead from the start and periods+1 means alive
	// for the whole mission. bounds is the deployment field (used by
	// spatially correlated models); rng supplies the randomness, so a model
	// is deterministic per (deployment, rng state). A caller that passes the
	// returned slice back in allocates only on its first call.
	Deaths(dst []int, nodes []geom.Point, bounds geom.Rect, periods int, rng *rand.Rand) ([]int, error)
}

func checkPeriods(periods int) error {
	if periods < 1 {
		return fmt.Errorf("periods = %d must be >= 1: %w", periods, ErrModel)
	}
	return nil
}

// survivors returns dst resized to n with every node alive for the whole
// mission of periods periods.
func survivors(dst []int, n, periods int) []int {
	if cap(dst) < n {
		dst = make([]int, n)
	}
	dst = dst[:n]
	for i := range dst {
		dst[i] = periods + 1
	}
	return dst
}

// None is the paper's assumption: every node alive for the whole mission.
type None struct{}

// Deaths implements Model.
func (None) Deaths(dst []int, nodes []geom.Point, _ geom.Rect, periods int, _ *rand.Rand) ([]int, error) {
	if err := checkPeriods(periods); err != nil {
		return nil, err
	}
	return survivors(dst, len(nodes), periods), nil
}

// Bernoulli kills each node independently with probability DeadFrac before
// the mission starts — the classic "a fraction f of the deployment never
// reports" model. Its analytical mirror is the effective density
// n' = n*(1-f) (equivalently, thinning Pd by 1-f).
type Bernoulli struct {
	// DeadFrac is the independent per-node death probability in [0, 1].
	DeadFrac float64
}

// Deaths implements Model: one draw per node, in id order.
func (b Bernoulli) Deaths(dst []int, nodes []geom.Point, _ geom.Rect, periods int, rng *rand.Rand) ([]int, error) {
	if b.DeadFrac < 0 || b.DeadFrac > 1 || math.IsNaN(b.DeadFrac) {
		return nil, fmt.Errorf("dead fraction %v must be in [0, 1]: %w", b.DeadFrac, ErrModel)
	}
	if err := checkPeriods(periods); err != nil {
		return nil, err
	}
	dst = survivors(dst, len(nodes), periods)
	for i := range dst {
		d := periods + 1
		if rng.Float64() < b.DeadFrac {
			d = 1
		}
		dst[i] = d
	}
	return dst, nil
}

// Lifetime is a per-period battery/hardware hazard: each node alive at the
// start of a period dies during it with probability Hazard, independently.
// A node alive in period t survives to period t+k with probability
// (1-Hazard)^k, the geometric lifetime model.
type Lifetime struct {
	// Hazard is the per-period death probability in [0, 1].
	Hazard float64
	// InitialDeadFrac optionally kills a fraction before the mission, so a
	// campaign can start from an already-degraded deployment.
	InitialDeadFrac float64
}

// Deaths implements Model: one draw per node for the initial state, then
// per period one draw per node still alive, in id order.
func (l Lifetime) Deaths(dst []int, nodes []geom.Point, _ geom.Rect, periods int, rng *rand.Rand) ([]int, error) {
	if l.Hazard < 0 || l.Hazard > 1 || math.IsNaN(l.Hazard) {
		return nil, fmt.Errorf("hazard %v must be in [0, 1]: %w", l.Hazard, ErrModel)
	}
	if l.InitialDeadFrac < 0 || l.InitialDeadFrac > 1 || math.IsNaN(l.InitialDeadFrac) {
		return nil, fmt.Errorf("initial dead fraction %v must be in [0, 1]: %w", l.InitialDeadFrac, ErrModel)
	}
	if err := checkPeriods(periods); err != nil {
		return nil, err
	}
	dst = survivors(dst, len(nodes), periods)
	for i := range dst {
		if rng.Float64() < l.InitialDeadFrac {
			dst[i] = 1
		}
	}
	for p := 1; p <= periods; p++ {
		for i, d := range dst {
			if d > periods && rng.Float64() < l.Hazard {
				dst[i] = p
			}
		}
	}
	return dst, nil
}

// Blob is a spatially correlated failure: at period At, every node within
// Radius of a disaster center is destroyed permanently (jamming, flooding,
// shelling of a region). The center is drawn uniformly from bounds unless
// Center is set.
type Blob struct {
	// Radius is the destruction radius in meters.
	Radius float64
	// At is the 1-based period the event strikes; 0 means period 1.
	At int
	// Center, when non-nil, fixes the event location instead of drawing it
	// uniformly from the field.
	Center *geom.Point
}

// Deaths implements Model: two draws for the center (X, Y), made even when
// Center is set.
func (b Blob) Deaths(dst []int, nodes []geom.Point, bounds geom.Rect, periods int, rng *rand.Rand) ([]int, error) {
	if !(b.Radius > 0) || math.IsInf(b.Radius, 0) {
		return nil, fmt.Errorf("blob radius %v must be positive and finite: %w", b.Radius, ErrModel)
	}
	if b.At < 0 {
		return nil, fmt.Errorf("blob period %d must be >= 0: %w", b.At, ErrModel)
	}
	if err := checkPeriods(periods); err != nil {
		return nil, err
	}
	at := b.At
	if at == 0 {
		at = 1
	}
	center := geom.Point{
		X: bounds.MinX + rng.Float64()*(bounds.MaxX-bounds.MinX),
		Y: bounds.MinY + rng.Float64()*(bounds.MaxY-bounds.MinY),
	}
	if b.Center != nil {
		center = *b.Center
	}
	dst = survivors(dst, len(nodes), periods)
	if at > periods {
		return dst, nil // the event strikes after the mission
	}
	r2 := b.Radius * b.Radius
	for i, p := range nodes {
		if p.Dist2(center) <= r2 {
			dst[i] = at
		}
	}
	return dst, nil
}

// Compose overlays several failure models: a node is alive only when alive
// under every component. Use it to combine, say, a battery hazard with a
// mid-mission jamming blob.
type Compose []Model

// Deaths implements Model: the components draw in order, and each node
// dies at the earliest of its components' death periods. The returned
// slice keeps a second len(nodes) entries of capacity past its end, the
// later components' scratch, so passing it back allocates nothing.
func (c Compose) Deaths(dst []int, nodes []geom.Point, bounds geom.Rect, periods int, rng *rand.Rand) ([]int, error) {
	if len(c) == 0 {
		return nil, fmt.Errorf("empty composition: %w", ErrModel)
	}
	n := len(nodes)
	if cap(dst) < 2*n {
		dst = make([]int, 2*n)
	}
	out, scratch := dst[:n], dst[n:2*n]
	for j, m := range c {
		part := out
		if j > 0 {
			part = scratch
		}
		got, err := m.Deaths(part[:0:n], nodes, bounds, periods, rng)
		if err != nil {
			return nil, err
		}
		if len(got) != n {
			return nil, fmt.Errorf("component %d returned %d death periods for %d nodes: %w", j, len(got), n, ErrModel)
		}
		if j == 0 {
			copy(out, got) // a no-op unless the component allocated its own
			continue
		}
		for i, d := range got {
			out[i] = min(out[i], d)
		}
	}
	return out, nil
}
