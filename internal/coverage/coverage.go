// Package coverage quantifies the sensing coverage of a deployment — the
// "void sensing areas" a sparse network deliberately accepts (Section 1 of
// the paper). It discretizes the field into a grid and provides k-coverage
// fractions, the classic worst-case crossing metric (the maximal-breach
// path), and the void fraction that complements the
// group-detection analysis: group detection is exactly what makes partial
// coverage acceptable.
package coverage

import (
	"container/heap"
	"errors"
	"fmt"
	"math"

	"github.com/groupdetect/gbd/internal/field"
	"github.com/groupdetect/gbd/internal/geom"
)

// ErrCoverage reports invalid coverage-map arguments.
var ErrCoverage = errors.New("coverage: invalid arguments")

// ErrNoPath reports that no crossing path exists.
var ErrNoPath = errors.New("coverage: no crossing path")

// Map is a grid discretization of a deployment's coverage.
type Map struct {
	bounds  geom.Rect
	cell    float64
	cols    int
	rows    int
	counts  []int     // sensors covering each cell center
	nearest []float64 // distance from each cell center to the nearest sensor
}

// NewMap builds a coverage map with the given cell size. Every cell center
// records how many sensing disks of radius rs cover it and its distance to
// the nearest sensor.
func NewMap(sensors []geom.Point, rs float64, bounds geom.Rect, cell float64) (*Map, error) {
	if bounds.Area() <= 0 {
		return nil, fmt.Errorf("empty bounds: %w", ErrCoverage)
	}
	if cell <= 0 || math.IsNaN(cell) {
		return nil, fmt.Errorf("cell size %v: %w", cell, ErrCoverage)
	}
	if rs <= 0 {
		return nil, fmt.Errorf("sensing range %v: %w", rs, ErrCoverage)
	}
	w := bounds.MaxX - bounds.MinX
	h := bounds.MaxY - bounds.MinY
	cols := int(math.Ceil(w / cell))
	rows := int(math.Ceil(h / cell))
	if cols < 1 || rows < 1 {
		return nil, fmt.Errorf("degenerate grid %dx%d: %w", cols, rows, ErrCoverage)
	}
	if cols*rows > 1<<22 {
		return nil, fmt.Errorf("grid %dx%d too large: %w", cols, rows, ErrCoverage)
	}
	m := &Map{
		bounds:  bounds,
		cell:    cell,
		cols:    cols,
		rows:    rows,
		counts:  make([]int, cols*rows),
		nearest: make([]float64, cols*rows),
	}
	idx, err := field.NewIndex(sensors, bounds, math.Max(cell, rs))
	if err != nil {
		return nil, err
	}
	buf := make([]int, 0, 16)
	for r := 0; r < rows; r++ {
		for c := 0; c < cols; c++ {
			center := m.center(r, c)
			buf = idx.QueryCircle(center, rs, buf[:0])
			m.counts[r*cols+c] = len(buf)
			m.nearest[r*cols+c] = nearestDistance(center, sensors)
		}
	}
	return m, nil
}

func nearestDistance(p geom.Point, sensors []geom.Point) float64 {
	best := math.Inf(1)
	for _, s := range sensors {
		if d := p.Dist2(s); d < best {
			best = d
		}
	}
	return math.Sqrt(best)
}

func (m *Map) center(r, c int) geom.Point {
	return geom.Point{
		X: m.bounds.MinX + (float64(c)+0.5)*m.cell,
		Y: m.bounds.MinY + (float64(r)+0.5)*m.cell,
	}
}

// Cells returns the number of grid cells.
func (m *Map) Cells() int { return m.cols * m.rows }

// Fraction returns the fraction of cells covered by at least k sensors.
func (m *Map) Fraction(k int) float64 {
	if k <= 0 {
		return 1
	}
	covered := 0
	for _, c := range m.counts {
		if c >= k {
			covered++
		}
	}
	return float64(covered) / float64(len(m.counts))
}

// VoidFraction returns the fraction of the field outside every sensing
// disk — the void sensing area of the deployment.
func (m *Map) VoidFraction() float64 { return 1 - m.Fraction(1) }

// Histogram returns the distribution of per-cell coverage counts.
func (m *Map) Histogram() []float64 {
	maxC := 0
	for _, c := range m.counts {
		if c > maxC {
			maxC = c
		}
	}
	out := make([]float64, maxC+1)
	for _, c := range m.counts {
		out[c]++
	}
	for i := range out {
		out[i] /= float64(len(m.counts))
	}
	return out
}

// BreachResult describes a worst-case left-to-right crossing.
type BreachResult struct {
	// Distance is the maximal breach distance: the crossing path that
	// stays as far as possible from all sensors gets this close at its
	// worst point.
	Distance float64
	// Path is the cell-center polyline of one such path.
	Path []geom.Point
	// Undetectable reports whether the path avoids every sensing disk
	// (Distance > rs passed to Undetectable).
	Undetectable bool
}

// MaximalBreach computes the maximal-breach path from the left edge to the
// right edge of the field: the crossing that maximizes the minimum
// distance to any sensor, found with a maximin Dijkstra over the grid
// (4-connected). rs is used to flag whether the breach evades all sensing
// disks. An empty deployment yields an unbounded (infinite) breach
// distance with a straight path.
func (m *Map) MaximalBreach(rs float64) (BreachResult, error) {
	if rs <= 0 {
		return BreachResult{}, fmt.Errorf("sensing range %v: %w", rs, ErrCoverage)
	}
	n := m.cols * m.rows
	best := make([]float64, n)
	prev := make([]int32, n)
	for i := range best {
		best[i] = -1
		prev[i] = -1
	}
	pq := &maxHeap{}
	// Sources: all left-edge cells.
	for r := 0; r < m.rows; r++ {
		id := r*m.cols + 0
		best[id] = m.nearest[id]
		heap.Push(pq, heapItem{id: id, val: best[id]})
	}
	goalCol := m.cols - 1
	var goal = -1
	for pq.Len() > 0 {
		it := heap.Pop(pq).(heapItem)
		if it.val < best[it.id] {
			continue
		}
		if it.id%m.cols == goalCol {
			goal = it.id
			break
		}
		r, c := it.id/m.cols, it.id%m.cols
		for _, d := range [4][2]int{{0, 1}, {0, -1}, {1, 0}, {-1, 0}} {
			nr, nc := r+d[0], c+d[1]
			if nr < 0 || nr >= m.rows || nc < 0 || nc >= m.cols {
				continue
			}
			nid := nr*m.cols + nc
			v := math.Min(it.val, m.nearest[nid])
			if v > best[nid] {
				best[nid] = v
				prev[nid] = int32(it.id)
				heap.Push(pq, heapItem{id: nid, val: v})
			}
		}
	}
	if goal < 0 {
		return BreachResult{}, ErrNoPath
	}
	res := BreachResult{Distance: best[goal]}
	for id := goal; id >= 0; id = int(prev[id]) {
		res.Path = append(res.Path, m.center(id/m.cols, id%m.cols))
	}
	reverse(res.Path)
	res.Undetectable = res.Distance > rs
	return res, nil
}

func reverse(p []geom.Point) {
	for i, j := 0, len(p)-1; i < j; i, j = i+1, j-1 {
		p[i], p[j] = p[j], p[i]
	}
}

type heapItem struct {
	id  int
	val float64
}

type maxHeap []heapItem

func (h maxHeap) Len() int            { return len(h) }
func (h maxHeap) Less(i, j int) bool  { return h[i].val > h[j].val }
func (h maxHeap) Swap(i, j int)       { h[i], h[j] = h[j], h[i] }
func (h *maxHeap) Push(x interface{}) { *h = append(*h, x.(heapItem)) }
func (h *maxHeap) Pop() interface{} {
	old := *h
	n := len(old)
	it := old[n-1]
	*h = old[:n-1]
	return it
}
