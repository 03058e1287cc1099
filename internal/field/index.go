package field

import (
	"fmt"
	"math"

	"github.com/groupdetect/gbd/internal/geom"
)

// Index is a uniform-grid spatial index over sensor positions. The
// simulator's hot query is "which sensors are within Rs of this period's
// track segment"; the grid limits the exact distance tests to cells whose
// bounding boxes intersect the inflated segment.
//
// The grid always spans the whole field, but only the cells a window
// overlaps are indexed: a trial whose track crosses a few cells of a large
// field counts and sorts just those. A query inside the window visits the
// same cells in the same order, and so returns the same ids in the same
// order, as it would on an index over the whole field.
//
// Cell contents live in one flat array (cellIDs, sliced by cellStart) built
// with a counting pass, so a Rebuild on a recycled Index allocates nothing
// once its backing arrays have grown to size.
type Index struct {
	bounds geom.Rect
	cell   float64
	cols   int
	rows   int
	// The window's cells: grid columns col0..col0+wcols-1 of rows
	// row0..row0+wrows-1, numbered row-major from 0.
	col0, row0   int
	wcols, wrows int
	points       []geom.Point
	// cellStart[c]..cellStart[c+1] brackets window cell c's ids in
	// cellIDs; ids are ascending within a cell (the counting pass scans
	// points in order). Cells of one row are adjacent, so cellStart[c0]..
	// cellStart[c1+1] is the one span holding cells c0..c1 of a row.
	cellStart []int32
	cellIDs   []int32
	cellOf    []int32 // per-point window cell (-1 outside), cached between Rebuild's two passes
}

// NewIndex builds an index over points with the given cell size, windowed
// to the whole of bounds. Points outside bounds are clamped into the
// border cells (deployments generated by this package are always inside).
func NewIndex(points []geom.Point, bounds geom.Rect, cellSize float64) (*Index, error) {
	idx := &Index{}
	if err := idx.Rebuild(points, bounds, bounds, cellSize); err != nil {
		return nil, err
	}
	return idx, nil
}

// checkGrid validates Rebuild's grid parameters.
func checkGrid(bounds, window geom.Rect, cellSize float64) error {
	if bounds.Area() <= 0 {
		return fmt.Errorf("empty bounds %+v: %w", bounds, ErrDeploy)
	}
	if cellSize <= 0 || math.IsNaN(cellSize) {
		return fmt.Errorf("cell size %v: %w", cellSize, ErrDeploy)
	}
	for _, v := range [...]float64{window.MinX, window.MinY, window.MaxX, window.MaxY} {
		if math.IsNaN(v) || math.IsInf(v, 0) {
			return fmt.Errorf("window %+v: %w", window, ErrDeploy)
		}
	}
	if window.MinX > window.MaxX || window.MinY > window.MaxY {
		return fmt.Errorf("inverted window %+v: %w", window, ErrDeploy)
	}
	return nil
}

// Rebuild re-indexes the index over a new deployment in place, reusing the
// existing backing arrays. The grid of cellSize cells spans bounds; only
// points in the cells window overlaps are indexed, so every query must lie
// inside window (pass bounds itself to index everything). It leaves the
// index unchanged on error. Pass a recycled Index through a simulation
// loop to keep indexing off the heap.
func (idx *Index) Rebuild(points []geom.Point, bounds, window geom.Rect, cellSize float64) error {
	if err := checkGrid(bounds, window, cellSize); err != nil {
		return err
	}
	idx.points = append(idx.points[:0], points...)
	idx.reindex(bounds, window, cellSize)
	return nil
}

// reindex rebuilds the grid over idx.points; callers have validated the
// grid parameters.
func (idx *Index) reindex(bounds, window geom.Rect, cellSize float64) {
	w := bounds.MaxX - bounds.MinX
	h := bounds.MaxY - bounds.MinY
	cols := int(math.Ceil(w / cellSize))
	rows := int(math.Ceil(h / cellSize))
	if cols < 1 {
		cols = 1
	}
	if rows < 1 {
		rows = 1
	}
	idx.bounds = bounds
	idx.cell = cellSize
	idx.cols = cols
	idx.rows = rows
	idx.col0, idx.row0 = idx.colOf(window.MinX), idx.rowOf(window.MinY)
	idx.wcols = idx.colOf(window.MaxX) - idx.col0 + 1
	idx.wrows = idx.rowOf(window.MaxY) - idx.row0 + 1
	points := idx.points

	nCells := idx.wcols * idx.wrows
	idx.cellStart = resize(idx.cellStart, nCells+1)
	clear(idx.cellStart)
	idx.cellOf = resize(idx.cellOf, len(points))
	// Counting sort: count per cell, prefix-sum into start offsets, then
	// place ids using cellStart[c] as the fill cursor. After the fill every
	// cursor sits at its cell's end, i.e. the next cell's start, so one
	// backward shift restores the offsets.
	for i, p := range points {
		// Most points of a large field miss the window: test the row
		// before paying for the column's division.
		row := idx.rowOf(p.Y) - idx.row0
		if uint(row) >= uint(idx.wrows) {
			idx.cellOf[i] = -1
			continue
		}
		col := idx.colOf(p.X) - idx.col0
		if uint(col) >= uint(idx.wcols) {
			idx.cellOf[i] = -1
			continue
		}
		c := row*idx.wcols + col
		idx.cellOf[i] = int32(c)
		idx.cellStart[c+1]++
	}
	counts := idx.cellStart[1:]
	var total int32 // in a register: no store-to-load chain through memory
	for c, n := range counts {
		total += n
		counts[c] = total
	}
	idx.cellIDs = resize(idx.cellIDs, int(total))
	for i, c := range idx.cellOf {
		if c >= 0 {
			idx.cellIDs[idx.cellStart[c]] = int32(i)
			idx.cellStart[c]++
		}
	}
	copy(idx.cellStart[1:], idx.cellStart[:nCells]) // memmove does the backward shift
	idx.cellStart[0] = 0
}

// resize returns s with length n, reusing its backing array when it is
// large enough.
func resize(s []int32, n int) []int32 {
	if cap(s) < n {
		return make([]int32, n)
	}
	return s[:n]
}

// Len returns the number of points given to the last build; ids run
// from 0 to Len()-1 whether or not the window holds the point.
func (idx *Index) Len() int { return len(idx.points) }

// Point returns the point with the given id.
func (idx *Index) Point(id int) geom.Point { return idx.points[id] }

func (idx *Index) colOf(x float64) int {
	c := int((x - idx.bounds.MinX) / idx.cell)
	if c < 0 {
		return 0
	}
	if c >= idx.cols {
		return idx.cols - 1
	}
	return c
}

func (idx *Index) rowOf(y float64) int {
	r := int((y - idx.bounds.MinY) / idx.cell)
	if r < 0 {
		return 0
	}
	if r >= idx.rows {
		return idx.rows - 1
	}
	return r
}

// cells returns the window cells the box [minX, maxX] × [minY, maxY]
// overlaps: window columns c0..c1 of window rows r0..r1, empty (c0 > c1 or
// r0 > r1) when the box misses the window.
func (idx *Index) cells(minX, maxX, minY, maxY float64) (c0, c1, r0, r1 int) {
	c0 = max(idx.colOf(minX)-idx.col0, 0)
	c1 = min(idx.colOf(maxX)-idx.col0, idx.wcols-1)
	r0 = max(idx.rowOf(minY)-idx.row0, 0)
	r1 = min(idx.rowOf(maxY)-idx.row0, idx.wrows-1)
	return c0, c1, r0, r1
}

// span returns the cellIDs positions holding window cells c0..c1 of
// window row row: one contiguous run, since a row's cells are adjacent in
// cell-scan order.
func (idx *Index) span(row, c0, c1 int) (lo, hi int32) {
	base := row * idx.wcols
	return idx.cellStart[base+c0], idx.cellStart[base+c1+1]
}

// QuerySegment appends to dst the ids of all points within distance r of
// segment s and returns the extended slice. Pass a reused dst to avoid
// allocation in the simulation loop.
func (idx *Index) QuerySegment(s geom.Segment, r float64, dst []int) []int {
	if r < 0 {
		return dst
	}
	// The builtin min and max treat NaN and signed zeros as math.Min and
	// math.Max do, without the call.
	c0, c1, r0, r1 := idx.cells(
		min(s.A.X, s.B.X)-r, max(s.A.X, s.B.X)+r,
		min(s.A.Y, s.B.Y)-r, max(s.A.Y, s.B.Y)+r)
	if c0 > c1 {
		return dst
	}
	r2 := r * r
	for row := r0; row <= r1; row++ {
		lo, hi := idx.span(row, c0, c1)
		for _, id := range idx.cellIDs[lo:hi] {
			if s.Dist2(idx.points[id]) <= r2 {
				dst = append(dst, int(id))
			}
		}
	}
	return dst
}

// Pairs appends to dst every unordered pair {i, j} of distinct indexed
// points within distance r of each other, testing each pair once. Pairs are
// emitted in lexicographic order of the points' positions in the index's
// flattened cell-scan order, and each pair is oriented the same way: this
// is exactly the guarantee a caller needs to rebuild per-point neighbor
// lists that match a QueryCircle per point (QueryCircle reports neighbors
// in ascending cell-scan position, and a single in-order sweep over the
// pair stream appends each point's partners in that same order). The
// distance predicate is bitwise-identical to QueryCircle's in both
// orientations, because Dist2 squares the coordinate differences.
func (idx *Index) Pairs(r float64, dst [][2]int32) [][2]int32 {
	if r < 0 {
		return dst
	}
	r2 := r * r
	for a, i := range idx.cellIDs {
		p := idx.points[i]
		c0, c1, r0, r1 := idx.cells(p.X-r, p.X+r, p.Y-r, p.Y+r)
		if c0 > c1 {
			continue
		}
		for row := r0; row <= r1; row++ {
			// Positions ascend with cell id, so clamping the row's span to
			// positions after a skips whole earlier cells and the
			// already-tested prefix of i's own cell.
			b, hi := idx.span(row, c0, c1)
			b = max(b, int32(a)+1)
			for ; b < hi; b++ {
				j := idx.cellIDs[b]
				if p.Dist2(idx.points[j]) <= r2 {
					dst = append(dst, [2]int32{i, j})
				}
			}
		}
	}
	return dst
}

// QueryCircle appends to dst the ids of all points within distance r of
// center and returns the extended slice. It visits the same cells in the
// same order as QuerySegment with a degenerate segment and applies the
// bitwise-identical distance predicate, just without the per-point
// closest-point-on-segment work.
func (idx *Index) QueryCircle(center geom.Point, r float64, dst []int) []int {
	if r < 0 {
		return dst
	}
	c0, c1, r0, r1 := idx.cells(center.X-r, center.X+r, center.Y-r, center.Y+r)
	if c0 > c1 {
		return dst
	}
	r2 := r * r
	for row := r0; row <= r1; row++ {
		lo, hi := idx.span(row, c0, c1)
		for _, id := range idx.cellIDs[lo:hi] {
			if center.Dist2(idx.points[id]) <= r2 {
				dst = append(dst, int(id))
			}
		}
	}
	return dst
}
