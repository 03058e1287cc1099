// Package plot renders ASCII line charts so the experiment CLI can show
// the paper's figures directly in a terminal (the reproduction target is
// the curve shape, which survives character resolution).
package plot

import (
	"errors"
	"fmt"
	"math"
	"strings"
)

// ErrPlot reports invalid chart input.
var ErrPlot = errors.New("plot: invalid input")

// markers are assigned to series in order.
var markers = []byte{'o', 'x', '+', '*', '#', '@'}

// Series is one named line of (x, y) points.
type Series struct {
	Name string
	X, Y []float64
}

// Chart accumulates series and renders them onto a character grid.
type Chart struct {
	// Title is printed above the grid; XLabel below it.
	Title  string
	XLabel string
	// Width and Height are the grid dimensions in characters; zero values
	// default to 64x20.
	Width, Height int

	series []Series
}

// New returns a chart with default dimensions.
func New(title string) *Chart {
	return &Chart{Title: title, Width: 64, Height: 20}
}

// Add appends a series; x and y must be equal-length and non-empty.
func (c *Chart) Add(name string, x, y []float64) error {
	if len(x) == 0 || len(x) != len(y) {
		return fmt.Errorf("series %q: %d x values, %d y values: %w", name, len(x), len(y), ErrPlot)
	}
	for i := range x {
		if math.IsNaN(x[i]) || math.IsNaN(y[i]) || math.IsInf(x[i], 0) || math.IsInf(y[i], 0) {
			return fmt.Errorf("series %q: non-finite point %d: %w", name, i, ErrPlot)
		}
	}
	c.series = append(c.series, Series{Name: name, X: append([]float64(nil), x...), Y: append([]float64(nil), y...)})
	return nil
}

// Render draws the chart. With no series it returns an error.
func (c *Chart) Render() (string, error) {
	if len(c.series) == 0 {
		return "", fmt.Errorf("no series: %w", ErrPlot)
	}
	w, h := c.Width, c.Height
	if w <= 0 {
		w = 64
	}
	if h <= 0 {
		h = 20
	}

	minX, maxX := math.Inf(1), math.Inf(-1)
	minY, maxY := math.Inf(1), math.Inf(-1)
	for _, s := range c.series {
		for i := range s.X {
			minX = math.Min(minX, s.X[i])
			maxX = math.Max(maxX, s.X[i])
			minY = math.Min(minY, s.Y[i])
			maxY = math.Max(maxY, s.Y[i])
		}
	}
	if minX == maxX {
		minX, maxX = minX-1, maxX+1
	}
	if minY == maxY {
		minY, maxY = minY-1, maxY+1
	}

	grid := make([][]byte, h)
	for r := range grid {
		grid[r] = []byte(strings.Repeat(" ", w))
	}
	col := func(x float64) int {
		cc := int(math.Round((x - minX) / (maxX - minX) * float64(w-1)))
		return min(max(cc, 0), w-1)
	}
	row := func(y float64) int {
		rr := int(math.Round((maxY - y) / (maxY - minY) * float64(h-1)))
		return min(max(rr, 0), h-1)
	}
	for si, s := range c.series {
		mark := markers[si%len(markers)]
		for i := range s.X {
			grid[row(s.Y[i])][col(s.X[i])] = mark
		}
	}

	var sb strings.Builder
	if c.Title != "" {
		fmt.Fprintf(&sb, "%s\n", c.Title)
	}
	yAxisTop := fmt.Sprintf("%.3g", maxY)
	yAxisBot := fmt.Sprintf("%.3g", minY)
	labelW := max(len(yAxisTop), len(yAxisBot))
	for r := 0; r < h; r++ {
		label := strings.Repeat(" ", labelW)
		switch r {
		case 0:
			label = pad(yAxisTop, labelW)
		case h - 1:
			label = pad(yAxisBot, labelW)
		}
		fmt.Fprintf(&sb, "%s |%s\n", label, string(grid[r]))
	}
	fmt.Fprintf(&sb, "%s +%s\n", strings.Repeat(" ", labelW), strings.Repeat("-", w))
	xAxis := fmt.Sprintf("%.4g%s%.4g", minX, strings.Repeat(" ", max(1, w-len(fmt.Sprintf("%.4g", minX))-len(fmt.Sprintf("%.4g", maxX)))), maxX)
	fmt.Fprintf(&sb, "%s  %s\n", strings.Repeat(" ", labelW), xAxis)
	if c.XLabel != "" {
		fmt.Fprintf(&sb, "%s  (%s)\n", strings.Repeat(" ", labelW), c.XLabel)
	}
	for si, s := range c.series {
		fmt.Fprintf(&sb, "  %c %s\n", markers[si%len(markers)], s.Name)
	}
	return sb.String(), nil
}

func pad(s string, w int) string {
	if len(s) >= w {
		return s
	}
	return strings.Repeat(" ", w-len(s)) + s
}
