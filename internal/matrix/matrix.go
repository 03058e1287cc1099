// Package matrix implements the small dense linear algebra the Markov-chain
// evaluation of the M-S-approach needs: row-major float64 matrices,
// vector-matrix products, matrix products and powers. It is deliberately
// minimal and allocation-conscious rather than a general BLAS.
package matrix

import (
	"errors"
	"fmt"
	"math"
	"strings"
)

// ErrShape reports incompatible matrix dimensions.
var ErrShape = errors.New("matrix: incompatible shapes")

// Matrix is a dense row-major matrix.
type Matrix struct {
	rows, cols int
	data       []float64
}

// New returns a zero rows x cols matrix.
func New(rows, cols int) (*Matrix, error) {
	if rows <= 0 || cols <= 0 {
		return nil, fmt.Errorf("new %dx%d: %w", rows, cols, ErrShape)
	}
	return &Matrix{rows: rows, cols: cols, data: make([]float64, rows*cols)}, nil
}

// Identity returns the n x n identity matrix.
func Identity(n int) (*Matrix, error) {
	m, err := New(n, n)
	if err != nil {
		return nil, err
	}
	for i := 0; i < n; i++ {
		m.data[i*n+i] = 1
	}
	return m, nil
}

// FromRows builds a matrix from row slices, which must be non-empty and of
// equal length. The data is copied.
func FromRows(rows [][]float64) (*Matrix, error) {
	if len(rows) == 0 || len(rows[0]) == 0 {
		return nil, fmt.Errorf("from rows: empty input: %w", ErrShape)
	}
	cols := len(rows[0])
	m, err := New(len(rows), cols)
	if err != nil {
		return nil, err
	}
	for i, r := range rows {
		if len(r) != cols {
			return nil, fmt.Errorf("from rows: row %d has %d cols, want %d: %w", i, len(r), cols, ErrShape)
		}
		copy(m.data[i*cols:(i+1)*cols], r)
	}
	return m, nil
}

// Rows returns the number of rows.
func (m *Matrix) Rows() int { return m.rows }

// Cols returns the number of columns.
func (m *Matrix) Cols() int { return m.cols }

// At returns element (i, j).
func (m *Matrix) At(i, j int) float64 { return m.data[i*m.cols+j] }

// Set assigns element (i, j).
func (m *Matrix) Set(i, j int, v float64) { m.data[i*m.cols+j] = v }

// Row returns a view of row i (not a copy).
func (m *Matrix) Row(i int) []float64 { return m.data[i*m.cols : (i+1)*m.cols] }

// Clone returns a deep copy of m.
func (m *Matrix) Clone() *Matrix {
	out := &Matrix{rows: m.rows, cols: m.cols, data: make([]float64, len(m.data))}
	copy(out.data, m.data)
	return out
}

// Mul returns a*b.
func Mul(a, b *Matrix) (*Matrix, error) {
	if a.cols != b.rows {
		return nil, fmt.Errorf("mul %dx%d by %dx%d: %w", a.rows, a.cols, b.rows, b.cols, ErrShape)
	}
	out, err := New(a.rows, b.cols)
	if err != nil {
		return nil, err
	}
	for i := 0; i < a.rows; i++ {
		arow := a.Row(i)
		orow := out.Row(i)
		for k, av := range arow {
			if av == 0 {
				continue
			}
			brow := b.Row(k)
			for j, bv := range brow {
				orow[j] += av * bv
			}
		}
	}
	return out, nil
}

// VecMul returns v*m for a row vector v (len(v) must equal m.Rows()).
func VecMul(v []float64, m *Matrix) ([]float64, error) {
	if len(v) != m.rows {
		return nil, fmt.Errorf("vecmul len %d by %dx%d: %w", len(v), m.rows, m.cols, ErrShape)
	}
	out := make([]float64, m.cols)
	for i, vi := range v {
		if vi == 0 {
			continue
		}
		row := m.Row(i)
		for j, mv := range row {
			out[j] += vi * mv
		}
	}
	return out, nil
}

// Pow returns m^n for square m and n >= 0, using binary exponentiation.
// m^0 is the identity.
func Pow(m *Matrix, n int) (*Matrix, error) {
	if m.rows != m.cols {
		return nil, fmt.Errorf("pow of %dx%d: %w", m.rows, m.cols, ErrShape)
	}
	if n < 0 {
		return nil, fmt.Errorf("pow with negative exponent %d: %w", n, ErrShape)
	}
	result, err := Identity(m.rows)
	if err != nil {
		return nil, err
	}
	base := m.Clone()
	for n > 0 {
		if n&1 == 1 {
			result, err = Mul(result, base)
			if err != nil {
				return nil, err
			}
		}
		n >>= 1
		if n > 0 {
			base, err = Mul(base, base)
			if err != nil {
				return nil, err
			}
		}
	}
	return result, nil
}

// MaxAbsDiff returns the largest absolute elementwise difference between a
// and b, or an error if shapes differ.
func MaxAbsDiff(a, b *Matrix) (float64, error) {
	if a.rows != b.rows || a.cols != b.cols {
		return 0, fmt.Errorf("diff %dx%d vs %dx%d: %w", a.rows, a.cols, b.rows, b.cols, ErrShape)
	}
	var maxd float64
	for i, v := range a.data {
		if d := math.Abs(v - b.data[i]); d > maxd {
			maxd = d
		}
	}
	return maxd, nil
}

// String renders the matrix for debugging.
func (m *Matrix) String() string {
	var sb strings.Builder
	for i := 0; i < m.rows; i++ {
		fmt.Fprintf(&sb, "%v\n", m.Row(i))
	}
	return sb.String()
}
