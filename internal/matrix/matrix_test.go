package matrix

import (
	"math/rand"
	"testing"
	"testing/quick"

	"github.com/groupdetect/gbd/internal/numeric"
)

func mustFromRows(t *testing.T, rows [][]float64) *Matrix {
	t.Helper()
	m, err := FromRows(rows)
	if err != nil {
		t.Fatal(err)
	}
	return m
}

func TestNewValidation(t *testing.T) {
	if _, err := New(0, 3); err == nil {
		t.Error("zero rows should fail")
	}
	if _, err := New(3, -1); err == nil {
		t.Error("negative cols should fail")
	}
	m, err := New(2, 3)
	if err != nil {
		t.Fatal(err)
	}
	if m.Rows() != 2 || m.Cols() != 3 || m.At(1, 2) != 0 {
		t.Errorf("unexpected zero matrix: %v", m)
	}
}

func TestFromRowsValidation(t *testing.T) {
	if _, err := FromRows(nil); err == nil {
		t.Error("nil rows should fail")
	}
	if _, err := FromRows([][]float64{{}}); err == nil {
		t.Error("empty row should fail")
	}
	if _, err := FromRows([][]float64{{1, 2}, {3}}); err == nil {
		t.Error("ragged rows should fail")
	}
}

func TestFromRowsCopies(t *testing.T) {
	src := [][]float64{{1, 2}}
	m := mustFromRows(t, src)
	src[0][0] = 99
	if m.At(0, 0) != 1 {
		t.Error("FromRows must copy")
	}
}

func TestSetAtRow(t *testing.T) {
	m, _ := New(2, 2)
	m.Set(0, 1, 7)
	if m.At(0, 1) != 7 {
		t.Error("Set/At roundtrip failed")
	}
	row := m.Row(0)
	row[0] = 3 // Row is a view.
	if m.At(0, 0) != 3 {
		t.Error("Row should be a view")
	}
}

func TestCloneIndependent(t *testing.T) {
	m := mustFromRows(t, [][]float64{{1, 2}, {3, 4}})
	c := m.Clone()
	c.Set(0, 0, 99)
	if m.At(0, 0) != 1 {
		t.Error("Clone must be independent")
	}
}

func TestMulKnown(t *testing.T) {
	a := mustFromRows(t, [][]float64{{1, 2}, {3, 4}})
	b := mustFromRows(t, [][]float64{{5, 6}, {7, 8}})
	got, err := Mul(a, b)
	if err != nil {
		t.Fatal(err)
	}
	want := mustFromRows(t, [][]float64{{19, 22}, {43, 50}})
	d, err := MaxAbsDiff(got, want)
	if err != nil {
		t.Fatal(err)
	}
	if d != 0 {
		t.Errorf("Mul = %v, want %v", got, want)
	}
}

func TestMulShapeError(t *testing.T) {
	a := mustFromRows(t, [][]float64{{1, 2, 3}})
	b := mustFromRows(t, [][]float64{{1, 2}})
	if _, err := Mul(a, b); err == nil {
		t.Error("incompatible shapes should fail")
	}
}

func TestMulIdentity(t *testing.T) {
	a := mustFromRows(t, [][]float64{{1, 2}, {3, 4}})
	id, err := Identity(2)
	if err != nil {
		t.Fatal(err)
	}
	left, _ := Mul(id, a)
	right, _ := Mul(a, id)
	if d, _ := MaxAbsDiff(left, a); d != 0 {
		t.Error("I*a != a")
	}
	if d, _ := MaxAbsDiff(right, a); d != 0 {
		t.Error("a*I != a")
	}
}

func TestVecMul(t *testing.T) {
	m := mustFromRows(t, [][]float64{{1, 2}, {3, 4}})
	got, err := VecMul([]float64{1, 1}, m)
	if err != nil {
		t.Fatal(err)
	}
	if got[0] != 4 || got[1] != 6 {
		t.Errorf("VecMul = %v, want [4 6]", got)
	}
	if _, err := VecMul([]float64{1}, m); err == nil {
		t.Error("length mismatch should fail")
	}
}

func TestPow(t *testing.T) {
	m := mustFromRows(t, [][]float64{{1, 1}, {0, 1}})
	p5, err := Pow(m, 5)
	if err != nil {
		t.Fatal(err)
	}
	if p5.At(0, 1) != 5 {
		t.Errorf("shear^5 upper = %v, want 5", p5.At(0, 1))
	}
	p0, err := Pow(m, 0)
	if err != nil {
		t.Fatal(err)
	}
	id, _ := Identity(2)
	if d, _ := MaxAbsDiff(p0, id); d != 0 {
		t.Error("m^0 != I")
	}
	if _, err := Pow(m, -1); err == nil {
		t.Error("negative power should fail")
	}
	rect := mustFromRows(t, [][]float64{{1, 2, 3}})
	if _, err := Pow(rect, 2); err == nil {
		t.Error("non-square power should fail")
	}
}

func TestPowMatchesRepeatedMul(t *testing.T) {
	rng := rand.New(rand.NewSource(13))
	m, _ := New(4, 4)
	for i := 0; i < 4; i++ {
		for j := 0; j < 4; j++ {
			m.Set(i, j, rng.Float64())
		}
	}
	want, _ := Identity(4)
	for i := 0; i < 7; i++ {
		want, _ = Mul(want, m)
	}
	got, err := Pow(m, 7)
	if err != nil {
		t.Fatal(err)
	}
	d, _ := MaxAbsDiff(got, want)
	if d > 1e-9 {
		t.Errorf("Pow(7) differs from repeated Mul by %v", d)
	}
}

func TestVecMulAssociativity(t *testing.T) {
	// (v*A)*B == v*(A*B) — the identity Eq. (12) relies on.
	rng := rand.New(rand.NewSource(21))
	f := func(seed uint8) bool {
		n := 3 + int(seed%4)
		a, _ := New(n, n)
		b, _ := New(n, n)
		v := make([]float64, n)
		for i := 0; i < n; i++ {
			v[i] = rng.Float64()
			for j := 0; j < n; j++ {
				a.Set(i, j, rng.Float64())
				b.Set(i, j, rng.Float64())
			}
		}
		va, err := VecMul(v, a)
		if err != nil {
			return false
		}
		lhs, err := VecMul(va, b)
		if err != nil {
			return false
		}
		ab, err := Mul(a, b)
		if err != nil {
			return false
		}
		rhs, err := VecMul(v, ab)
		if err != nil {
			return false
		}
		for i := range lhs {
			if !numeric.AlmostEqual(lhs[i], rhs[i], 1e-9, 1e-9) {
				return false
			}
		}
		return true
	}
	cfg := &quick.Config{MaxCount: 50, Rand: rand.New(rand.NewSource(2))}
	if err := quick.Check(f, cfg); err != nil {
		t.Error(err)
	}
}

func TestMaxAbsDiffShapeError(t *testing.T) {
	a := mustFromRows(t, [][]float64{{1}})
	b := mustFromRows(t, [][]float64{{1, 2}})
	if _, err := MaxAbsDiff(a, b); err == nil {
		t.Error("shape mismatch should fail")
	}
}

func TestString(t *testing.T) {
	m := mustFromRows(t, [][]float64{{1, 2}})
	if m.String() == "" {
		t.Error("String should render something")
	}
}
