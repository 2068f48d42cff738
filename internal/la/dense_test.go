package la

import (
	"math"
	"testing"
	"testing/quick"
)

func almostEq(a, b, tol float64) bool {
	return math.Abs(a-b) <= tol*(1+math.Abs(a)+math.Abs(b))
}

func TestDot(t *testing.T) {
	x := Vector{1, 2, 3}
	y := Vector{4, -5, 6}
	if got := Dot(x, y); got != 1*4-2*5+3*6 {
		t.Fatalf("Dot = %v, want 12", got)
	}
}

func TestDotPanicsOnMismatch(t *testing.T) {
	defer func() {
		if recover() == nil {
			t.Fatal("expected panic on length mismatch")
		}
	}()
	Dot(Vector{1}, Vector{1, 2})
}

func TestDotSymmetric(t *testing.T) {
	f := func(a, b [8]float64) bool {
		x, y := Vector(a[:]), Vector(b[:])
		d1, d2 := Dot(x, y), Dot(y, x)
		return d1 == d2 || (math.IsNaN(d1) && math.IsNaN(d2))
	}
	if err := quick.Check(f, nil); err != nil {
		t.Fatal(err)
	}
}

func TestAxpy(t *testing.T) {
	x := Vector{1, 2}
	y := Vector{10, 20}
	Axpy(3, x, y)
	if y[0] != 13 || y[1] != 26 {
		t.Fatalf("Axpy result %v", y)
	}
}

func TestAxpyLinearity(t *testing.T) {
	f := func(a, b [6]float64, alpha float64) bool {
		if math.IsNaN(alpha) || math.IsInf(alpha, 0) {
			return true
		}
		y1 := Vector(b[:]).Clone()
		Axpy(alpha, Vector(a[:]), y1)
		for i := range y1 {
			want := b[i] + alpha*a[i]
			if y1[i] != want && !(math.IsNaN(y1[i]) && math.IsNaN(want)) {
				return false
			}
		}
		return true
	}
	if err := quick.Check(f, nil); err != nil {
		t.Fatal(err)
	}
}

func TestScalNorm(t *testing.T) {
	v := Vector{3, 4}
	Scal(2, v)
	if v[0] != 6 || v[1] != 8 {
		t.Fatalf("Scal result %v", v)
	}
}

func TestMatrixBasics(t *testing.T) {
	m := NewMatrix(2, 3)
	m.Set(1, 2, 7)
	if m.At(1, 2) != 7 {
		t.Fatal("Set/At roundtrip failed")
	}
	r := m.Row(1)
	r[0] = 5
	if m.At(1, 0) != 5 {
		t.Fatal("Row must be a mutable view")
	}
	c := m.Clone()
	c.Set(0, 0, 9)
	if m.At(0, 0) == 9 {
		t.Fatal("Clone must be deep")
	}
}

func TestEye(t *testing.T) {
	e := Eye(3)
	for i := 0; i < 3; i++ {
		for j := 0; j < 3; j++ {
			want := 0.0
			if i == j {
				want = 1
			}
			if e.At(i, j) != want {
				t.Fatalf("Eye(3)[%d,%d] = %v", i, j, e.At(i, j))
			}
		}
	}
}

func TestTranspose(t *testing.T) {
	m := NewMatrixFrom([][]float64{{1, 2, 3}, {4, 5, 6}})
	mt := m.Transpose()
	if mt.Rows != 3 || mt.Cols != 2 {
		t.Fatalf("transpose dims %dx%d", mt.Rows, mt.Cols)
	}
	for i := 0; i < 2; i++ {
		for j := 0; j < 3; j++ {
			if m.At(i, j) != mt.At(j, i) {
				t.Fatalf("transpose mismatch at (%d,%d)", i, j)
			}
		}
	}
}

func TestGemv(t *testing.T) {
	a := NewMatrixFrom([][]float64{{1, 2}, {3, 4}})
	x := Vector{1, 1}
	y := Vector{10, 10}
	Gemv(2, a, x, 0.5, y) // y = 2*A*x + 0.5*y
	if y[0] != 2*3+5 || y[1] != 2*7+5 {
		t.Fatalf("Gemv result %v", y)
	}
}

// gemm computes C = alpha·A·B, the reference product the factorisation
// tests check their factors against.
func gemm(alpha float64, a, b *Matrix, c *Matrix) {
	if a.Cols != b.Rows || c.Rows != a.Rows || c.Cols != b.Cols {
		panic("la: gemm dimension mismatch")
	}
	for i := 0; i < c.Rows; i++ {
		crow := c.Row(i)
		crow.Zero()
		for k, aik := range a.Row(i) {
			f := alpha * aik
			for j, bkj := range b.Row(k) {
				crow[j] += f * bkj
			}
		}
	}
}

func TestGemm(t *testing.T) {
	a := NewMatrixFrom([][]float64{{1, 2}, {3, 4}})
	b := NewMatrixFrom([][]float64{{5, 6}, {7, 8}})
	c := NewMatrix(2, 2)
	gemm(1, a, b, c)
	want := [][]float64{{19, 22}, {43, 50}}
	for i := 0; i < 2; i++ {
		for j := 0; j < 2; j++ {
			if c.At(i, j) != want[i][j] {
				t.Fatalf("gemm[%d,%d] = %v, want %v", i, j, c.At(i, j), want[i][j])
			}
		}
	}
}

func TestGemmAgainstNaive(t *testing.T) {
	r := testRand(1)
	a := randMatrix(r, 7, 5)
	b := randMatrix(r, 5, 9)
	c := NewMatrix(7, 9)
	gemm(1.5, a, b, c)
	for i := 0; i < 7; i++ {
		for j := 0; j < 9; j++ {
			var s float64
			for k := 0; k < 5; k++ {
				s += a.At(i, k) * b.At(k, j)
			}
			if !almostEq(c.At(i, j), 1.5*s, 1e-12) {
				t.Fatalf("gemm mismatch at (%d,%d): %v vs %v", i, j, c.At(i, j), 1.5*s)
			}
		}
	}
}

func TestSyrLower(t *testing.T) {
	a := NewMatrix(3, 3)
	x := Vector{1, 2, 3}
	SyrLower(2, x, a)
	// lower triangle of 2*x*xᵀ
	if a.At(0, 0) != 2 || a.At(1, 0) != 4 || a.At(2, 1) != 12 || a.At(2, 2) != 18 {
		t.Fatalf("SyrLower lower triangle wrong: %+v", a.Data)
	}
	if a.At(0, 1) != 0 || a.At(0, 2) != 0 {
		t.Fatal("SyrLower must not touch the upper triangle")
	}
}

func TestSymmetrizeLower(t *testing.T) {
	a := NewMatrixFrom([][]float64{{1, 0}, {7, 2}})
	SymmetrizeLower(a)
	if a.At(0, 1) != 7 {
		t.Fatalf("SymmetrizeLower failed: %v", a.At(0, 1))
	}
}

func TestSymvLower(t *testing.T) {
	// A = [[2,1],[1,3]] stored lower-only.
	a := NewMatrixFrom([][]float64{{2, 0}, {1, 3}})
	x := Vector{1, 2}
	y := NewVector(2)
	SymvLower(a, x, y)
	if y[0] != 2*1+1*2 || y[1] != 1*1+3*2 {
		t.Fatalf("SymvLower = %v", y)
	}
}

func TestSymvLowerMatchesFull(t *testing.T) {
	r := testRand(7)
	n := 9
	full := randSPD(r, n)
	lowerOnly := full.Clone()
	for i := 0; i < n; i++ {
		for j := i + 1; j < n; j++ {
			lowerOnly.Set(i, j, 0)
		}
	}
	x := randVector(r, n)
	y1 := NewVector(n)
	SymvLower(lowerOnly, x, y1)
	y2 := NewVector(n)
	Gemv(1, full, x, 0, y2)
	for i := range y1 {
		if !almostEq(y1[i], y2[i], 1e-12) {
			t.Fatalf("SymvLower mismatch at %d: %v vs %v", i, y1[i], y2[i])
		}
	}
}

func TestAddAndScale(t *testing.T) {
	a := NewMatrixFrom([][]float64{{1, 2}, {3, 4}})
	b := NewMatrixFrom([][]float64{{10, 20}, {30, 40}})
	a.Add(b)
	a.ScaleInPlace(0.5)
	if a.At(0, 0) != 5.5 || a.At(1, 1) != 22 {
		t.Fatalf("Add/Scale result %+v", a.Data)
	}
}

func TestMaxAbsDiff(t *testing.T) {
	a := NewMatrixFrom([][]float64{{1, 2}})
	b := NewMatrixFrom([][]float64{{1.5, 2}})
	if MaxAbsDiff(a, b) != 0.5 {
		t.Fatalf("MaxAbsDiff = %v", MaxAbsDiff(a, b))
	}
}
