package la

import (
	"math"
	"math/rand"
	"testing"
)

// testRand returns a deterministic PRNG for test data (math/rand is fine
// here; keyed streams are only required inside the sampler).
func testRand(seed int64) *rand.Rand { return rand.New(rand.NewSource(seed)) }

func randVector(r *rand.Rand, n int) Vector {
	v := NewVector(n)
	for i := range v {
		v[i] = r.NormFloat64()
	}
	return v
}

func randMatrix(r *rand.Rand, m, n int) *Matrix {
	a := NewMatrix(m, n)
	for i := range a.Data {
		a.Data[i] = r.NormFloat64()
	}
	return a
}

// randSPD builds a well-conditioned random SPD matrix B·Bᵀ + n·I.
func randSPD(r *rand.Rand, n int) *Matrix {
	b := randMatrix(r, n, n)
	a := NewMatrix(n, n)
	Gemm(1, b, b.Transpose(), 0, a)
	for i := 0; i < n; i++ {
		a.Set(i, i, a.At(i, i)+float64(n))
	}
	return a
}

// reconstruct computes L·Lᵀ.
func reconstruct(l *Matrix) *Matrix {
	n := l.Rows
	a := NewMatrix(n, n)
	Gemm(1, l, l.Transpose(), 0, a)
	return a
}

func TestCholeskyKnown(t *testing.T) {
	// A = [[4,2],[2,3]] has L = [[2,0],[1,sqrt(2)]].
	a := NewMatrixFrom([][]float64{{4, 2}, {2, 3}})
	l := NewMatrix(2, 2)
	if err := Cholesky(a, l); err != nil {
		t.Fatal(err)
	}
	if !almostEq(l.At(0, 0), 2, 1e-15) || !almostEq(l.At(1, 0), 1, 1e-15) ||
		!almostEq(l.At(1, 1), math.Sqrt2, 1e-15) || l.At(0, 1) != 0 {
		t.Fatalf("Cholesky factor wrong: %+v", l.Data)
	}
}

func TestCholeskyReconstruct(t *testing.T) {
	for _, n := range []int{1, 2, 3, 5, 8, 17, 33, 64} {
		r := testRand(int64(n))
		a := randSPD(r, n)
		l := NewMatrix(n, n)
		if err := Cholesky(a, l); err != nil {
			t.Fatalf("n=%d: %v", n, err)
		}
		if d := MaxAbsDiff(reconstruct(l), a); d > 1e-9*float64(n) {
			t.Fatalf("n=%d: reconstruction error %g", n, d)
		}
	}
}

func TestCholeskyInPlace(t *testing.T) {
	r := testRand(3)
	a := randSPD(r, 6)
	want := NewMatrix(6, 6)
	if err := Cholesky(a, want); err != nil {
		t.Fatal(err)
	}
	if err := Cholesky(a, a); err != nil { // aliasing dst == a
		t.Fatal(err)
	}
	if MaxAbsDiff(a, want) != 0 {
		t.Fatal("in-place Cholesky differs from out-of-place")
	}
}

func TestCholeskyNotSPD(t *testing.T) {
	a := NewMatrixFrom([][]float64{{1, 0}, {0, -1}})
	l := NewMatrix(2, 2)
	err := Cholesky(a, l)
	if err == nil {
		t.Fatal("expected ErrNotSPD")
	}
	if _, ok := err.(*ErrNotSPD); !ok {
		t.Fatalf("expected *ErrNotSPD, got %T", err)
	}
}

func TestCholUpdateMatchesRefactor(t *testing.T) {
	for _, n := range []int{1, 2, 4, 8, 16, 32} {
		r := testRand(int64(100 + n))
		a := randSPD(r, n)
		l := NewMatrix(n, n)
		if err := Cholesky(a, l); err != nil {
			t.Fatal(err)
		}
		x := randVector(r, n)
		// Reference: factor A + x·xᵀ directly.
		ap := a.Clone()
		SyrLower(1, x, ap)
		SymmetrizeLower(ap)
		want := NewMatrix(n, n)
		if err := Cholesky(ap, want); err != nil {
			t.Fatal(err)
		}
		CholUpdate(l, x.Clone())
		if d := MaxAbsDiff(l, want); d > 1e-9 {
			t.Fatalf("n=%d: CholUpdate deviates from refactorization by %g", n, d)
		}
	}
}

func TestCholUpdateSequence(t *testing.T) {
	// Many successive updates must stay consistent (this is exactly the
	// rank-one item-update kernel's usage pattern).
	n := 8
	r := testRand(9)
	a := Eye(n)
	l := NewMatrix(n, n)
	if err := Cholesky(a, l); err != nil {
		t.Fatal(err)
	}
	acc := a.Clone()
	for step := 0; step < 50; step++ {
		x := randVector(r, n)
		SyrLower(1, x, acc)
		CholUpdate(l, x.Clone())
	}
	SymmetrizeLower(acc)
	if d := MaxAbsDiff(reconstruct(l), acc); d > 1e-8 {
		t.Fatalf("50 rank-one updates drifted by %g", d)
	}
}

func TestSolveLowerAndT(t *testing.T) {
	r := testRand(5)
	n := 12
	a := randSPD(r, n)
	l := NewMatrix(n, n)
	if err := Cholesky(a, l); err != nil {
		t.Fatal(err)
	}
	b := randVector(r, n)
	y := NewVector(n)
	SolveLower(l, b, y)
	// L·y must equal b.
	ly := NewVector(n)
	Gemv(1, l, y, 0, ly)
	for i := range b {
		if !almostEq(ly[i], b[i], 1e-10) {
			t.Fatalf("SolveLower residual at %d: %v vs %v", i, ly[i], b[i])
		}
	}
	z := NewVector(n)
	SolveLowerT(l, b, z)
	ltz := NewVector(n)
	Gemv(1, l.Transpose(), z, 0, ltz)
	for i := range b {
		if !almostEq(ltz[i], b[i], 1e-10) {
			t.Fatalf("SolveLowerT residual at %d: %v vs %v", i, ltz[i], b[i])
		}
	}
}

func TestSolveSPD(t *testing.T) {
	r := testRand(11)
	n := 10
	a := randSPD(r, n)
	l := NewMatrix(n, n)
	if err := Cholesky(a, l); err != nil {
		t.Fatal(err)
	}
	b := randVector(r, n)
	x := NewVector(n)
	scratch := NewVector(n)
	SolveSPD(l, b, x, scratch)
	ax := NewVector(n)
	Gemv(1, a, x, 0, ax)
	for i := range b {
		if !almostEq(ax[i], b[i], 1e-9) {
			t.Fatalf("SolveSPD residual at %d: %v vs %v", i, ax[i], b[i])
		}
	}
}

func TestInvFromChol(t *testing.T) {
	r := testRand(13)
	n := 7
	a := randSPD(r, n)
	l := NewMatrix(n, n)
	if err := Cholesky(a, l); err != nil {
		t.Fatal(err)
	}
	inv := NewMatrix(n, n)
	InvFromChol(l, inv)
	prod := NewMatrix(n, n)
	Gemm(1, a, inv, 0, prod)
	if d := MaxAbsDiff(prod, Eye(n)); d > 1e-9 {
		t.Fatalf("A·A⁻¹ deviates from I by %g", d)
	}
}
