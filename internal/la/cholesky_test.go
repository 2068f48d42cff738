package la

import (
	"fmt"
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

// upperFactor returns the transposed Cholesky factor U = Lᵀ of a.
func upperFactor(t *testing.T, a *Matrix) *Matrix {
	t.Helper()
	l := NewMatrix(a.Rows, a.Rows)
	if err := Cholesky(a, l); err != nil {
		t.Fatal(err)
	}
	return l.Transpose()
}

// TestCholUpdateMatchesRefactor: updating U with m vectors at once gives the
// factor of A + Σ x_r·x_rᵀ computed from scratch, for m on both sides of a
// four-vector pass.
func TestCholUpdateMatchesRefactor(t *testing.T) {
	for _, n := range []int{1, 2, 4, 8, 16, 32} {
		for _, m := range []int{1, 3, 4, 6} {
			r := testRand(int64(100 + n + 64*m))
			a := randSPD(r, n)
			u := upperFactor(t, a)
			x := randVector(r, m*n)
			// Reference: factor A + Σ x_r·x_rᵀ directly.
			ap := a.Clone()
			for i := 0; i < m; i++ {
				SyrLower(1, x[i*n:(i+1)*n], ap)
			}
			SymmetrizeLower(ap)
			want := upperFactor(t, ap)
			CholUpdateUpper(u, x.Clone())
			if d := MaxAbsDiff(u, want); d > 1e-9 {
				t.Fatalf("n=%d m=%d: CholUpdateUpper deviates from refactorization by %g", n, m, d)
			}
		}
	}
}

func TestCholUpdateSequence(t *testing.T) {
	// Many successive updates must stay consistent (this is exactly the
	// rank-one item-update kernel's usage pattern).
	n := 8
	r := testRand(9)
	acc := Eye(n)
	u := Eye(n)
	for step := 0; step < 50; step++ {
		x := randVector(r, n)
		SyrLower(1, x, acc)
		CholUpdateUpper(u, x.Clone())
	}
	SymmetrizeLower(acc)
	if d := MaxAbsDiff(reconstruct(u.Transpose()), acc); d > 1e-8 {
		t.Fatalf("50 rank-one updates drifted by %g", d)
	}
}

// cholUpdateStrided is the rank-one update la performed before it held the
// factor transposed: one vector at a time on the lower factor L, walking
// column k at stride n. It is the bit reference of CholUpdateUpper.
func cholUpdateStrided(l *Matrix, x Vector) {
	n := l.Rows
	for k := 0; k < n; k++ {
		lkk := l.At(k, k)
		xk := x[k]
		r := math.Hypot(lkk, xk)
		c := r / lkk
		s := xk / lkk
		l.Set(k, k, r)
		if k+1 < n {
			invC := 1 / c
			for i := k + 1; i < n; i++ {
				lik := l.At(i, k)
				v := (lik + float64(s*x[i])) * invC
				x[i] = float64(c*x[i]) - float64(s*v)
				l.Set(i, k, v)
			}
		}
	}
}

// signedZeros overwrites about one element in four of v with −0 or +0.
func signedZeros(r *rand.Rand, v []float64) {
	for i := range v {
		if r.Intn(4) == 0 {
			v[i] = math.Copysign(0, float64(r.Intn(2))-0.5)
		}
	}
}

// TestCholUpdateUpperMatchesStrided: for every split of m = 1…9 vectors
// into consecutive calls, at every order 1…67, CholUpdateUpper on U leaves
// exactly the strided one-vector loop's Lᵀ, and destroys x exactly as that
// loop does. The factor carries −0 above its diagonal and the vectors carry
// signed zeros, so a pass padded with an identity rotation (−0 + +0 = +0)
// would show. Operands sit at odd offsets of larger buffers that are
// compared whole.
func TestCholUpdateUpperMatchesStrided(t *testing.T) {
	r := testRand(186)
	for n := 1; n <= 67; n++ {
		off := 1 + 2*(n%2)
		l := upperFactor(t, randSPD(r, n)).Transpose()
		for i := 0; i < n; i++ {
			signedZeros(r, l.Data[i*n:i*n+i])
		}
		for m := 1; m <= 9; m++ {
			x := payload(r, m*n, off, 0)
			signedZeros(r, x)
			wantL, wantX := l.Clone(), x.Clone()
			for v := 0; v < m; v++ {
				cholUpdateStrided(wantL, wantX[off+v*n:off+(v+1)*n])
			}
			want := payload(r, n*n, off, 0)
			copy(want[off:], wantL.Transpose().Data)

			// Bit p of split ends a call after vector p.
			for split := 0; split < 1<<(m-1); split++ {
				got := want.Clone()
				copy(got[off:], l.Transpose().Data)
				u := &Matrix{Rows: n, Cols: n, Data: got[off : off+n*n]}
				gotX := x.Clone()
				lo := 0
				for p := 0; p < m; p++ {
					if p == m-1 || split&(1<<p) != 0 {
						CholUpdateUpper(u, gotX[off+lo*n:off+(p+1)*n])
						lo = p + 1
					}
				}
				what := fmt.Sprintf("n=%d m=%d split=%b", n, m, split)
				checkBits(t, what+" factor", got, want)
				checkBits(t, what+" vectors", gotX, wantX)
			}
		}
	}
}

// TestSolveUpperMatchesLower: the two upper-form solves on U = Lᵀ are
// SolveLower and SolveLowerT on L bit for bit, out of place and with b and
// y aliased, on a factor and right-hand sides carrying signed zeros.
func TestSolveUpperMatchesLower(t *testing.T) {
	r := testRand(187)
	for n := 1; n <= 67; n++ {
		l := upperFactor(t, randSPD(r, n)).Transpose()
		for i := 0; i < n; i++ {
			signedZeros(r, l.Data[i*n:i*n+i])
		}
		u := l.Transpose()
		b := randVector(r, n)
		signedZeros(r, b)
		for _, s := range []struct {
			name         string
			upper, lower func(*Matrix, Vector, Vector)
		}{{"SolveUpperT", SolveUpperT, SolveLower}, {"SolveUpper", SolveUpper, SolveLowerT}} {
			want, got := NewVector(n), NewVector(n)
			s.lower(l, b, want)
			s.upper(u, b, got)
			checkBits(t, fmt.Sprintf("n=%d %s", n, s.name), got, want)
			got = b.Clone()
			s.upper(u, got, got)
			checkBits(t, fmt.Sprintf("n=%d %s in place", n, s.name), got, want)
		}
	}
}

// tinyAndZeros overwrites about one element in three of v with ±0 or a
// subnormal of either sign.
func tinyAndZeros(r *rand.Rand, v []float64) {
	tiny := []float64{0, math.Copysign(0, -1), 5e-324, -5e-324, 2.5e-310, -1e-315}
	for i := range v {
		if r.Intn(3) == 0 {
			v[i] = tiny[r.Intn(len(tiny))]
		}
	}
}

// TestSolvePairMatchesSingles: each vector of SolveUpperPair and
// SolveLowerTPair is SolveUpper's and SolveLowerT's bit for bit at every
// order 1…67, with ±0 and subnormals planted in the factor's off-diagonal
// part and in both right-hand sides, and when the two right-hand sides
// hold equal values.
func TestSolvePairMatchesSingles(t *testing.T) {
	r := testRand(29)
	for n := 1; n <= 67; n++ {
		l := upperFactor(t, randSPD(r, n)).Transpose()
		for i := 0; i < n; i++ {
			tinyAndZeros(r, l.Data[i*n:i*n+i])
		}
		u := l.Transpose()
		x, y := randVector(r, n), randVector(r, n)
		tinyAndZeros(r, x)
		tinyAndZeros(r, y)
		for _, rhs := range []struct {
			name string
			a, b Vector
		}{{"distinct", x, y}, {"equal", x, x}} {
			for _, s := range []struct {
				name   string
				m      *Matrix
				single func(*Matrix, Vector, Vector)
				pair   func(*Matrix, Vector, Vector)
			}{{"SolveUpperPair", u, SolveUpper, SolveUpperPair}, {"SolveLowerTPair", l, SolveLowerT, SolveLowerTPair}} {
				wantA, wantB := NewVector(n), NewVector(n)
				s.single(s.m, rhs.a, wantA)
				s.single(s.m, rhs.b, wantB)
				gotA, gotB := rhs.a.Clone(), rhs.b.Clone()
				s.pair(s.m, gotA, gotB)
				what := fmt.Sprintf("n=%d %s %s", n, s.name, rhs.name)
				checkBits(t, what+" a", gotA, wantA)
				checkBits(t, what+" b", gotB, wantB)
			}
		}
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

// TestInvFromChol: InvFromCholWS inverts A whatever its scratch vectors
// hold on entry.
func TestInvFromChol(t *testing.T) {
	r := testRand(13)
	n := 7
	a := randSPD(r, n)
	l := NewMatrix(n, n)
	if err := Cholesky(a, l); err != nil {
		t.Fatal(err)
	}
	inv := NewMatrix(n, n)
	InvFromCholWS(l, inv, randVector(r, n), randVector(r, n))
	prod := NewMatrix(n, n)
	Gemm(1, a, inv, 0, prod)
	if d := MaxAbsDiff(prod, Eye(n)); d > 1e-9 {
		t.Fatalf("A·A⁻¹ deviates from I by %g", d)
	}
}
