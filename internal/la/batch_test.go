package la_test

import (
	"testing"

	. "repro/internal/la"
	"repro/internal/rng"
)

// The contract of the blocked/unrolled kernels is not "close": it is
// bit-identical to the naive reference loops, because cross-engine
// reproducibility of the sampler rests on a fixed floating-point
// summation order. These property tests pin that contract on random
// inputs, including the 1–3-element tails of the four-wide blocking.

func dotNaive(x, y Vector) float64 {
	var s float64
	for i, xi := range x {
		s += xi * y[i]
	}
	return s
}

func TestDotBitMatchesNaive(t *testing.T) {
	r := rng.New(41)
	for n := 0; n <= 33; n++ {
		x, y := NewVector(n), NewVector(n)
		r.FillNorm(x)
		r.FillNorm(y)
		if got, want := Dot(x, y), dotNaive(x, y); got != want {
			t.Fatalf("n=%d: Dot %v != naive %v", n, got, want)
		}
	}
}

func TestAxpyBitMatchesNaive(t *testing.T) {
	r := rng.New(42)
	for n := 0; n <= 33; n++ {
		x, y := NewVector(n), NewVector(n)
		r.FillNorm(x)
		r.FillNorm(y)
		want := y.Clone()
		for i, xi := range x {
			want[i] += 0.7 * xi
		}
		Axpy(0.7, x, y)
		for i := range y {
			if y[i] != want[i] {
				t.Fatalf("n=%d: Axpy[%d] %v != naive %v", n, i, y[i], want[i])
			}
		}
	}
}

func TestGemvBitMatchesNaive(t *testing.T) {
	r := rng.New(43)
	for _, dims := range [][2]int{{1, 1}, {3, 5}, {7, 4}, {8, 8}, {5, 33}} {
		m, n := dims[0], dims[1]
		a := NewMatrix(m, n)
		r.FillNorm(a.Data)
		x, y := NewVector(n), NewVector(m)
		r.FillNorm(x)
		r.FillNorm(y)
		want := y.Clone()
		for i := 0; i < m; i++ {
			want[i] = 1.3*dotNaive(a.Row(i), x) + 0.2*want[i]
		}
		Gemv(1.3, a, x, 0.2, y)
		for i := range y {
			if y[i] != want[i] {
				t.Fatalf("%dx%d: Gemv[%d] %v != naive %v", m, n, i, y[i], want[i])
			}
		}
	}
}

// gatherProblem builds a random gather: src rows plus index/value lists.
func gatherProblem(r *rng.Stream, nnz, nRows, k int) (*Matrix, []int32, []float64) {
	src := NewMatrix(nRows, k)
	r.FillNorm(src.Data)
	cols := make([]int32, nnz)
	vals := make([]float64, nnz)
	for p := range cols {
		cols[p] = int32(r.Intn(nRows))
		vals[p] = r.Norm()
	}
	return src, cols, vals
}

func TestSyrkAxpyBatchLowerWithoutRhsBitMatchesNaive(t *testing.T) {
	r := rng.New(44)
	for _, k := range []int{1, 3, 8, 17} {
		// Cover every tail length 0–3 at several block counts.
		for _, nnz := range []int{0, 1, 2, 3, 4, 5, 6, 7, 8, 9, 15, 64, 65, 66, 67} {
			src, cols, vals := gatherProblem(r, nnz, nnz+5, k)
			a := NewMatrix(k, k)
			r.FillNorm(a.Data)
			want := a.Clone()
			for _, c := range cols {
				SyrLower(0.9, src.Row(int(c)), want)
			}
			SyrkAxpyBatchLower(0.9, src, cols, vals, a, NewVector(k))
			if MaxAbsDiff(a, want) != 0 {
				t.Fatalf("k=%d nnz=%d: SyrkAxpyBatchLower's triangle does not bit-match nnz SyrLower calls", k, nnz)
			}
		}
	}
}

func TestSyrkAxpyBatchLowerBitMatchesInterleavedNaive(t *testing.T) {
	r := rng.New(45)
	for _, k := range []int{1, 5, 8, 32} {
		for _, nnz := range []int{0, 1, 2, 3, 5, 9, 31, 129, 130, 131} {
			src, cols, vals := gatherProblem(r, nnz, nnz+3, k)
			a := NewMatrix(k, k)
			r.FillNorm(a.Data)
			y := NewVector(k)
			r.FillNorm(y)
			wantA, wantY := a.Clone(), y.Clone()
			// The reference is the original per-rating item-update loop:
			// SyrLower then Axpy, rating index ascending.
			for p, c := range cols {
				x := src.Row(int(c))
				SyrLower(2.0, x, wantA)
				Axpy(2.0*vals[p], x, wantY)
			}
			SyrkAxpyBatchLower(2.0, src, cols, vals, a, y)
			if MaxAbsDiff(a, wantA) != 0 {
				t.Fatalf("k=%d nnz=%d: fused precision does not bit-match", k, nnz)
			}
			for i := range y {
				if y[i] != wantY[i] {
					t.Fatalf("k=%d nnz=%d: fused rhs[%d] %v != %v", k, nnz, i, y[i], wantY[i])
				}
			}
		}
	}
}

func TestSyrkAxpyBatchLowerLeavesUpperTriangleUntouched(t *testing.T) {
	r := rng.New(46)
	k := 6
	src, cols, vals := gatherProblem(r, 9, 12, k)
	a := NewMatrix(k, k)
	r.FillNorm(a.Data)
	before := a.Clone()
	SyrkAxpyBatchLower(1.5, src, cols, vals, a, NewVector(k))
	for i := 0; i < k; i++ {
		for j := i + 1; j < k; j++ {
			if a.At(i, j) != before.At(i, j) {
				t.Fatalf("upper element (%d,%d) modified", i, j)
			}
		}
	}
}

// Panel sizes worth covering: empty, sub-panel, exactly one panel, one
// panel plus tails of 1–3 (the four-wide blocking inside a panel), and
// several panels.
var panelNNZ = []int{0, 1, 3, 63, 64, 65, 66, 67, 128, 200}

func TestSyrkAxpyPanelLowerBitMatchesUnpanelled(t *testing.T) {
	r := rng.New(51)
	for _, k := range []int{1, 5, 16, 32} {
		for _, nnz := range panelNNZ {
			src, cols, vals := gatherProblem(r, nnz, nnz+3, k)
			a := NewMatrix(k, k)
			r.FillNorm(a.Data)
			y := NewVector(k)
			r.FillNorm(y)
			wantA, wantY := a.Clone(), y.Clone()
			SyrkAxpyBatchLower(1.7, src, cols, vals, wantA, wantY)
			panel := NewMatrix(GatherPanelRows, k)
			r.FillNorm(panel.Data) // stale panel contents must not matter
			SyrkAxpyPanelLower(1.7, src, cols, vals, a, y, panel)
			if MaxAbsDiff(a, wantA) != 0 {
				t.Fatalf("k=%d nnz=%d: panel precision does not bit-match", k, nnz)
			}
			for i := range y {
				if y[i] != wantY[i] {
					t.Fatalf("k=%d nnz=%d: panel rhs[%d] %v != %v", k, nnz, i, y[i], wantY[i])
				}
			}
		}
	}
}

func TestGatherRows(t *testing.T) {
	r := rng.New(53)
	src, cols, _ := gatherProblem(r, 7, 11, 5)
	dst := NewMatrix(GatherPanelRows, 5)
	r.FillNorm(dst.Data)
	GatherRows(src, cols, dst)
	for p, c := range cols {
		for j := 0; j < 5; j++ {
			if dst.At(p, j) != src.At(int(c), j) {
				t.Fatalf("panel row %d differs from src row %d at col %d", p, c, j)
			}
		}
	}
	func() {
		defer func() {
			if recover() == nil {
				t.Fatal("undersized panel must panic")
			}
		}()
		GatherRows(src, cols, NewMatrix(len(cols)-1, 5))
	}()
}

func TestTransposeIntoMatchesTranspose(t *testing.T) {
	r := rng.New(47)
	m := NewMatrix(5, 8)
	r.FillNorm(m.Data)
	want := m.Transpose()
	dst := NewMatrix(8, 5)
	r.FillNorm(dst.Data) // stale contents must be fully overwritten
	m.TransposeInto(dst)
	if MaxAbsDiff(dst, want) != 0 {
		t.Fatal("TransposeInto differs from Transpose")
	}
	func() {
		defer func() {
			if recover() == nil {
				t.Fatal("dimension mismatch must panic")
			}
		}()
		m.TransposeInto(NewMatrix(5, 8))
	}()
}

func TestInvFromCholWSMatchesAlloc(t *testing.T) {
	r := rng.New(48)
	n := 7
	g := NewMatrix(n, n)
	r.FillNorm(g.Data)
	a := NewMatrix(n, n)
	Gemm(1, g, g.Transpose(), 0, a)
	for i := 0; i < n; i++ {
		a.Set(i, i, a.At(i, i)+float64(n))
	}
	l := NewMatrix(n, n)
	if err := Cholesky(a, l); err != nil {
		t.Fatal(err)
	}
	want := NewMatrix(n, n)
	InvFromChol(l, want)
	got := NewMatrix(n, n)
	e, col := NewVector(n), NewVector(n)
	r.FillNorm(e) // scratch contents must not matter
	r.FillNorm(col)
	InvFromCholWS(l, got, e, col)
	if MaxAbsDiff(got, want) != 0 {
		t.Fatal("InvFromCholWS differs from InvFromChol")
	}
}
