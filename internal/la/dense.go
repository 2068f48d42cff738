// Package la provides the dense linear algebra kernels BPMF needs: vectors,
// row-major matrices, BLAS-like building blocks (dot, axpy, gemv, syrk, ger),
// Cholesky factorizations (serial, rank-one updated, and blocked parallel),
// triangular solves and SPD inversion.
//
// It replaces the Eigen C++ library the paper's implementation uses. All
// kernels are written so that, for a fixed input, the floating-point
// operation order is fixed: results are bit-reproducible regardless of
// thread schedule (the blocked parallel Cholesky decomposes into a fixed
// task DAG whose per-task arithmetic order does not depend on which worker
// runs it).
//
// On amd64 ten inner loops — three for the dense item update, one for
// Gemv (four rows at a time), one for a ranking's integer pass
// (blocks8.go's BlockDot8, exact int32 sums of eight catalogue rows a
// register over an int8 block copy), and the five lane kernels (lanes.go:
// four items at a time, one per register lane: the rank-one factor update,
// the Cholesky pack and factor, the forward solve and the paired
// back-solve) — run as hand-written AVX2 assembly that computes the same
// bits as the Go loops it stands in for, so results are identical with and
// without it. Every Cholesky factorization runs the one lane factor body,
// Cholesky4. The three dense ones also have AVX-512 bodies, eight elements
// a register with each run's last count mod 8 under one opmask, which run
// where the CPU and the OS support them; the dispatch order is AVX-512, AVX2, Go (the purego build tag removes the
// assembly; a CPU or OS without AVX2 falls back by itself). The lane kernels
// compute hypot themselves, with amd64's math.Hypot operations and the
// square rounded on its own, so the rank-one update no longer takes
// arm64's math.Hypot, which fuses it.
// Bits are per GOARCH, though: the arm64 compiler fuses x*y + z into one
// rounding where the amd64 one does not, and benchmark/reference.json is
// pinned on amd64.
package la

import (
	"fmt"
	"math"
)

// Vector is a dense float64 vector.
type Vector []float64

// NewVector returns a zero vector of length n.
func NewVector(n int) Vector { return make(Vector, n) }

// Clone returns a copy of v.
func (v Vector) Clone() Vector {
	w := make(Vector, len(v))
	copy(w, v)
	return w
}

// Zero sets every element of v to 0.
func (v Vector) Zero() {
	for i := range v {
		v[i] = 0
	}
}

// Dot returns the inner product of x and y. Panics if lengths differ.
//
// The loop is unrolled four-wide with a single accumulator, so the
// floating-point summation order (and hence the result, bit for bit) is
// identical to the plain `for i { s += x[i]*y[i] }` reference; the unroll
// only removes loop-control and bounds-check overhead.
func Dot(x, y Vector) float64 {
	n := len(x)
	if n != len(y) {
		panic(fmt.Sprintf("la: Dot length mismatch %d vs %d", n, len(y)))
	}
	y = y[:n]
	var s float64
	i := 0
	for ; i+4 <= n; i += 4 {
		s += x[i] * y[i]
		s += x[i+1] * y[i+1]
		s += x[i+2] * y[i+2]
		s += x[i+3] * y[i+3]
	}
	for ; i < n; i++ {
		s += x[i] * y[i]
	}
	return s
}

// Axpy computes y += alpha*x in place. Element updates are independent, so
// the vector body and the scalar loop give the same bits.
func Axpy(alpha float64, x, y Vector) {
	if len(x) != len(y) {
		panic(fmt.Sprintf("la: Axpy length mismatch %d vs %d", len(x), len(y)))
	}
	axpy1(alpha, x, y)
}

// Scal computes x *= alpha in place.
func Scal(alpha float64, x Vector) {
	for i := range x {
		x[i] *= alpha
	}
}

// Matrix is a dense row-major matrix.
type Matrix struct {
	Rows, Cols int
	Data       []float64 // len Rows*Cols, row-major
}

// NewMatrix returns a zero Rows x Cols matrix.
func NewMatrix(rows, cols int) *Matrix {
	if rows < 0 || cols < 0 {
		panic("la: negative matrix dimension")
	}
	return &Matrix{Rows: rows, Cols: cols, Data: make([]float64, rows*cols)}
}

// NewMatrixFrom builds a matrix from a row-major slice of slices.
func NewMatrixFrom(rows [][]float64) *Matrix {
	if len(rows) == 0 {
		return NewMatrix(0, 0)
	}
	m := NewMatrix(len(rows), len(rows[0]))
	for i, r := range rows {
		if len(r) != m.Cols {
			panic("la: ragged rows in NewMatrixFrom")
		}
		copy(m.Row(i), r)
	}
	return m
}

// Eye returns the n x n identity matrix.
func Eye(n int) *Matrix {
	m := NewMatrix(n, n)
	for i := 0; i < n; i++ {
		m.Data[i*n+i] = 1
	}
	return m
}

// At returns element (i, j).
func (m *Matrix) At(i, j int) float64 { return m.Data[i*m.Cols+j] }

// Set assigns element (i, j).
func (m *Matrix) Set(i, j int, v float64) { m.Data[i*m.Cols+j] = v }

// Row returns a mutable view of row i.
func (m *Matrix) Row(i int) Vector { return Vector(m.Data[i*m.Cols : (i+1)*m.Cols]) }

// Clone returns a deep copy of m.
func (m *Matrix) Clone() *Matrix {
	c := NewMatrix(m.Rows, m.Cols)
	copy(c.Data, m.Data)
	return c
}

// CopyFrom overwrites m with src. Dimensions must match.
func (m *Matrix) CopyFrom(src *Matrix) {
	if m.Rows != src.Rows || m.Cols != src.Cols {
		panic("la: CopyFrom dimension mismatch")
	}
	copy(m.Data, src.Data)
}

// Zero sets every element of m to 0.
func (m *Matrix) Zero() {
	for i := range m.Data {
		m.Data[i] = 0
	}
}

// Add computes m += a element-wise.
func (m *Matrix) Add(a *Matrix) {
	if m.Rows != a.Rows || m.Cols != a.Cols {
		panic("la: Add dimension mismatch")
	}
	for i, v := range a.Data {
		m.Data[i] += v
	}
}

// ScaleInPlace computes m *= alpha element-wise.
func (m *Matrix) ScaleInPlace(alpha float64) {
	for i := range m.Data {
		m.Data[i] *= alpha
	}
}

// Transpose returns a new matrix that is the transpose of m.
func (m *Matrix) Transpose() *Matrix {
	t := NewMatrix(m.Cols, m.Rows)
	m.TransposeInto(t)
	return t
}

// TransposeInto writes mᵀ into dst without allocating. dst must be
// m.Cols x m.Rows and must not alias m.
func (m *Matrix) TransposeInto(dst *Matrix) {
	if dst.Rows != m.Cols || dst.Cols != m.Rows {
		panic("la: TransposeInto dimension mismatch")
	}
	if dst == m || (len(dst.Data) > 0 && len(m.Data) > 0 && &dst.Data[0] == &m.Data[0]) {
		panic("la: TransposeInto cannot alias its receiver")
	}
	for i := 0; i < m.Rows; i++ {
		row := m.Row(i)
		for j, v := range row {
			dst.Data[j*dst.Cols+i] = v
		}
	}
}

// Gemv computes y = alpha*A*x + beta*y. With beta == 0, y is not read (the
// BLAS convention): y[i] = alpha*s, so a stale Inf or NaN in y cannot reach
// the result.
//
// Rows go four at a time through dot4, one lane per row, and the last
// Rows mod 4 through Dot; either way row i's inner product s is Dot(A_i, x)
// bit for bit — one chain from +0 in ascending column order.
func Gemv(alpha float64, a *Matrix, x Vector, beta float64, y Vector) {
	m, n := a.Rows, a.Cols
	if n != len(x) || m != len(y) {
		panic("la: Gemv dimension mismatch")
	}
	i := 0
	for ; i+4 <= m; i += 4 {
		blk := a.Data[i*n : (i+4)*n]
		s0, s1, s2, s3 := dot4(blk, n, x)
		for j := n &^ 3; j < n; j++ {
			s0 += blk[j] * x[j]
			s1 += blk[n+j] * x[j]
			s2 += blk[2*n+j] * x[j]
			s3 += blk[3*n+j] * x[j]
		}
		gemvOut(alpha, s0, beta, &y[i])
		gemvOut(alpha, s1, beta, &y[i+1])
		gemvOut(alpha, s2, beta, &y[i+2])
		gemvOut(alpha, s3, beta, &y[i+3])
	}
	for ; i < m; i++ {
		gemvOut(alpha, Dot(a.Row(i), x), beta, &y[i])
	}
}

// gemvOut stores alpha*s + beta*y into y, reading y only when beta != 0.
func gemvOut(alpha, s, beta float64, y *float64) {
	if beta == 0 {
		*y = alpha * s
	} else {
		*y = alpha*s + beta*(*y)
	}
}

// SyrLower computes the symmetric rank-one update A += alpha * x * xᵀ,
// writing only the lower triangle (including the diagonal). A must be
// square with dimension len(x).
func SyrLower(alpha float64, x Vector, a *Matrix) {
	n := len(x)
	if a.Rows != n || a.Cols != n {
		panic("la: SyrLower dimension mismatch")
	}
	for i := 0; i < n; i++ {
		axpy1(alpha*x[i], x[:i+1], a.Row(i)[:i+1])
	}
}

// SyrkAxpyBatchLower fuses the two accumulations of the BPMF item update
// into one gathered pass over the rating rows:
//
//	A += alpha * Σ_p x_p · x_pᵀ       (lower triangle, diagonal included)
//	y += Σ_p (alpha · vals[p]) · x_p   (the posterior rhs)
//
// where x_p = src[cols[p]], processing four rating rows per pass (axpy4,
// syrk4) instead of len(cols) independent SyrLower calls. Blocking quarters
// the accumulator's load/store traffic and amortizes row-gather overhead —
// this is the dominant kernel of the serial- and parallel-Cholesky item
// updates (Figure 2), see PERF.md.
//
// Per memory element the summation order is ascending p with one chained
// accumulation, so the result is bit-identical to the naive interleaved
// SyrLower/Axpy per-rating loop for any nnz, the 1–3-row tail included.
func SyrkAxpyBatchLower(alpha float64, src *Matrix, cols []int32, vals []float64, a *Matrix, y Vector) {
	n := a.Rows
	if a.Cols != n || src.Cols != n || len(a.Data) != n*n {
		panic("la: SyrkAxpyBatchLower dimension mismatch")
	}
	if len(y) != n || len(vals) != len(cols) {
		panic("la: SyrkAxpyBatchLower rhs dimension mismatch")
	}
	p := 0
	for ; p+4 <= len(cols); p += 4 {
		x0 := src.Row(int(cols[p]))
		x1 := src.Row(int(cols[p+1]))
		x2 := src.Row(int(cols[p+2]))
		x3 := src.Row(int(cols[p+3]))
		axpy4(alpha*vals[p], alpha*vals[p+1], alpha*vals[p+2], alpha*vals[p+3], x0, x1, x2, x3, y)
		syrk4(alpha, x0, x1, x2, x3, a.Data)
	}
	// Tail of 1–3 rows: plain per-rating updates, still ascending p.
	for ; p < len(cols); p++ {
		x := src.Row(int(cols[p]))
		Axpy(alpha*vals[p], x, y)
		SyrLower(alpha, x, a)
	}
}

// SyrkSumRowsLower is SyrkAxpyBatchLower over rows [lo, hi) of src with
// alpha and every weight 1:
//
//	A += Σ_i x_i · x_iᵀ   (lower triangle, diagonal included)
//	y += Σ_i x_i
//
// four rows per pass. 1·x is exact, so the result is bit-identical to one
// Axpy(1, x_i, y) and SyrLower(1, x_i, a) per row in ascending i.
func SyrkSumRowsLower(src *Matrix, lo, hi int, a *Matrix, y Vector) {
	n := a.Rows
	if a.Cols != n || src.Cols != n || len(a.Data) != n*n || len(y) != n {
		panic("la: SyrkSumRowsLower dimension mismatch")
	}
	i := lo
	for ; i+4 <= hi; i += 4 {
		x0, x1, x2, x3 := src.Row(i), src.Row(i+1), src.Row(i+2), src.Row(i+3)
		axpy4(1, 1, 1, 1, x0, x1, x2, x3, y)
		syrk4(1, x0, x1, x2, x3, a.Data)
	}
	for ; i < hi; i++ {
		x := src.Row(i)
		Axpy(1, x, y)
		SyrLower(1, x, a)
	}
}

// SymmetrizeLower copies the lower triangle of a onto its upper triangle.
func SymmetrizeLower(a *Matrix) {
	if a.Rows != a.Cols {
		panic("la: SymmetrizeLower needs square matrix")
	}
	n := a.Rows
	for i := 0; i < n; i++ {
		for j := 0; j < i; j++ {
			a.Data[j*n+i] = a.Data[i*n+j]
		}
	}
}

// SymvLower computes y = A*x for symmetric A stored in its lower triangle.
func SymvLower(a *Matrix, x, y Vector) {
	n := len(x)
	if a.Rows != n || a.Cols != n || len(y) != n {
		panic("la: SymvLower dimension mismatch")
	}
	for i := range y {
		y[i] = 0
	}
	for i := 0; i < n; i++ {
		row := a.Row(i)
		s := 0.0
		for j := 0; j < i; j++ {
			s += row[j] * x[j]
			y[j] += row[j] * x[i]
		}
		y[i] += s + row[i]*x[i]
	}
}

// MaxAbsDiff returns the maximum absolute element-wise difference between
// a and b, useful in tests.
func MaxAbsDiff(a, b *Matrix) float64 {
	if a.Rows != b.Rows || a.Cols != b.Cols {
		panic("la: MaxAbsDiff dimension mismatch")
	}
	var m float64
	for i, v := range a.Data {
		d := math.Abs(v - b.Data[i])
		if d > m {
			m = d
		}
	}
	return m
}
