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
// On amd64 the inner loops of the dense item update (kernels.go) run as
// hand-written AVX2 assembly that computes the same bits as the Go loops it
// stands in for, so results are identical with and without it (the purego
// build tag removes it; a CPU or OS without AVX2 falls back by itself).
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

// Gemv computes y = alpha*A*x + beta*y. Each row's inner product runs
// through the unrolled Dot, keeping the per-row summation order of the
// scalar reference.
func Gemv(alpha float64, a *Matrix, x Vector, beta float64, y Vector) {
	if a.Cols != len(x) || a.Rows != len(y) {
		panic("la: Gemv dimension mismatch")
	}
	for i := 0; i < a.Rows; i++ {
		s := Dot(a.Row(i), x)
		y[i] = alpha*s + beta*y[i]
	}
}

// Gemm computes C = alpha*A*B + beta*C (no transposition).
func Gemm(alpha float64, a, b *Matrix, beta float64, c *Matrix) {
	if a.Cols != b.Rows || c.Rows != a.Rows || c.Cols != b.Cols {
		panic("la: Gemm dimension mismatch")
	}
	for i := 0; i < c.Rows; i++ {
		crow := c.Row(i)
		if beta == 0 {
			crow.Zero()
		} else if beta != 1 {
			Scal(beta, crow)
		}
		arow := a.Row(i)
		for k, aik := range arow {
			if aik == 0 {
				continue
			}
			brow := b.Row(k)
			f := alpha * aik
			for j, bkj := range brow {
				crow[j] += f * bkj
			}
		}
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
