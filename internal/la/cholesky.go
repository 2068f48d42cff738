package la

import "fmt"

// ErrNotSPD is returned when a Cholesky factorization encounters a
// non-positive pivot, i.e. the matrix is not (numerically) symmetric
// positive definite.
type ErrNotSPD struct {
	Pivot int
	Value float64
}

func (e *ErrNotSPD) Error() string {
	return fmt.Sprintf("la: matrix not positive definite at pivot %d (value %g)", e.Pivot, e.Value)
}

// Cholesky computes the lower-triangular Cholesky factor L of the symmetric
// positive definite matrix A (only the lower triangle of A is read) such
// that A = L*Lᵀ. The factor is written into dst (which may alias A). The
// strictly upper triangle of dst is zeroed. It is CholeskyWS with its lane
// scratch allocated per call.
func Cholesky(a *Matrix, dst *Matrix) error {
	return CholeskyWS(a, dst, make([]float64, Lanes*a.Rows*a.Rows))
}

// CholeskyWS is Cholesky with caller-provided lane scratch (Lanes·n²
// elements, contents ignored and overwritten), performing no allocation:
// dst is factored in place by cholBlock, so through Cholesky4, the
// package's one factorization body. A pivot that is not positive (d ≤ 0
// or NaN) is reported with its value.
func CholeskyWS(a, dst *Matrix, lanes []float64) error {
	n := a.Rows
	if a.Cols != n || dst.Rows != n || dst.Cols != n || len(dst.Data) != n*n || len(lanes) != Lanes*n*n {
		panic("la: Cholesky dimension mismatch")
	}
	if dst != a {
		dst.CopyFrom(a)
	}
	if err := cholBlock(dst, 0, n, lanes); err != nil {
		return err
	}
	for i := 0; i < n; i++ {
		clear(dst.Row(i)[i+1:])
	}
	return nil
}

// cholBlock factors the kb × kb diagonal block of l at (k, k) in place,
// its lower triangle read and written: the triangle is broadcast into every
// lane of lanes[:Lanes·kb²], factored there by Cholesky4 and lane 0's L
// copied back. A refused pivot is reported at its row of l.
func cholBlock(l *Matrix, k, kb int, lanes []float64) error {
	n := l.Cols
	g := lanes[:Lanes*kb*kb]
	for i := 0; i < kb; i++ {
		for j, v := range l.Data[(k+i)*n+k : (k+i)*n+k+i+1] {
			e := g[(i*kb+j)*Lanes : (i*kb+j+1)*Lanes]
			e[0], e[1], e[2], e[3] = v, v, v, v
		}
	}
	if err := Cholesky4(g, kb, 1); err != nil {
		err.(*ErrNotSPD).Pivot += k
		return err
	}
	for i := 0; i < kb; i++ {
		row := l.Data[(k+i)*n+k : (k+i)*n+k+i+1]
		for j := range row {
			row[j] = g[(i*kb+j)*Lanes]
		}
	}
	return nil
}

// SolveLower solves L*y = b for y where L is lower triangular
// (forward substitution). b and y may alias.
func SolveLower(l *Matrix, b, y Vector) {
	n := l.Rows
	if l.Cols != n || len(b) != n || len(y) != n {
		panic("la: SolveLower dimension mismatch")
	}
	for i := 0; i < n; i++ {
		row := l.Row(i)
		s := b[i]
		for k := 0; k < i; k++ {
			s -= float64(row[k] * y[k])
		}
		y[i] = s / row[i]
	}
}

// SolveLowerT solves Lᵀ*y = b for y where L is lower triangular
// (back substitution on the transpose). b and y may alias.
func SolveLowerT(l *Matrix, b, y Vector) {
	n := l.Rows
	if l.Cols != n || len(b) != n || len(y) != n {
		panic("la: SolveLowerT dimension mismatch")
	}
	for i := n - 1; i >= 0; i-- {
		s := b[i]
		for k := i + 1; k < n; k++ {
			s -= float64(l.At(k, i) * y[k])
		}
		y[i] = s / l.At(i, i)
	}
}

// SolveSPD solves A*x = b given the lower Cholesky factor L of A
// (A = L*Lᵀ), using one forward and one backward substitution.
// b and x may alias. scratch must have length n (it may alias x but not b).
func SolveSPD(l *Matrix, b, x, scratch Vector) {
	SolveLower(l, b, scratch)
	SolveLowerT(l, scratch, x)
}

// InvFromCholWS computes A⁻¹ into dst given the lower Cholesky factor L of
// A, with caller-provided scratch (two length-n vectors, contents ignored
// and overwritten), performing no allocation — the hyperparameter sampler
// calls it once per Gibbs iteration. dst must not alias l; e and col must
// not alias each other.
func InvFromCholWS(l *Matrix, dst *Matrix, e, col Vector) {
	n := l.Rows
	if dst.Rows != n || dst.Cols != n || len(e) != n || len(col) != n {
		panic("la: InvFromCholWS dimension mismatch")
	}
	for j := 0; j < n; j++ {
		e.Zero()
		e[j] = 1
		SolveLower(l, e, col)
		SolveLowerT(l, col, col)
		for i := 0; i < n; i++ {
			dst.Set(i, j, col[i])
		}
	}
}
