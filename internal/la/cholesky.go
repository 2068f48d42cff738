package la

import (
	"fmt"
	"math"
)

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
// strictly upper triangle of dst is zeroed.
//
// The loop is right-looking: pivot k takes its square root, scales column k
// and subtracts l_ik·l_jk from every element (i, j) of the trailing lower
// triangle. Each element so receives its updates for k ascending and then
// one scaling — the order, and the bits, of the left-looking inner products
// — but the updates of one pivot are independent of each other, so they
// vectorise (cholTrail). Column k is kept contiguous in row k's strictly
// upper part, which is scratch until the final zeroing.
func Cholesky(a *Matrix, dst *Matrix) error {
	n := a.Rows
	if a.Cols != n || dst.Rows != n || dst.Cols != n || len(dst.Data) != n*n {
		panic("la: Cholesky dimension mismatch")
	}
	if dst != a {
		dst.CopyFrom(a)
	}
	l := dst.Data
	for k := 0; k < n; k++ {
		rowk := l[k*n : (k+1)*n]
		d := rowk[k]
		if d <= 0 || math.IsNaN(d) {
			return &ErrNotSPD{Pivot: k, Value: d}
		}
		d = math.Sqrt(d)
		rowk[k] = d
		inv := 1 / d
		for i := k + 1; i < n; i++ {
			v := l[i*n+k] * inv
			l[i*n+k] = v
			rowk[i] = v
		}
		cholTrail(l, n, k)
	}
	// Zero the strictly upper triangle so dst is a clean lower factor.
	for i := 0; i < n; i++ {
		row := dst.Row(i)
		for j := i + 1; j < n; j++ {
			row[j] = 0
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
