package rng

import (
	"math"

	"repro/internal/la"
)

// MVNFromPrecChol samples x ~ N(mu, Λ⁻¹) given the lower Cholesky factor
// L of the precision matrix Λ = L·Lᵀ: draw z ~ N(0, I) and solve
// Lᵀ·y = z, then x = mu + y. It consumes K normal deviates from the stream
// regardless of how L was produced. The hyperparameter draw calls it; an
// item draw ends in core's lane solves, whose sample is la.SolveSPD
// followed by this function on the item's factor, bit for bit.
// scratch must have length K and may alias dst only if mu does not.
func (r *Stream) MVNFromPrecChol(mu la.Vector, precL *la.Matrix, dst, scratch la.Vector) {
	k := len(mu)
	if precL.Rows != k || precL.Cols != k || len(dst) != k || len(scratch) != k {
		panic("rng: MVNFromPrecChol dimension mismatch")
	}
	r.FillNorm(scratch)
	la.SolveLowerT(precL, scratch, scratch)
	for i := range dst {
		dst[i] = mu[i] + scratch[i]
	}
}

// WishartWS samples Λ ~ W(V, nu) — a K x K Wishart variate with scale
// matrix V (given by its lower Cholesky factor scaleL, V = scaleL·scaleLᵀ)
// and nu degrees of freedom — using the Bartlett decomposition:
//
//	A lower-triangular with A[i][i] = sqrt(chi²(nu-i)), A[i][j] ~ N(0,1)
//	for j < i; then Λ = (scaleL·A)(scaleL·A)ᵀ.
//
// The result (only its lower triangle is computed; it is symmetrized
// before return) is written into dst. la.Cholesky of dst then recovers a
// factor for downstream sampling. Requires nu > K-1. a and b are K x K
// scratch for the Bartlett factor and its scaled product, so the draw
// allocates nothing; only their lower triangles are written and read,
// so stale upper-triangle contents from a previous lease are harmless.
func (r *Stream) WishartWS(scaleL *la.Matrix, nu float64, dst, a, b *la.Matrix) {
	k := scaleL.Rows
	if scaleL.Cols != k || dst.Rows != k || dst.Cols != k ||
		a.Rows != k || a.Cols != k || b.Rows != k || b.Cols != k {
		panic("rng: Wishart dimension mismatch")
	}
	if nu <= float64(k-1) {
		panic("rng: Wishart needs nu > K-1")
	}
	// Bartlett factor A.
	for i := 0; i < k; i++ {
		for j := 0; j < i; j++ {
			a.Set(i, j, r.Norm())
		}
		a.Set(i, i, math.Sqrt(r.ChiSq(nu-float64(i))))
	}
	// B = scaleL * A (both lower triangular; B is lower triangular).
	for i := 0; i < k; i++ {
		for j := 0; j <= i; j++ {
			var s float64
			// (scaleL)_{i,t} nonzero for t<=i; A_{t,j} nonzero for t>=j.
			for t := j; t <= i; t++ {
				s += float64(scaleL.At(i, t) * a.At(t, j))
			}
			b.Set(i, j, s)
		}
	}
	// dst = B * Bᵀ.
	for i := 0; i < k; i++ {
		for j := 0; j <= i; j++ {
			var s float64
			for t := 0; t <= j; t++ {
				s += float64(b.At(i, t) * b.At(j, t))
			}
			dst.Set(i, j, s)
		}
	}
	la.SymmetrizeLower(dst)
}
