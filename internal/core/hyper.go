package core

import (
	"math"

	"repro/internal/la"
	"repro/internal/rng"
)

// NWPrior is the fixed, uninformative Normal–Wishart hyperprior the paper
// places on each side's Gaussian prior: Λ ~ W(W0, ν0), μ | Λ ~
// N(μ0, (β0 Λ)⁻¹). Defaults follow Salakhutdinov & Mnih: μ0 = 0, β0 = 2,
// ν0 = K, W0 = I.
type NWPrior struct {
	Mu0   la.Vector
	Beta0 float64
	Nu0   float64
	W0Inv *la.Matrix // inverse of the scale matrix (identity by default)
}

// DefaultNWPrior returns the standard BPMF hyperprior for K latent
// features.
func DefaultNWPrior(k int) NWPrior {
	return NWPrior{
		Mu0:   la.NewVector(k),
		Beta0: 2,
		Nu0:   float64(k),
		W0Inv: la.Eye(k),
	}
}

// Hyper is one side's sampled prior: mean μ and precision Λ, plus what
// every item update on this side derives from them, computed once per
// draw.
type Hyper struct {
	Mu     la.Vector
	Lambda *la.Matrix
	// LambdaUpper is Λ's Cholesky factor held transposed, U = Lᵀ with
	// Λ = Uᵀ·U, in la's lane layout with every lane a copy (upper triangle
	// only): each lane of a rank-one group starts from it.
	LambdaUpper []float64
	// LambdaMu caches Λ·μ, the constant part of every item's posterior
	// mean equation on this side for this iteration.
	LambdaMu la.Vector
}

// NewHyper allocates a Hyper for K latent features, initialized to the
// standard-normal prior (Λ = I, μ = 0).
func NewHyper(k int) *Hyper {
	h := &Hyper{
		Mu:          la.NewVector(k),
		Lambda:      la.Eye(k),
		LambdaUpper: la.NewVector(la.Lanes * k * k),
		LambdaMu:    la.NewVector(k),
	}
	la.BroadcastUpperT(h.LambdaUpper, h.Lambda)
	return h
}

// Moments are the sufficient statistics of one side's factor rows used by
// the Normal–Wishart posterior: count, Σx and Σx·xᵀ (full square stored,
// lower triangle authoritative).
type Moments struct {
	N     float64
	Sum   la.Vector
	SumSq *la.Matrix
}

// NewMoments allocates zeroed moments for K latent features.
func NewMoments(k int) *Moments {
	return &Moments{Sum: la.NewVector(k), SumSq: la.NewMatrix(k, k)}
}

// Zero resets m to the empty statistics.
func (m *Moments) Zero() {
	m.N = 0
	m.Sum.Zero()
	m.SumSq.Zero()
}

// AccumulateRows adds rows [lo, hi) of x to the moments, iterating rows in
// ascending order (the canonical order for reproducible reductions), four
// rows per kernel pass.
func (m *Moments) AccumulateRows(x *la.Matrix, lo, hi int) {
	m.N += float64(hi - lo)
	la.SyrkSumRowsLower(x, lo, hi, m.SumSq, m.Sum)
}

// Add combines other into m (m += other). Combining group partials in
// ascending group order reproduces a fixed summation tree.
func (m *Moments) Add(other *Moments) {
	m.N += other.N
	la.Axpy(1, other.Sum, m.Sum)
	m.SumSq.Add(other.SumSq)
}

// GroupBoundaries returns the moment-group boundary list for n rows: the
// configured list if non-nil (validated), else the single group [0, n].
func GroupBoundaries(groups []int, n int) []int {
	if groups == nil {
		return []int{0, n}
	}
	if len(groups) < 2 || groups[0] != 0 || groups[len(groups)-1] != n {
		panic("core: moment group boundaries must start at 0 and end at n")
	}
	for i := 1; i < len(groups); i++ {
		if groups[i] < groups[i-1] {
			panic("core: moment group boundaries must be non-decreasing")
		}
	}
	return groups
}

// MomentsWorkspace holds the reusable per-group partials and combined
// total of a grouped moment reduction. One workspace must not be used by
// two concurrent reductions (the groups *within* one reduction may run
// concurrently — they touch disjoint partials).
type MomentsWorkspace struct {
	k        int
	partials []*Moments
	total    *Moments
}

// NewMomentsWorkspace allocates a moments workspace for K latent features;
// the per-group partial pool grows on first use and is reused after.
func NewMomentsWorkspace(k int) *MomentsWorkspace {
	return &MomentsWorkspace{k: k, total: NewMoments(k)}
}

// MomentsGroupedWS computes the moments of rows [0, n) of x using the
// given boundary list: per-group partials accumulated row-ascending,
// combined in ascending group order. runAll, if non-nil, must invoke
// run(g) exactly once for every g in [0, nGroups) — in any order, on any
// goroutines — and return only after all invocations complete; engines
// pass a parallel-for here. nil runs the groups sequentially. Because the
// combine order is fixed, the result is bit-identical either way. The
// partials and the returned total are leased from ws, so once its
// partial pool is warm the reduction allocates nothing, and the result
// is only valid until the workspace's next reduction (SampleHyperWS
// consumes it immediately).
func MomentsGroupedWS(x *la.Matrix, groups []int, k int,
	runAll func(nGroups int, run func(g int)), ws *MomentsWorkspace) *Moments {
	if ws.k != k {
		panic("core: MomentsGroupedWS workspace built for a different K")
	}
	nb := len(groups) - 1
	for len(ws.partials) < nb {
		ws.partials = append(ws.partials, NewMoments(k))
	}
	if runAll == nil {
		// Method call, not a closure: the inline path stays allocation-free.
		for g := 0; g < nb; g++ {
			ws.runGroup(g, x, groups)
		}
	} else {
		runAll(nb, func(g int) { ws.runGroup(g, x, groups) })
	}
	total := ws.total
	total.Zero()
	for g := 0; g < nb; g++ {
		total.Add(ws.partials[g])
	}
	return total
}

// runGroup accumulates group g's rows into its leased partial. Groups
// touch disjoint partials, so any set of groups may run concurrently.
func (ws *MomentsWorkspace) runGroup(g int, x *la.Matrix, groups []int) {
	p := ws.partials[g]
	p.Zero()
	p.AccumulateRows(x, groups[g], groups[g+1])
}

// HyperStream returns the keyed stream for side's hyperparameter draw at
// the given iteration. All engines (and all ranks of the distributed
// engine) derive the identical stream, so after a deterministic moment
// reduction every rank draws the same hyperparameters with no broadcast.
func HyperStream(seed uint64, iter int, side Side) *rng.Stream {
	return rng.NewKeyed(seed, keyHyper, uint64(iter), uint64(side))
}

// HyperWorkspace holds the scratch of one Normal–Wishart posterior draw so
// the per-iteration hyperparameter sampling allocates nothing in steady
// state. One workspace must not be shared by concurrent draws.
type HyperWorkspace struct {
	xbar, diff, muStar, scratch la.Vector
	wInv, wStar, wStarChol      *la.Matrix
	wInvChol, scaled            *la.Matrix
	lambdaChol                  *la.Matrix // Λ's lower factor
	bartA, bartB                *la.Matrix // Wishart Bartlett scratch
	invE, invCol                la.Vector  // InvFromCholWS scratch
	lanes                       la.Vector  // CholeskyWS lane scratch
}

// NewHyperWorkspace allocates the scratch for K latent features.
func NewHyperWorkspace(k int) *HyperWorkspace {
	return &HyperWorkspace{
		xbar: la.NewVector(k), diff: la.NewVector(k),
		muStar: la.NewVector(k), scratch: la.NewVector(k),
		wInv: la.NewMatrix(k, k), wStar: la.NewMatrix(k, k),
		wStarChol: la.NewMatrix(k, k), wInvChol: la.NewMatrix(k, k),
		scaled: la.NewMatrix(k, k), lambdaChol: la.NewMatrix(k, k),
		bartA: la.NewMatrix(k, k), bartB: la.NewMatrix(k, k),
		invE: la.NewVector(k), invCol: la.NewVector(k),
		lanes: la.NewVector(la.Lanes * k * k),
	}
}

// SampleHyperWS draws (μ, Λ) from the Normal–Wishart posterior given the
// side's moments, writing the result (and derived Cholesky factor and Λ·μ
// cache) into h; its scratch is ws, so the draw allocates nothing. The
// stream consumption order is fixed: Wishart first, then the mean.
// Standard conjugate update (Salakhutdinov & Mnih, eq. 14):
//
//	β* = β0 + N, ν* = ν0 + N
//	μ* = (β0 μ0 + N x̄) / β*
//	W*⁻¹ = W0⁻¹ + N S̄ + (β0 N / β*) (x̄ − μ0)(x̄ − μ0)ᵀ
//	Λ ~ W(W*, ν*), μ ~ N(μ*, (β* Λ)⁻¹)
func SampleHyperWS(prior NWPrior, m *Moments, stream *rng.Stream, h *Hyper, ws *HyperWorkspace) {
	n := m.N

	xbar := ws.xbar
	if n > 0 {
		copy(xbar, m.Sum)
		la.Scal(1/n, xbar)
	} else {
		xbar.Zero()
	}

	// W*⁻¹ = W0⁻¹ + (SumSq − N x̄ x̄ᵀ) + (β0 N / β*) (x̄−μ0)(x̄−μ0)ᵀ.
	// Note N·S̄ = SumSq − N x̄ x̄ᵀ.
	wInv := ws.wInv
	wInv.CopyFrom(prior.W0Inv)
	if n > 0 {
		wInv.Add(m.SumSq) // SumSq only has the lower triangle filled
		la.SyrLower(-n, xbar, wInv)
		diff := ws.diff
		for i := range diff {
			diff[i] = xbar[i] - prior.Mu0[i]
		}
		beta := prior.Beta0 + n
		la.SyrLower(prior.Beta0*n/beta, diff, wInv)
	}
	la.SymmetrizeLower(wInv)

	// W* = (W*⁻¹)⁻¹ via Cholesky.
	if err := la.CholeskyWS(wInv, ws.wInvChol, ws.lanes); err != nil {
		panic("core: Normal-Wishart posterior scale not SPD: " + err.Error())
	}
	la.InvFromCholWS(ws.wInvChol, ws.wStar, ws.invE, ws.invCol)
	if err := la.CholeskyWS(ws.wStar, ws.wStarChol, ws.lanes); err != nil {
		panic("core: inverted scale not SPD: " + err.Error())
	}

	// Λ ~ W(W*, ν*).
	nuStar := prior.Nu0 + n
	stream.WishartWS(ws.wStarChol, nuStar, h.Lambda, ws.bartA, ws.bartB)
	if err := la.CholeskyWS(h.Lambda, ws.lambdaChol, ws.lanes); err != nil {
		panic("core: sampled precision not SPD: " + err.Error())
	}

	// μ ~ N(μ*, (β* Λ)⁻¹): chol(β*Λ) = sqrt(β*)·chol(Λ).
	betaStar := prior.Beta0 + n
	muStar := ws.muStar
	for i := range muStar {
		muStar[i] = (float64(prior.Beta0*prior.Mu0[i]) + float64(n*xbar[i])) / betaStar
	}
	ws.scaled.CopyFrom(ws.lambdaChol)
	ws.scaled.ScaleInPlace(math.Sqrt(betaStar))
	stream.MVNFromPrecChol(muStar, ws.scaled, h.Mu, ws.scratch)

	la.SymvLower(h.Lambda, h.Mu, h.LambdaMu)
	la.BroadcastUpperT(h.LambdaUpper, ws.lambdaChol)
}
