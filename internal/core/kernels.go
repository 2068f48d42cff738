package core

import (
	"math"

	"repro/internal/la"
	"repro/internal/rng"
	"repro/internal/sched"
)

// Kernel identifies one of the three item-update methods of Figure 2.
type Kernel int

// The three item-update kernels.
const (
	// KernelRankOne maintains the posterior precision's Cholesky factor
	// directly by |R(item)| rank-one updates starting from the factor of
	// the hyperparameter precision. No K³ factorization; cheapest for
	// items with very few ratings.
	KernelRankOne Kernel = iota
	// KernelCholesky accumulates the full K x K posterior precision with
	// symmetric rank-one updates, then factorizes it with one sequential
	// Cholesky decomposition.
	KernelCholesky
	// KernelParallelCholesky chunks the precision accumulation over the
	// item's ratings into fixed-size grains executed as parallel tasks,
	// combines the partial sums in chunk order, and factorizes with the
	// blocked parallel Cholesky. Used for items with >= Config.
	// KernelThreshold ratings (paper: 1000): it splits one heavy item
	// into many small tasks that can use every core.
	KernelParallelCholesky
	numKernels
)

// String returns the kernel's name as used in Figure 2's legend.
func (k Kernel) String() string {
	switch k {
	case KernelRankOne:
		return "rankupdate"
	case KernelCholesky:
		return "serial_chol"
	case KernelParallelCholesky:
		return "parallel_chol"
	default:
		return "unknown"
	}
}

// SelectKernel returns the kernel the hybrid scheme uses for an item with
// the given number of ratings. It is a pure function of (nnz, cfg), so all
// engines make identical choices.
func (c Config) SelectKernel(nnz int) Kernel {
	switch {
	case nnz <= c.RankOneMax:
		return KernelRankOne
	case nnz < c.KernelThreshold:
		return KernelCholesky
	default:
		return KernelParallelCholesky
	}
}

// accChunk is one chunk accumulator of the parallel kernel's reduction:
// a partial precision and rhs.
type accChunk struct {
	prec *la.Matrix
	rhs  la.Vector
}

// Workspace holds the per-worker scratch space of the item update so the
// hot loop performs no allocation. One Workspace must not be used by two
// goroutines at once, with one exception: the parallel kernel's chunk task
// ci, on whichever worker runs it, writes chunks[ci], and nothing else of
// the workspace, while the drawing goroutine waits for it.
type Workspace struct {
	K int
	// precs are a serial-Cholesky group's four precisions; prec = precs[0]
	// is also the parallel kernel's, which its blocked factorization
	// destroys. rhs is one lane's right-hand side while it
	// accumulates, and a lone draw's normals before that.
	prec  *la.Matrix
	precs [la.Lanes]*la.Matrix
	rhs   la.Vector

	// A lane group, one item per lane (la's lane layout): the items, their
	// factors, their right-hand sides (solved in place into the means),
	// their normals (solved in place into the noise), and for the rank-one
	// kernel one pass of up to four scaled partner rows each.
	lanes            [la.Lanes]laneItem
	u4, rhs4, z4, x4 []float64

	// chunks are the parallel kernel's chunk accumulators, one per chunk
	// of the heaviest parallel item this workspace has drawn.
	chunks []accChunk

	// stream is the re-keyed scratch stream handed out by ItemStream.
	stream rng.Stream
}

// ItemStream re-keys the workspace's embedded scratch stream in place to
// the given item's keyed stream and returns it — byte-identical to
// rng.New of the item's key, without allocating a stream per item. The
// returned stream is only valid until the workspace's next ItemStream
// call, which is exactly the per-item lease discipline every caller
// follows.
func (ws *Workspace) ItemStream(seed uint64, iter int, side Side, item int) *rng.Stream {
	ws.stream.Reinit(itemKey(seed, iter, side, item))
	return &ws.stream
}

// itemKey is the seed of an item's keyed stream for one iteration's draw.
func itemKey(seed uint64, iter int, side Side, item int) uint64 {
	return rng.Mix(seed, keyItem, uint64(iter), uint64(side), uint64(item))
}

// NewWorkspace allocates a workspace for K latent features. Its chunk
// accumulators are grown by the parallel kernel as it needs them.
func NewWorkspace(k int) *Workspace {
	ws := &Workspace{
		K:    k,
		rhs:  la.NewVector(k),
		u4:   la.NewVector(la.Lanes * k * k),
		rhs4: la.NewVector(la.Lanes * k),
		z4:   la.NewVector(la.Lanes * k),
		x4:   la.NewVector(la.Lanes * la.Lanes * k),
	}
	for l := range ws.precs {
		ws.precs[l] = la.NewMatrix(k, k)
	}
	ws.prec = ws.precs[0]
	return ws
}

// UpdateItem performs one Gibbs draw for a single item (one row of U or V):
//
//	Λ* = Λ_hyper + α Σ_{j ∈ R(item)} x_j x_jᵀ
//	μ* = Λ*⁻¹ (Λ_hyper μ_hyper + α Σ_j r_j x_j)
//	out ~ N(μ*, Λ*⁻¹)
//
// where x_j are the partner-side factor rows referenced by cols and r_j
// the corresponding rating values (vals). kernel selects the Figure 2
// method. pw is the pool worker running the draw: KernelParallelCholesky
// spawns its chunks and its factor's block tasks on pw's pool, and runs the
// same task DAG inline when pw is nil, so the sample does not depend on
// it. The pool argument is not read; it stays in the signature for the
// benchmark driver's calls. The draw consumes exactly K normal deviates
// from stream regardless of kernel, keeping stream consumption
// schedule-independent.
//
// The item is a lane group of one: its K normals go into lane 0 of z4, and
// the rank-one and serial-Cholesky kernels are the group draws a sweep
// runs (drawRankOne, drawCholesky), so an item's bits do not depend on the
// items beside it. The parallel kernel keeps its own accumulation, and
// la.CholeskyParallel (Cholesky4 up to K = 32, blocked past it) writes
// U = Lᵀ straight into the lanes for the same lane solves.
func UpdateItem(
	ws *Workspace,
	kernel Kernel,
	cfg *Config,
	cols []int32, vals []float64,
	other *la.Matrix,
	hyper *Hyper,
	stream *rng.Stream,
	_ *sched.Pool, pw *sched.Worker,
	out la.Vector,
) {
	ws.setLane(0, cols, vals, out)
	stream.FillNorm(ws.rhs)
	la.SetLane(ws.z4, 0, ws.rhs)
	switch kernel {
	case KernelRankOne:
		ws.drawRankOne(1, cfg.Alpha, other, hyper)
	case KernelCholesky:
		ws.drawCholesky(1, cfg.Alpha, other, hyper)
	case KernelParallelCholesky:
		accumulateParallel(ws, cfg, cols, vals, other, hyper, pw)
		if err := la.CholeskyParallel(pw, ws.prec, ws.u4); err != nil {
			panic("core: item posterior precision not SPD: " + err.Error())
		}
		la.SetLane(ws.rhs4, 0, ws.rhs)
		ws.solveLanes(1, ws.u4)
	default:
		panic("core: unknown kernel")
	}
}

// laneItem is one item of a lane group: its ratings and its output row.
type laneItem struct {
	cols []int32
	vals []float64
	out  la.Vector
}

// setLane makes the item with ratings (cols, vals) lane l of the next
// group, drawing out. Its K normals — all the item's draw takes from its
// stream, in FillNorm order — go into lane l of z4 before the draw: a
// group's lanes in one rng.FillNormLanes (Sampler.drawGroup), a lone item
// by FillNorm from the caller's stream (UpdateItem).
func (ws *Workspace) setLane(l int, cols []int32, vals []float64, out la.Vector) {
	ws.lanes[l] = laneItem{cols: cols, vals: vals, out: out}
}

// drawRankOne draws lanes [0, n) of the group set up by setLane, n ≤ 4, by
// the rank-one kernel: each lane's factor starts from hyper.LambdaUpper and
// takes sqrt(α)·x for its ratings in passes of up to four
// (la.CholUpdateUpper4); its rhs is Λμ + α Σ r_j x_j in rating order; then
// solveLanes. A ratingless lane is blended out of every pass; when no
// lane has ratings the solves read hyper.LambdaUpper itself. Lanes past n
// compute on stale values and are discarded.
func (ws *Workspace) drawRankOne(n int, alpha float64, other *la.Matrix, hyper *Hyper) {
	k := ws.K
	deg := 0
	for l, it := range ws.lanes[:n] {
		deg = max(deg, len(it.cols))
		copy(ws.rhs, hyper.LambdaMu)
		for p, c := range it.cols {
			la.Axpy(alpha*it.vals[p], other.Row(int(c)), ws.rhs)
		}
		la.SetLane(ws.rhs4, l, ws.rhs)
	}
	// The first pass reads the hyper's factor and writes the group's own,
	// so the factor is never copied.
	u := hyper.LambdaUpper
	sa := math.Sqrt(alpha)
	for lo := 0; lo < deg; lo += la.Lanes {
		var nr [la.Lanes]int
		for l, it := range ws.lanes[:n] {
			nr[l] = min(max(len(it.cols)-lo, 0), la.Lanes)
			for r := 0; r < nr[l]; r++ {
				la.SetPassVector(ws.x4, r, l, sa, other.Row(int(it.cols[lo+r])))
			}
		}
		la.CholUpdateUpper4(ws.u4, u, ws.x4, k, nr)
		u = ws.u4
	}
	ws.solveLanes(n, u)
}

// drawCholesky draws lanes [0, n) of the group set up by setLane, n ≤ 4, by
// the serial-Cholesky kernel: each lane's precision and rhs accumulate in
// one fused, register-blocked pass over the partner rows (Λ copied, then
// one la.SyrkAxpyBatchLower into the lane's own row-major precision, in
// ascending rating order, so the sums are the per-rating SyrLower/Axpy
// loop's bits), the n precisions are packed into the lane layout
// (la.PackLower4) and factored side by side (la.Cholesky4), leaving U = Lᵀ
// in every lane; solveLanes finishes them. A lone item (UpdateItem) is the
// group with n = 1. A precision that is not SPD panics with the lowest such
// lane's pivot, as la.Cholesky would report it; lanes past n are copies of
// lane 0 and are discarded.
func (ws *Workspace) drawCholesky(n int, alpha float64, other *la.Matrix, hyper *Hyper) {
	for l, it := range ws.lanes[:n] {
		p := ws.precs[l]
		p.CopyFrom(hyper.Lambda)
		copy(ws.rhs, hyper.LambdaMu)
		la.SyrkAxpyBatchLower(alpha, other, it.cols, it.vals, p, ws.rhs)
		la.SetLane(ws.rhs4, l, ws.rhs)
	}
	la.PackLower4(ws.u4, ws.precs, n)
	if err := la.Cholesky4(ws.u4, ws.K, n); err != nil {
		panic("core: item posterior precision not SPD: " + err.Error())
	}
	ws.solveLanes(n, ws.u4)
}

// solveLanes finishes lanes [0, n) of a group from their factors u (U = Lᵀ
// in every lane), their rhs in rhs4 and their normals in z4: the forward
// solves (la.SolveUpperT4), the paired back-solves of the mean and the
// noise (la.SolveUpperPair4), and out = mean + noise. On U = Lᵀ the solves
// perform SolveLower's and SolveLowerT's operations on L, so each lane is
// SolveSPD followed by MVNFromPrecChol on its own factor, bit for bit.
// Every item draw ends here: a rank-one or serial-Cholesky group of one
// to four, and a parallel-Cholesky item alone.
func (ws *Workspace) solveLanes(n int, u []float64) {
	k := ws.K
	la.SolveUpperT4(u, ws.rhs4, k)
	la.SolveUpperPair4(u, ws.rhs4, ws.z4, k)
	for i, z := range ws.z4 {
		ws.rhs4[i] += z // mean + noise, every lane at once
	}
	for l := range ws.lanes[:n] {
		la.LaneInto(ws.lanes[l].out, ws.rhs4, l)
		ws.lanes[l] = laneItem{} // a pooled workspace must not pin a caller's slices
	}
}

// accumulateParallel computes Λ* and the rhs with a chunked reduction,
// the chunks spawned on pw's pool (inline when pw is nil). The chunk
// decomposition depends only on (nnz, cfg.ParallelGrain); the partials are
// combined in ascending chunk order, so the result is bit-identical for
// any worker count, including sequential execution. The workspace's chunk
// accumulators are grown before any task is spawned, and chunk task ci
// writes only chunks[ci], so the steady-state hot path performs no
// allocation.
func accumulateParallel(
	ws *Workspace, cfg *Config,
	cols []int32, vals []float64,
	other *la.Matrix, hyper *Hyper,
	pw *sched.Worker,
) {
	nnz := len(cols)
	grain := cfg.ParallelGrain
	nchunks := max((nnz+grain-1)/grain, 1)
	for len(ws.chunks) < nchunks {
		ws.chunks = append(ws.chunks, accChunk{prec: la.NewMatrix(ws.K, ws.K), rhs: la.NewVector(ws.K)})
	}

	if pw != nil && nchunks > 1 {
		g := pw.Pool().NewGroup()
		for ci := 0; ci < nchunks; ci++ {
			g.Spawn(pw, func(*sched.Worker) {
				ws.runAccChunk(ci, grain, cfg.Alpha, cols, vals, other)
			})
		}
		g.Sync(pw)
	} else {
		// Method call, not a closure: the inline path stays allocation-free.
		for ci := 0; ci < nchunks; ci++ {
			ws.runAccChunk(ci, grain, cfg.Alpha, cols, vals, other)
		}
	}

	ws.prec.CopyFrom(hyper.Lambda)
	copy(ws.rhs, hyper.LambdaMu)
	for _, ch := range ws.chunks[:nchunks] {
		ws.prec.Add(ch.prec)
		la.Axpy(1, ch.rhs, ws.rhs)
	}
}

// runAccChunk accumulates ratings [ci*grain, min((ci+1)*grain, nnz)) into
// chunks[ci]. The per-element summation order inside a chunk is ascending
// rating index, matching the per-rating reference loop.
func (ws *Workspace) runAccChunk(ci, grain int, alpha float64,
	cols []int32, vals []float64, other *la.Matrix) {
	lo := ci * grain
	hi := min(lo+grain, len(cols))
	ch := ws.chunks[ci]
	ch.prec.Zero()
	ch.rhs.Zero()
	la.SyrkAxpyBatchLower(alpha, other, cols[lo:hi], vals[lo:hi], ch.prec, ch.rhs)
}
