package core

import (
	"fmt"
	"sync/atomic"
	"time"

	"repro/internal/la"
	"repro/internal/order"
	"repro/internal/sched"
	"repro/internal/sparse"
)

// Result collects the output of a BPMF run, shared by every engine.
type Result struct {
	// SampleRMSE[i] is the held-out RMSE of iteration i's sample alone.
	SampleRMSE []float64
	// AvgRMSE[i] is the held-out RMSE of the posterior-mean predictor
	// after iteration i (equals SampleRMSE before burn-in completes).
	AvgRMSE []float64
	// U, V are the final factor samples.
	U, V *la.Matrix
	// KernelCounts[k] is the number of item updates performed with
	// Kernel(k) across the whole run.
	KernelCounts [3]int64
	// Iters is the number of iterations performed.
	Iters int
	// ItemUpdates is the total number of item updates (rows of U and V
	// sampled), the unit of the paper's performance metric.
	ItemUpdates int64
	// Elapsed is the wall-clock duration of the run, filled by engines.
	Elapsed time.Duration
	// Intervals are the posterior predictive summaries of the held-out
	// entries (mean, std, actual), available once post-burn-in samples
	// were collected.
	Intervals []Interval
}

// UpdatesPerSec returns the paper's throughput metric: item updates per
// second of wall-clock time.
func (r *Result) UpdatesPerSec() float64 {
	if r.Elapsed <= 0 {
		return 0
	}
	return float64(r.ItemUpdates) / r.Elapsed.Seconds()
}

// FinalRMSE returns the posterior-mean RMSE after the last iteration.
func (r *Result) FinalRMSE() float64 {
	if len(r.AvgRMSE) == 0 {
		return 0
	}
	return r.AvgRMSE[len(r.AvgRMSE)-1]
}

// Problem bundles the data a BPMF engine factorizes: the rating matrix in
// row (user) and column (movie) orientation plus the held-out test set.
type Problem struct {
	R    *sparse.CSR // users x movies
	Rt   *sparse.CSR // movies x users (transpose of R)
	Test []sparse.Entry
}

// NewProblem builds a Problem from a rating matrix and test set,
// computing the transpose.
func NewProblem(r *sparse.CSR, test []sparse.Entry) *Problem {
	return &Problem{R: r, Rt: r.Transpose(), Test: test}
}

// HoldOut applies the evaluation split every command that trains on,
// warm-starts over or serves a rating matrix must reproduce bit for bit
// from (matrix, fraction, seed): testFrac of full's ratings are held out
// (sparse.SplitTrainTest); testFrac <= 0 keeps full itself as the
// training matrix, with no split pass and a nil test set. The results
// feed NewProblem directly: NewProblem(HoldOut(full, testFrac, seed)).
func HoldOut(full *sparse.CSR, testFrac float64, seed uint64) (train *sparse.CSR, test []sparse.Entry) {
	if testFrac <= 0 {
		return full, nil
	}
	return sparse.SplitTrainTest(full, testFrac, seed)
}

// Dims returns (#users, #movies).
func (p *Problem) Dims() (int, int) { return p.R.M, p.R.N }

// InitFactors returns the deterministic keyed-stream initialization of one
// side's factor matrix: row i ~ 0.3 · N(0, I) from InitStream(seed, side,
// i). Every engine starts from this same state.
func InitFactors(seed uint64, side Side, n, k int) *la.Matrix {
	m := la.NewMatrix(n, k)
	for i := 0; i < n; i++ {
		s := InitStream(seed, side, i)
		row := m.Row(i)
		s.FillNorm(row)
		la.Scal(0.3, row)
	}
	return m
}

// ItemGrain is the minimum number of schedule positions a work-stealing
// executor hands a thread at once: small enough to rebalance skewed item
// costs, large enough to amortize task overhead on cheap items.
const ItemGrain = 8

// Executor is how an engine runs one Gibbs phase's independent work on
// its threads. The sampler decides what is computed and in which
// reduction order; the executor only decides where it runs, so every
// executor samples the identical chain.
type Executor interface {
	// Sweep draws every item of one side for iteration iter by covering
	// the positions of s.Order(side) with disjoint ranges handed to
	// s.UpdateRange (or, for an engine with its own per-item abstraction,
	// to s.DrawItem), and returns once all of them are drawn. Dispatch is
	// per range, never per item.
	Sweep(s *Sampler, side Side, iter int)
	// Each calls run(i) exactly once for every i in [0, n) — moment
	// groups, evaluation chunks — on any goroutines, and returns only
	// after all calls complete.
	Each(n int, run func(i int))
}

// Sampler owns the state of one Gibbs chain — factors, hyperparameters,
// posterior-mean predictor, kernel tallies, RMSE trace — and the
// iteration loop of Algorithm 1. Every engine is this sampler bound to a
// different Executor (Use); without one it is the sequential reference
// the engines are tested against. The distributed engine keeps its own
// loop (its phases end in message exchanges that can fail) but holds its
// per-rank state in a Sampler and draws items through UpdateRange, an
// ItemGrain of schedule positions per call — on the rank's goroutine or
// its pool's workers alike — sending each grain's rows as it finishes.
type Sampler struct {
	Cfg   Config
	Prob  *Problem
	Prior NWPrior

	U, V   *la.Matrix
	HU, HV *Hyper
	// Pred scores Prob.Test.
	Pred *Predictor

	exec Executor
	// each is exec.Each, bound once so a step allocates no method value;
	// nil runs moment groups and evaluation chunks inline.
	each func(n int, run func(i int))
	sch  order.Schedule

	// Workspaces are leased per range from a worker-local arena, never
	// pinned per worker: a pool worker that helps execute another range
	// while blocked inside a nested Sync must not reuse a workspace that
	// is mid-update. All of them share one chunk-accumulator arena.
	wsArena *sched.Arena[*Workspace]
	hws     *HyperWorkspace
	mws     *MomentsWorkspace

	kernelCounts [numKernels]atomic.Int64
	res          Result
}

// newSampler is the one place a Sampler is assembled, around the given
// factor matrices; cfg is already validated.
func newSampler(cfg Config, prob *Problem, u, v *la.Matrix) *Sampler {
	acc := NewAccArena(cfg.K)
	s := &Sampler{
		Cfg:   cfg,
		Prob:  prob,
		Prior: DefaultNWPrior(cfg.K),
		U:     u,
		V:     v,
		HU:    NewHyper(cfg.K),
		HV:    NewHyper(cfg.K),
		Pred:  NewPredictor(prob.Test, cfg.ClampMin, cfg.ClampMax),
		wsArena: sched.NewArena(func() *Workspace {
			return NewWorkspaceShared(cfg.K, acc)
		}),
		hws: NewHyperWorkspace(cfg.K),
		mws: NewMomentsWorkspace(cfg.K),
	}
	s.Pred.Alpha = cfg.Alpha
	s.res.SampleRMSE = make([]float64, 0, cfg.Iters)
	s.res.AvgRMSE = make([]float64, 0, cfg.Iters)
	return s
}

// NewSampler constructs a sampler with deterministic initial factors. It
// runs on the calling goroutine in storage order until Use binds it to
// an engine.
func NewSampler(cfg Config, prob *Problem) (*Sampler, error) {
	if err := cfg.Validate(); err != nil {
		return nil, err
	}
	m, n := prob.Dims()
	return newSampler(cfg, prob,
		InitFactors(cfg.Seed, SideU, m, cfg.K), InitFactors(cfg.Seed, SideV, n, cfg.K)), nil
}

// Use binds the sampler to an engine: exec runs each phase's independent
// work on the engine's threads (nil keeps it on the calling goroutine),
// and sch is the order each sweep walks (a nil side means storage
// order). Within a phase the updates are independent and every draw
// comes from a stream keyed by the item's id, so any permutation — like
// any executor — samples the identical chain; the schedule only decides
// cache behavior.
func (s *Sampler) Use(exec Executor, sch order.Schedule) error {
	m, n := s.Prob.Dims()
	if err := sch.Validate(m, n); err != nil {
		return err
	}
	s.exec, s.each, s.sch = exec, nil, sch
	if exec != nil {
		s.each = exec.Each
	}
	return nil
}

// Side resolves one half of the model: its factor matrix and
// hyperparameters, the partner factors its updates read, and its ratings
// (one row per item of the side).
func (s *Sampler) Side(side Side) (self, other *la.Matrix, ratings *sparse.CSR, hyper *Hyper) {
	if side == SideV {
		return s.V, s.U, s.Prob.Rt, s.HV
	}
	return s.U, s.V, s.Prob.R, s.HU
}

// Order returns the processing order of one side's sweep (nil means
// storage order) and its number of positions.
func (s *Sampler) Order(side Side) (ord []int32, n int) {
	if side == SideV {
		return s.sch.V, s.Prob.Rt.M
	}
	return s.sch.U, s.Prob.R.M
}

// drawItem performs item's Gibbs draw for iteration iter into out, from
// its ratings (cols, vals) over the partner rows in other, and returns
// the kernel it used. w is the pool worker running the draw (nil
// off-pool): a heavy item's parallel kernel spawns its chunks on that
// worker's pool, and executes the same task DAG inline without one, so
// the sample does not depend on it.
func (s *Sampler) drawItem(ws *Workspace, w *sched.Worker, side Side, iter, item int,
	cols []int32, vals []float64, other *la.Matrix, out la.Vector) Kernel {
	_, _, _, hyper := s.Side(side)
	kern := s.Cfg.SelectKernel(len(cols))
	var pool *sched.Pool
	if w != nil {
		pool = w.Pool()
	}
	UpdateItem(ws, kern, &s.Cfg, cols, vals, other, hyper,
		ws.ItemStream(s.Cfg.Seed, iter, side, item), pool, w, out)
	return kern
}

// DrawItem is the single-item door to the sampler's draw, for an engine
// that brings its own per-item abstraction and scratch (the GraphLab
// vertex program): it draws as UpdateRange does and tallies the kernel.
func (s *Sampler) DrawItem(ws *Workspace, side Side, iter, item int,
	cols []int32, vals []float64, other *la.Matrix, out la.Vector) {
	s.kernelCounts[s.drawItem(ws, nil, side, iter, item, cols, vals, other, out)].Add(1)
}

// UpdateRange draws the items at positions [lo, hi) of ord (the items
// lo..hi-1 themselves when ord is nil) on the calling goroutine. The
// workspace lease and the kernel tally are per range, so the item loop
// itself touches no shared cache line.
func (s *Sampler) UpdateRange(side Side, iter int, ord []int32, lo, hi int, w *sched.Worker) {
	self, other, ratings, _ := s.Side(side)
	var tally [numKernels]int64
	ws := s.wsArena.Get(w)
	for pos := lo; pos < hi; pos++ {
		item := pos
		if ord != nil {
			item = int(ord[pos])
		}
		cols, vals := ratings.Row(item)
		tally[s.drawItem(ws, w, side, iter, item, cols, vals, other, self.Row(item))]++
	}
	s.wsArena.Put(w, ws)
	for k, n := range tally {
		if n != 0 {
			s.kernelCounts[k].Add(n)
		}
	}
}

// DrawHyper samples one side's hyperparameters for iteration iter from
// the moments of its factor matrix.
func (s *Sampler) DrawHyper(side Side, iter int, mom *Moments) {
	_, _, _, hyper := s.Side(side)
	SampleHyperWS(s.Prior, mom, HyperStream(s.Cfg.Seed, iter, side), hyper, s.hws)
}

// Record appends one iteration's held-out RMSEs to the trace.
func (s *Sampler) Record(sampleRMSE, avgRMSE float64) {
	s.res.SampleRMSE = append(s.res.SampleRMSE, sampleRMSE)
	s.res.AvgRMSE = append(s.res.AvgRMSE, avgRMSE)
}

// KernelCounts returns the number of item updates drawn with each kernel
// so far, including those of the chain segments before a resume.
func (s *Sampler) KernelCounts() (kc [3]int64) {
	for k := range kc {
		kc[k] = s.kernelCounts[k].Load()
	}
	return kc
}

// Step performs one full Gibbs iteration — movies first, then users, as
// in Algorithm 1: hyperparameters from the side's grouped moments, then
// every row of the side — and scores the test set through the fixed
// evaluation chunk tree.
func (s *Sampler) Step(iter int) {
	cfg := &s.Cfg
	for _, side := range [2]Side{SideV, SideU} {
		x, groups := s.U, cfg.MomentGroupsU
		if side == SideV {
			x, groups = s.V, cfg.MomentGroupsV
		}
		s.DrawHyper(side, iter,
			MomentsGroupedWS(x, GroupBoundaries(groups, x.Rows), cfg.K, s.each, s.mws))
		if s.exec != nil {
			s.exec.Sweep(s, side, iter)
		} else {
			ord, n := s.Order(side)
			s.UpdateRange(side, iter, ord, 0, n, nil)
		}
	}
	s.res.ItemUpdates += int64(s.Prob.R.M + s.Prob.R.N)
	s.Record(s.Pred.UpdatePar(s.U, s.V, iter >= cfg.Burnin, s.each))
}

// Run executes all configured iterations and returns the result.
func (s *Sampler) Run() *Result { return s.RunFrom(0) }

// RunFrom executes the remaining iterations of a chain (firstIter
// through Cfg.Iters-1; a resumed sampler passes its checkpoint's
// NextIter) and returns the result.
func (s *Sampler) RunFrom(firstIter int) *Result {
	start := time.Now()
	for it := firstIter; it < s.Cfg.Iters; it++ {
		s.Step(it)
	}
	s.res.Elapsed = time.Since(start)
	s.res.U, s.res.V = s.U, s.V
	s.res.Iters = s.Cfg.Iters
	s.res.Intervals = s.Pred.Intervals()
	s.res.KernelCounts = s.KernelCounts()
	return &s.res
}

// String summarizes a result for logs.
func (r *Result) String() string {
	return fmt.Sprintf("iters=%d updates=%d finalRMSE=%.4f kernels[r1=%d chol=%d pchol=%d]",
		r.Iters, r.ItemUpdates, r.FinalRMSE(),
		r.KernelCounts[0], r.KernelCounts[1], r.KernelCounts[2])
}
