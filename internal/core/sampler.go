package core

import (
	"fmt"
	"sync/atomic"
	"time"

	"repro/internal/la"
	"repro/internal/rng"
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

// Dims returns (#users, #movies).
func (p *Problem) Dims() (int, int) { return p.R.M, p.R.N }

// InitFactors returns the deterministic keyed-stream initialization of one
// side's factor matrix: row i is FillNorm of the stream keyed
// Mix(seed, keyInit, side, i), scaled by 0.3, so row i ~ 0.3 · N(0, I).
// Rows are drawn four at a time, one per lane of rng.FillNormLanes, which
// holds each lane to that stream's FillNorm bits. Every engine starts
// from this same state.
func InitFactors(seed uint64, side Side, n, k int) *la.Matrix {
	m := la.NewMatrix(n, k)
	buf := make([]float64, la.Lanes*k)
	for lo := 0; lo < n; lo += la.Lanes {
		g := min(la.Lanes, n-lo)
		var keys [la.Lanes]uint64
		for l := range keys[:g] {
			keys[l] = rng.Mix(seed, keyInit, uint64(side), uint64(lo+l))
		}
		rng.FillNormLanes(buf, keys, g)
		for l := range g {
			row := m.Row(lo + l)
			la.LaneInto(row, buf, l)
			la.Scal(0.3, row)
		}
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
	// s.UpdateRange, which draws them in lane groups, and returns once all
	// of them are drawn. Dispatch is per range, never per item. An engine
	// with its own per-item abstraction hands each item to s.DrawItem
	// instead, a lane group of one, in any order: the same bits.
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
	// lanesU and lanesV are each side's lane order (laneOrder), the one
	// walk of every engine.
	lanesU, lanesV []int32

	// Workspaces are leased per range from a worker-local arena, never
	// pinned per worker: a pool worker that helps execute another range
	// while blocked inside a nested Sync must not reuse a workspace that
	// is mid-update. Each owns its own chunk accumulators.
	wsArena *sched.Arena[*Workspace]
	hws     *HyperWorkspace
	mws     *MomentsWorkspace

	kernelCounts [numKernels]atomic.Int64
	res          Result
}

// newSampler is the one place a Sampler is assembled, around the given
// factor matrices; cfg is already validated.
func newSampler(cfg Config, prob *Problem, u, v *la.Matrix) *Sampler {
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
			return NewWorkspace(cfg.K)
		}),
		hws:    NewHyperWorkspace(cfg.K),
		mws:    NewMomentsWorkspace(cfg.K),
		lanesU: laneOrder(&cfg, prob.R, GroupBoundaries(cfg.MomentGroupsU, prob.R.M)),
		lanesV: laneOrder(&cfg, prob.Rt, GroupBoundaries(cfg.MomentGroupsV, prob.Rt.M)),
	}
	s.Pred.Alpha = cfg.Alpha
	s.res.SampleRMSE = make([]float64, 0, cfg.Iters)
	s.res.AvgRMSE = make([]float64, 0, cfg.Iters)
	return s
}

// NewSampler constructs a sampler with deterministic initial factors. It
// runs on the calling goroutine in the lane order (Order) until Use binds
// it to an engine.
func NewSampler(cfg Config, prob *Problem) (*Sampler, error) {
	if err := cfg.Validate(); err != nil {
		return nil, err
	}
	m, n := prob.Dims()
	return newSampler(cfg, prob,
		InitFactors(cfg.Seed, SideU, m, cfg.K), InitFactors(cfg.Seed, SideV, n, cfg.K)), nil
}

// Use binds the sampler to an engine: exec runs each phase's independent
// work on the engine's threads (nil keeps it on the calling goroutine).
// Every engine walks the lane order (Order). Within a phase the updates
// are independent and every draw comes from a stream keyed by the item's
// id, so any executor samples the identical chain.
func (s *Sampler) Use(exec Executor) {
	s.exec, s.each = exec, nil
	if exec != nil {
		s.each = exec.Each
	}
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

// Order returns the processing order of one side's sweep, its lane
// order, and its number of positions. Within each moment group the lane
// order holds the serial-Cholesky items first, then the parallel-Cholesky
// items, each in storage order, then the rank-one items by ascending
// degree, in storage order within a degree. UpdateRange then fills its
// lane groups with items of one kind and of one or adjacent degrees, and
// draws a partly empty group only where a range ends or where the
// serial-Cholesky run meets the parallel one. The order is a permutation
// of each moment group, so a distributed rank, whose moment group is its
// owned range, draws and sends exactly its own rows.
func (s *Sampler) Order(side Side) (ord []int32, n int) {
	if side == SideV {
		return s.lanesV, s.Prob.Rt.M
	}
	return s.lanesU, s.Prob.R.M
}

// laneOrder returns the lane order (see Order) of the items that are the
// rows of ratings, moment groups given by bounds: per group, a stable
// counting sort into bucket 0 for the serial-Cholesky items, bucket 1 for
// the parallel-Cholesky items and bucket 2+d for the rank-one items of
// degree d.
func laneOrder(cfg *Config, ratings *sparse.CSR, bounds []int) []int32 {
	bucket := func(i int) int {
		d := ratings.RowNNZ(i)
		switch cfg.SelectKernel(d) {
		case KernelCholesky:
			return 0
		case KernelParallelCholesky:
			return 1
		}
		return 2 + d
	}
	ord := make([]int32, ratings.M)
	for g := 0; g+1 < len(bounds); g++ {
		lo, hi := bounds[g], bounds[g+1]
		nb := 1
		for i := lo; i < hi; i++ {
			nb = max(nb, bucket(i)+1)
		}
		// next[b] is where bucket b's next item goes.
		next := make([]int, nb+1)
		for i := lo; i < hi; i++ {
			next[bucket(i)+1]++
		}
		next[0] = lo
		for b := 1; b <= nb; b++ {
			next[b] += next[b-1]
		}
		for i := lo; i < hi; i++ {
			b := bucket(i)
			ord[next[b]] = int32(i)
			next[b]++
		}
	}
	return ord
}

// DrawItem performs item's Gibbs draw for iteration iter into out, from
// its ratings (cols, vals) over the partner rows in other, and tallies
// the kernel it used: UpdateItem on the item's keyed stream. w is the pool
// worker running the draw (nil off-pool, as an engine with its own
// per-item abstraction and scratch, the GraphLab vertex program, passes):
// a heavy item's parallel kernel spawns its chunks on that worker's pool,
// and executes the same task DAG inline without one, so the sample does
// not depend on it.
func (s *Sampler) DrawItem(ws *Workspace, w *sched.Worker, side Side, iter, item int,
	cols []int32, vals []float64, other *la.Matrix, out la.Vector) {
	_, _, _, hyper := s.Side(side)
	kern := s.Cfg.SelectKernel(len(cols))
	UpdateItem(ws, kern, &s.Cfg, cols, vals, other, hyper,
		ws.ItemStream(s.Cfg.Seed, iter, side, item), nil, w, out)
	s.kernelCounts[kern].Add(1)
}

// UpdateRange draws the items at positions [lo, hi) of ord (an Order) on
// the calling goroutine. The workspace lease is per range, and so is the
// tally of the grouped kernels, so their item loop touches no shared
// cache line. The range keeps one open lane group per kind, rank-one and
// serial Cholesky: an item joins its kind's group in range order, and a
// group is drawn when it holds la.Lanes items, a serial-Cholesky group
// also before a parallel-Cholesky item (drawn alone by DrawItem, on the
// pool), and both at the range's end. The lane order puts items of one or
// adjacent degrees side by side, so a rank-one group's lanes take similar
// numbers of passes. Every item's draw reads only its own ratings and
// keyed stream, so the grouping changes no bit; and since no item is
// drawn before an earlier Cholesky-kernel item (rank-one draws cannot
// fail), a precision that is not SPD panics as the lone draws in range
// order would.
func (s *Sampler) UpdateRange(side Side, iter int, ord []int32, lo, hi int, w *sched.Worker) {
	self, other, ratings, _ := s.Side(side)
	var tally [numKernels]int64
	ws := s.wsArena.Get(w)
	var open [KernelParallelCholesky][la.Lanes]int // each grouped kernel's open group
	var n [KernelParallelCholesky]int              // and the items it holds
	draw := func(kern Kernel) {
		s.drawGroup(ws, kern, side, iter, open[kern][:n[kern]])
		n[kern] = 0
	}
	for _, it := range ord[lo:hi] {
		item := int(it)
		cols, vals := ratings.Row(item)
		kern := s.Cfg.SelectKernel(len(cols))
		if kern == KernelParallelCholesky {
			draw(KernelCholesky)
			s.DrawItem(ws, w, side, iter, item, cols, vals, other, self.Row(item))
			continue
		}
		tally[kern]++
		open[kern][n[kern]] = item
		if n[kern]++; n[kern] == la.Lanes {
			draw(kern)
		}
	}
	draw(KernelRankOne)
	draw(KernelCholesky)
	s.wsArena.Put(w, ws)
	for k, n := range tally {
		if n != 0 {
			s.kernelCounts[k].Add(n)
		}
	}
}

// drawGroup draws up to la.Lanes items of one side, all of kernel kern
// (rank-one or serial Cholesky), as one lane group: item l in lane l, its
// K normals from its keyed stream by one rng.FillNormLanes, its row of the
// side's factor matrix as out. No items draw nothing.
func (s *Sampler) drawGroup(ws *Workspace, kern Kernel, side Side, iter int, items []int) {
	if len(items) == 0 {
		return
	}
	self, other, ratings, hyper := s.Side(side)
	var keys [la.Lanes]uint64
	for l, item := range items {
		cols, vals := ratings.Row(item)
		ws.setLane(l, cols, vals, self.Row(item))
		keys[l] = itemKey(s.Cfg.Seed, iter, side, item)
	}
	rng.FillNormLanes(ws.z4, keys, len(items))
	if kern == KernelRankOne {
		ws.drawRankOne(len(items), s.Cfg.Alpha, other, hyper)
		return
	}
	ws.drawCholesky(len(items), s.Cfg.Alpha, other, hyper)
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
