// Package mc implements the paper's Section III: multi-core BPMF. It is
// two executors for the one Gibbs driver in package core — they decide
// only which thread draws which schedule positions; what is drawn, and
// the order every reduction is combined in, is core.Sampler's:
//
//   - WorkSteal — the "TBB" version: positions are scheduled on a
//     work-stealing pool with a small grain, heavy items (>=
//     Config.KernelThreshold ratings) additionally split into nested
//     subtasks via the parallel Cholesky kernel. Work stealing rebalances
//     the skewed per-item costs.
//   - Static — the "OpenMP" version: positions are split into one
//     contiguous equal-count chunk per thread (OpenMP schedule(static));
//     no nested parallelism, no rebalancing.
//
// Both walk the items of each phase in a locality schedule (package
// order): consecutive positions hold items whose rating sets overlap, so
// the gathered partner rows of one update are still cache-resident for
// the next. The work-stealing engine additionally leads with the heavy
// items so the pool never ends a phase on a straggler; the static engine
// keeps the pure RCM order, since its contiguous per-thread chunks would
// pin a heavy-first bin to thread 0.
//
// Because the sampler is the sequential reference's own — same keyed
// streams, same canonical per-item and moment arithmetic, same fixed
// evaluation chunk tree (core.EvalChunk, combined ascending) — the chains
// and RMSE traces are bit-identical to it (and to each other) for any
// thread count and any processing order.
package mc

import (
	"fmt"

	"repro/internal/core"
	"repro/internal/order"
	"repro/internal/sched"
)

// Engine identifies a multi-core scheduling strategy.
type Engine int

// The two multi-core engines of Figure 3 (GraphLab lives in package
// graphlab).
const (
	WorkSteal Engine = iota // TBB-style work stealing with nested parallelism
	Static                  // OpenMP-style static contiguous chunks
)

// String names the engine as in Figure 3's legend.
func (e Engine) String() string {
	switch e {
	case WorkSteal:
		return "TBB"
	case Static:
		return "OpenMP"
	default:
		return "unknown"
	}
}

// Run executes BPMF on prob with the given engine and thread count and
// returns the result, walking each phase in the engine's default locality
// schedule. The sampled chain is bit-identical to the sequential
// core.Sampler's for the same Config.
func Run(engine Engine, cfg core.Config, prob *core.Problem, threads int) (*core.Result, error) {
	return run(engine, cfg, prob, threads, nil)
}

// RunScheduled is Run with an explicit processing schedule (nil sch or nil
// sides mean storage order). Any permutation yields the bit-identical
// chain; the schedule only decides cache behavior, which is what lets the
// differential tests drive the engines over random permutations. A
// non-permutation order is rejected.
func RunScheduled(engine Engine, cfg core.Config, prob *core.Problem, threads int, sch *order.Schedule) (*core.Result, error) {
	if sch == nil {
		sch = &order.Schedule{}
	}
	return run(engine, cfg, prob, threads, sch)
}

func run(engine Engine, cfg core.Config, prob *core.Problem, threads int, sch *order.Schedule) (*core.Result, error) {
	s, err := core.NewSampler(cfg, prob)
	if err != nil {
		return nil, err
	}
	release, err := Attach(s, engine, threads, sch)
	if err != nil {
		return nil, err
	}
	defer release()
	return s.Run(), nil
}

// Attach binds s to the engine's executor on the given thread count, so
// that s.Run, s.RunFrom and s.Checkpoint work exactly as on a sequential
// sampler — same chain, the engine's threads. A nil sch selects the
// engine's default locality schedule (heavy-first binning only under
// work stealing); &order.Schedule{} is storage order. release stops the
// executor's threads once the caller is done running s.
func Attach(s *core.Sampler, engine Engine, threads int, sch *order.Schedule) (release func(), err error) {
	if threads < 1 {
		threads = 1
	}
	var opt order.Options
	var exec core.Executor
	release = func() {}
	switch engine {
	case WorkSteal:
		opt.HeavyThreshold = s.Cfg.KernelThreshold
		pool := sched.NewPool(threads)
		exec, release = workSteal{pool}, pool.Close
	case Static:
		exec = static{threads}
	default:
		return nil, fmt.Errorf("mc: unknown engine %d", engine)
	}
	if sch == nil {
		sch = order.Build(s.Prob.R, opt)
	}
	if err := s.Use(exec, *sch); err != nil {
		release()
		return nil, err
	}
	return release, nil
}

// workSteal schedules ranges on a work-stealing pool; the worker handed
// to UpdateRange lets a heavy item's kernel spawn nested tasks there.
type workSteal struct{ pool *sched.Pool }

func (e workSteal) Sweep(s *core.Sampler, side core.Side, iter int) {
	ord, n := s.Order(side)
	e.pool.ParallelFor(0, n, core.ItemGrain, func(w *sched.Worker, lo, hi int) {
		s.UpdateRange(side, iter, ord, lo, hi, w)
	})
}

func (e workSteal) Each(n int, run func(i int)) {
	e.pool.ParallelFor(0, n, 1, func(_ *sched.Worker, lo, hi int) {
		for i := lo; i < hi; i++ {
			run(i)
		}
	})
}

// static splits every loop into one contiguous chunk per thread, with no
// nested parallelism (the sample stays bit-identical because the
// parallel kernel's task DAG is schedule-independent).
type static struct{ threads int }

func (e static) Sweep(s *core.Sampler, side core.Side, iter int) {
	ord, n := s.Order(side)
	sched.StaticFor(e.threads, 0, n, func(_, lo, hi int) {
		s.UpdateRange(side, iter, ord, lo, hi, nil)
	})
}

func (e static) Each(n int, run func(i int)) {
	sched.StaticFor(e.threads, 0, n, func(_, lo, hi int) {
		for i := lo; i < hi; i++ {
			run(i)
		}
	})
}
