// Package graphlab implements the baseline the paper compares against in
// Figure 3: a GraphLab-style synchronous vertex-program engine running
// BPMF over the bipartite rating graph.
//
// The engine reproduces the structural properties that make the real
// GraphLab trail the hand-tuned TBB code on this workload:
//
//   - programmer-productivity abstraction: vertex programs are invoked
//     through an interface, gather accumulators are allocated per vertex
//     activation, and neighbor factors are copied into the accumulator
//     and re-materialized before the update (the kernels' internal
//     scratch is one workspace per engine thread — our substrate detail —
//     but the gather copies themselves are the abstraction's tax);
//   - synchronous supersteps: one barrier per side per Gibbs iteration,
//     so a straggler vertex (a movie with 10⁵ ratings) stalls every
//     thread;
//   - static vertex partitioning with no work stealing and no nested
//     parallelism inside one vertex program.
//
// The engine is an executor for the one Gibbs driver in package core: a
// sweep is a superstep, and the arithmetic inside Apply is the sampler's
// own item draw (core.Sampler.DrawItem with no pool worker, so a heavy
// item's chunks run inline, without nested tasks) over the gathered
// copies: each vertex is a lane group of one, the body the flat engines'
// groups of up to four run. An item's bits do not depend on the items
// beside it, so the chain it samples is bit-identical to the sequential
// reference — the paper's "all versions reach the same level of
// prediction accuracy" holds exactly.
package graphlab

import (
	"repro/internal/core"
	"repro/internal/la"
	"repro/internal/sched"
	"repro/internal/sparse"
)

// Graph is the bipartite rating graph: user vertices [0, M) and movie
// vertices [M, M+N), with one edge per observed rating.
type Graph struct {
	NumUsers, NumMovies int
	R                   *sparse.CSR // user -> movie edges
	Rt                  *sparse.CSR // movie -> user edges
}

// NewGraph builds the bipartite graph of a problem.
func NewGraph(prob *core.Problem) *Graph {
	return &Graph{
		NumUsers:  prob.R.M,
		NumMovies: prob.R.N,
		R:         prob.R,
		Rt:        prob.Rt,
	}
}

// Edges returns the neighbor list of one side's local vertex.
func (g *Graph) Edges(side core.Side, local int) ([]int32, []float64) {
	if side == core.SideU {
		return g.R.Row(local)
	}
	return g.Rt.Row(local)
}

// Program is the vertex-program abstraction (gather–apply; BPMF needs no
// scatter because the engine signals the full opposite side each
// superstep). Implementations receive one freshly allocated accumulator
// per vertex activation, GraphLab-style.
type Program interface {
	// InitAcc allocates the gather accumulator for one vertex activation.
	InitAcc(nEdges int) any
	// Gather folds one edge (the neighbor's current factor row and the
	// edge's rating) into the accumulator. Called once per edge, in
	// canonical storage order.
	Gather(acc any, neighbor la.Vector, rating float64)
	// Apply consumes the accumulator and writes the vertex's new factor.
	// thread is the engine thread running the activation (GraphLab's
	// execution-context id), letting programs keep thread-local scratch.
	Apply(side core.Side, local, thread int, acc any, out la.Vector)
}

// Engine is a synchronous (bulk-synchronous-parallel) vertex engine with
// static partitioning, the closest analogue of GraphLab's sync engine
// configuration used for matrix factorization benchmarks.
type Engine struct {
	G       *Graph
	Threads int

	// ws is the BPMF vertex program's kernel scratch, one workspace per
	// engine thread, indexed by Apply's thread id (set by Attach).
	ws []*core.Workspace
}

// NewEngine creates a synchronous engine over g with the given thread
// count.
func NewEngine(g *Graph, threads int) *Engine {
	if threads < 1 {
		threads = 1
	}
	return &Engine{G: g, Threads: threads}
}

// Superstep activates every vertex of one side in vertex-id order, each
// thread a contiguous range of ids, running gather over all edges and then
// apply, with a barrier at the end (implicit in StaticFor). factors is the
// side's own factor matrix (written); other the partner side's (read).
// Every activation reads only the frozen partner side and writes only its
// own vertex, so the order changes no sampled bit — GraphLab's own engines
// make the same no-ordering promise to vertex programs — and each vertex
// is drawn alone, so the flat engines' lane order, which packs the
// heaviest items together, would only load one thread's range with them.
func (e *Engine) Superstep(side core.Side, prog Program, factors, other *la.Matrix) {
	sched.StaticFor(e.Threads, 0, factors.Rows, func(t, lo, hi int) {
		for v := lo; v < hi; v++ {
			cols, vals := e.G.Edges(side, v)
			acc := prog.InitAcc(len(cols)) // per-activation allocation
			for k, c := range cols {
				prog.Gather(acc, other.Row(int(c)), vals[k])
			}
			prog.Apply(side, v, t, acc, factors.Row(v))
		}
	})
}

// bpmfAcc is the BPMF program's gather accumulator: the neighbor factors
// and ratings copied out of the graph, GraphLab-style (the high-level
// abstraction prevents the in-place CSR iteration the hand-tuned kernels
// use — this copy is part of the productivity tax Figure 3 measures).
type bpmfAcc struct {
	cols []int32
	vals []float64
	rows []la.Vector
}

// Run executes BPMF on prob with the GraphLab-style engine.
func Run(cfg core.Config, prob *core.Problem, threads int) (*core.Result, error) {
	s, err := core.NewSampler(cfg, prob)
	if err != nil {
		return nil, err
	}
	Attach(s, threads)
	return s.Run(), nil
}

// Attach binds s to a GraphLab-style engine over its problem's rating
// graph, so that s.Run, s.RunFrom and s.Checkpoint sample the same chain
// through vertex programs, activated in vertex-id order.
func Attach(s *core.Sampler, threads int) {
	e := NewEngine(NewGraph(s.Prob), threads)
	e.ws = make([]*core.Workspace, e.Threads)
	for t := range e.ws {
		e.ws[t] = core.NewWorkspace(s.Cfg.K)
	}
	s.Use(e)
}

// Sweep implements core.Executor: one superstep over the side's vertices.
func (e *Engine) Sweep(s *core.Sampler, side core.Side, iter int) {
	factors, other, _, _ := s.Side(side)
	e.Superstep(side, &program{s: s, iter: iter, ws: e.ws}, factors, other)
}

// Each implements core.Executor through the engine's static split — the
// moment reduction and the evaluation are aggregates in GraphLab's
// vocabulary.
func (e *Engine) Each(n int, run func(i int)) {
	sched.StaticFor(e.Threads, 0, n, func(_, lo, hi int) {
		for i := lo; i < hi; i++ {
			run(i)
		}
	})
}

// program is the concrete BPMF vertex program of one superstep.
type program struct {
	s    *core.Sampler
	iter int
	ws   []*core.Workspace
}

// InitAcc allocates the per-activation accumulator.
func (p *program) InitAcc(nEdges int) any {
	return &bpmfAcc{
		cols: make([]int32, 0, nEdges),
		vals: make([]float64, 0, nEdges),
		rows: make([]la.Vector, 0, nEdges),
	}
}

// Gather copies the neighbor's factor reference and the rating.
func (p *program) Gather(acc any, neighbor la.Vector, rating float64) {
	a := acc.(*bpmfAcc)
	a.cols = append(a.cols, int32(len(a.rows)))
	a.vals = append(a.vals, rating)
	a.rows = append(a.rows, neighbor)
}

// Apply performs the sampler's Gibbs draw over the gathered copies
// (inline, no nested parallelism), writing the vertex's new factor row.
// The kernel scratch — our substrate, not part of the vertex-program
// abstraction — is the engine thread's own workspace: a thread activates
// its range's vertices one after another and draws each inline, so
// nothing re-enters it. The GraphLab productivity tax Figure 3 measures
// stays in InitAcc/Gather and the re-materialization below.
func (p *program) Apply(side core.Side, local, thread int, acc any, out la.Vector) {
	a := acc.(*bpmfAcc)
	// Rebuild a dense "other" view so the draw accumulates in the same
	// canonical order as the flat engines.
	view := &rowView{rows: a.rows, k: p.s.Cfg.K}
	p.s.DrawItem(p.ws[thread], nil, side, p.iter, local, a.cols, a.vals, view.matrix(), out)
}

// rowView materializes gathered rows into a contiguous matrix (another
// copy the high-level abstraction forces).
type rowView struct {
	rows []la.Vector
	k    int
}

func (rv *rowView) matrix() *la.Matrix {
	m := la.NewMatrix(len(rv.rows), rv.k)
	for i, r := range rv.rows {
		copy(m.Row(i), r)
	}
	return m
}
