package des

import (
	"slices"

	"repro/internal/core"
	"repro/internal/sched"
)

// Policy selects a node's scheduling strategy (Figure 3's three curves).
// The zero value, work stealing, is what the distributed engine's ranks
// run.
type Policy int

// The three multi-core scheduling policies.
const (
	PolicyWorkSteal Policy = iota // TBB: grain-1 stealing + heavy-item splitting
	PolicyStatic                  // OpenMP schedule(static): contiguous chunks
	PolicyGraphLab                // sync vertex engine: static + per-vertex/edge overheads
)

// String names the policy as in the figure's legend.
func (p Policy) String() string {
	switch p {
	case PolicyWorkSteal:
		return "TBB"
	case PolicyStatic:
		return "OpenMP"
	case PolicyGraphLab:
		return "GraphLab"
	default:
		return "unknown"
	}
}

// Sweep returns the modeled duration of one item sweep on this node: the
// items whose rating counts nnz lists, drawn by the node's CoresPerNode
// cores under its Policy with the kernels cfg selects by degree. The node
// walks nnz in storage order, one task per item (under work stealing a
// heavy item is one task per accumulation chunk plus its tail). The real
// engines walk the sampler's lane order instead (core.Sampler.Order: per
// moment group, Cholesky-kernel items, then rank-one items by ascending
// degree) in tasks of core.ItemGrain positions, so a static split of the
// simulation and of a real run hand a thread different items (ROADMAP
// item 4).
func (m Machine) Sweep(nnz []int, cm CostModel, cfg *core.Config) float64 {
	threads := max(m.CoresPerNode, 1)
	switch m.Policy {
	case PolicyWorkSteal:
		return workStealMakespan(nnz, threads, cm, cfg)
	case PolicyStatic, PolicyGraphLab:
		return m.staticMakespan(nnz, threads, cm, cfg)
	default:
		panic("des: unknown policy")
	}
}

// workStealMakespan models the TBB engine: greedy list scheduling (an
// idle core always takes the next available task, which is what random
// stealing converges to) with items expanded grain-wise for heavy items,
// so one hot movie becomes many small tasks (the paper's Section III).
func workStealMakespan(nnz []int, threads int, cm CostModel, cfg *core.Config) float64 {
	free := make([]float64, threads) // when each core finishes its tasks
	// run puts a task of the given cost on a core that frees first, no
	// earlier than ready, and returns its end. Any least-loaded core gives
	// the same makespan.
	run := func(ready, cost float64) float64 {
		c := 0
		for i, t := range free {
			if t < free[c] {
				c = i
			}
		}
		free[c] = max(free[c], ready) + cost
		return free[c]
	}
	for _, d := range nnz {
		switch cfg.SelectKernel(d) {
		case core.KernelRankOne:
			run(0, cm.RankOneItemCost(d)+cm.TaskOverhead)
		case core.KernelCholesky:
			run(0, cm.SerialItemCost(d)+cm.TaskOverhead)
		default:
			// Heavy item: chunked accumulation tasks all cores can take,
			// then the serial tail (factor + draw) after the last chunk.
			grain := cfg.ParallelGrain
			chunks := (d + grain - 1) / grain
			var lastEnd float64
			for cidx := 0; cidx < chunks; cidx++ {
				sz := grain
				if cidx == chunks-1 {
					sz = d - grain*(chunks-1)
				}
				lastEnd = max(lastEnd, run(0, cm.PerRating*float64(sz)+cm.TaskOverhead))
			}
			run(lastEnd, cm.PerItem+cm.TaskOverhead)
		}
	}
	return slices.Max(free)
}

// staticMakespan models the two statically split engines: contiguous
// equal-count chunks of items, no rebalancing, no heavy-item splitting,
// plus one barrier. OpenMP draws each item with its hybrid kernel (the
// static engine executes the chunked kernel inline on one thread);
// GraphLab's vertex program runs serial Cholesky math for every vertex
// (it cannot nest parallelism) and pays per-activation and per-edge
// framework overheads.
func (m Machine) staticMakespan(nnz []int, threads int, cm CostModel, cfg *core.Config) float64 {
	bounds := sched.StaticChunks(threads, 0, len(nnz))
	var makespan float64
	for t := 0; t+1 < len(bounds); t++ {
		var sum float64
		for _, d := range nnz[bounds[t]:bounds[t+1]] {
			switch {
			case m.Policy == PolicyGraphLab:
				sum += cm.SerialItemCost(d) + cm.GraphLabPerVertex + cm.GraphLabPerEdge*float64(d)
			case cfg.SelectKernel(d) == core.KernelRankOne:
				sum += cm.RankOneItemCost(d)
			default:
				sum += cm.SerialItemCost(d)
			}
		}
		makespan = max(makespan, sum)
	}
	return makespan + cm.BarrierPerThread*float64(threads)
}
