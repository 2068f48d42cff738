package des

import (
	"container/heap"

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

// threadHeap is a min-heap of thread finish times for greedy list
// scheduling.
type threadHeap []float64

func (h threadHeap) Len() int           { return len(h) }
func (h threadHeap) Less(i, j int) bool { return h[i] < h[j] }
func (h threadHeap) Swap(i, j int)      { h[i], h[j] = h[j], h[i] }
func (h *threadHeap) Push(x any)        { *h = append(*h, x.(float64)) }
func (h *threadHeap) Pop() any {
	old := *h
	n := len(old)
	x := old[n-1]
	*h = old[:n-1]
	return x
}

// sweep returns the modeled duration of one item sweep on this node: the
// items whose rating counts nnz lists, in storage order, drawn by the
// node's CoresPerNode cores under its Policy. The policies split that
// order. The real engines walk the sampler's lane order instead
// (core.Sampler.Order: per moment group, Cholesky-kernel items, then
// rank-one items by ascending degree), so a static split of the
// simulation and of a real run hand a thread different items.
func (m Machine) sweep(nnz []int, cm CostModel, cfg *core.Config) float64 {
	threads := max(m.CoresPerNode, 1)
	switch m.Policy {
	case PolicyWorkSteal:
		return workStealMakespan(nnz, threads, cm, cfg)
	case PolicyStatic:
		return staticMakespan(nnz, threads, cm, cfg)
	case PolicyGraphLab:
		return graphlabMakespan(nnz, threads, cm, cfg)
	default:
		panic("des: unknown policy")
	}
}

// workStealMakespan models the TBB engine: greedy list scheduling (an
// idle core always takes the next available task, which is what random
// stealing converges to) with items expanded grain-wise for heavy items,
// so one hot movie becomes many small tasks (the paper's Section III).
func workStealMakespan(nnz []int, threads int, cm CostModel, cfg *core.Config) float64 {
	h := make(threadHeap, threads)
	heap.Init(&h)
	assign := func(cost float64) {
		t := h[0]
		h[0] = t + cost
		heap.Fix(&h, 0)
	}
	assignAfter := func(ready, cost float64) float64 {
		t := h[0]
		if ready > t {
			t = ready
		}
		end := t + cost
		h[0] = end
		heap.Fix(&h, 0)
		return end
	}
	for _, d := range nnz {
		switch cfg.SelectKernel(d) {
		case core.KernelRankOne:
			assign(cm.RankOneItemCost(d) + cm.TaskOverhead)
		case core.KernelCholesky:
			assign(cm.SerialItemCost(d) + cm.TaskOverhead)
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
				end := assignAfter(0, cm.PerRating*float64(sz)+cm.TaskOverhead)
				if end > lastEnd {
					lastEnd = end
				}
			}
			assignAfter(lastEnd, cm.PerItem+cm.TaskOverhead)
		}
	}
	var makespan float64
	for _, t := range h {
		if t > makespan {
			makespan = t
		}
	}
	return makespan
}

// staticMakespan models the OpenMP engine: contiguous equal-count chunks,
// no rebalancing, no heavy-item splitting (the static engine executes the
// chunked kernel inline on one thread), plus one barrier.
func staticMakespan(nnz []int, threads int, cm CostModel, cfg *core.Config) float64 {
	bounds := sched.StaticChunks(threads, 0, len(nnz))
	var makespan float64
	for t := 0; t+1 < len(bounds); t++ {
		var sum float64
		for i := bounds[t]; i < bounds[t+1]; i++ {
			d := nnz[i]
			switch cfg.SelectKernel(d) {
			case core.KernelRankOne:
				sum += cm.RankOneItemCost(d)
			default:
				sum += cm.SerialItemCost(d)
			}
		}
		if sum > makespan {
			makespan = sum
		}
	}
	return makespan + cm.BarrierPerThread*float64(threads)
}

// graphlabMakespan models the synchronous vertex engine: static vertex
// partition, per-activation and per-edge framework overheads, serial
// Cholesky math for every vertex (the program cannot nest parallelism),
// plus the superstep barrier.
func graphlabMakespan(nnz []int, threads int, cm CostModel, cfg *core.Config) float64 {
	bounds := sched.StaticChunks(threads, 0, len(nnz))
	var makespan float64
	for t := 0; t+1 < len(bounds); t++ {
		var sum float64
		for i := bounds[t]; i < bounds[t+1]; i++ {
			d := nnz[i]
			sum += cm.SerialItemCost(d) + cm.GraphLabPerVertex + cm.GraphLabPerEdge*float64(d)
		}
		if sum > makespan {
			makespan = sum
		}
	}
	return makespan + cm.BarrierPerThread*float64(threads)
}
