// Package partition implements the paper's Section IV-B data distribution:
// U and V are split into contiguous row ranges after reordering R, with
// boundaries chosen by a workload model (fixed cost plus cost per rating)
// so every rank gets equal work, and with the reordering chosen to keep
// each item's raters clustered so that contiguous partitions minimize the
// number of ranks an updated item must be sent to.
package partition

import (
	"sort"

	"repro/internal/sparse"
)

// CostModel is the paper's workload model: the cost of updating one item
// is Fixed + PerRating·nnz(item). The constants are calibrated from the
// Figure 2 measurements (see internal/des).
type CostModel struct {
	Fixed     float64
	PerRating float64
}

// DefaultCostModel returns a generic model: per-rating work dominates
// beyond ~30 ratings, matching the serial kernels' profile.
func DefaultCostModel() CostModel { return CostModel{Fixed: 1, PerRating: 0.035} }

// Cost returns the modeled cost of an item with the given rating count.
func (m CostModel) Cost(nnz int) float64 { return m.Fixed + m.PerRating*float64(nnz) }

// Weights maps per-item rating counts to modeled costs.
func (m CostModel) Weights(degrees []int) []float64 {
	w := make([]float64, len(degrees))
	for i, d := range degrees {
		w[i] = m.Cost(d)
	}
	return w
}

// ChainsOnChains computes an optimal contiguous partition of weights into
// parts intervals minimizing the maximum interval sum (the classic
// chains-on-chains partitioning problem), via binary search on the
// bottleneck value with a greedy feasibility probe. Returns the boundary
// list b of length parts+1 with b[0] = 0 and b[parts] = len(weights);
// interval p is [b[p], b[p+1]).
func ChainsOnChains(weights []float64, parts int) []int {
	n := len(weights)
	if parts < 1 {
		panic("partition: parts must be >= 1")
	}
	if n == 0 {
		return make([]int, parts+1)
	}
	var total, maxW float64
	for _, w := range weights {
		if w < 0 {
			panic("partition: negative weight")
		}
		total += w
		if w > maxW {
			maxW = w
		}
	}
	lo := maxW
	if avg := total / float64(parts); avg > lo {
		lo = avg
	}
	hi := total
	// Feasibility probe: can we split into <= parts chains of sum <= b?
	feasible := func(b float64) bool {
		chains := 1
		var cur float64
		for _, w := range weights {
			if cur+w > b {
				chains++
				cur = w
				if chains > parts {
					return false
				}
			} else {
				cur += w
			}
		}
		return true
	}
	for i := 0; i < 60 && hi-lo > 1e-9*(1+hi); i++ {
		mid := (lo + hi) / 2
		if feasible(mid) {
			hi = mid
		} else {
			lo = mid
		}
	}
	// Build boundaries greedily at the found bottleneck, then pad any
	// unused parts with empty intervals at the end.
	bounds := []int{0}
	var cur float64
	for i, w := range weights {
		if cur+w > hi && cur > 0 && len(bounds) < parts {
			bounds = append(bounds, i)
			cur = 0
		}
		cur += w
	}
	for len(bounds) < parts {
		bounds = append(bounds, n)
	}
	bounds = append(bounds, n)
	return bounds
}

// Bottleneck returns the maximum interval sum of a boundary list.
func Bottleneck(weights []float64, bounds []int) float64 {
	var worst float64
	for p := 0; p+1 < len(bounds); p++ {
		var s float64
		for i := bounds[p]; i < bounds[p+1]; i++ {
			s += weights[i]
		}
		if s > worst {
			worst = s
		}
	}
	return worst
}

// EqualCount returns the naive boundary list splitting n items into parts
// equal-count intervals (the baseline the workload model improves on).
func EqualCount(n, parts int) []int {
	b := make([]int, parts+1)
	for p := 0; p <= parts; p++ {
		b[p] = p * n / parts
	}
	return b
}

// RCMPerms computes reverse-Cuthill–McKee-style orderings of the bipartite
// rating graph, returning row and column permutations (perm[newPos] =
// old index). BFS layers from a minimum-degree seed, visiting neighbors
// in ascending degree, cluster connected raters/items near each other,
// which is the bandwidth-reduction reordering Section IV-B uses to make
// contiguous partitions communication-light.
func RCMPerms(r *sparse.CSR) (rowPerm, colPerm []int32) {
	m, n := r.M, r.N
	rt := r.Transpose()
	rowDeg := r.RowDegrees()
	colDeg := rt.RowDegrees()

	rowOrder := make([]int32, 0, m)
	colOrder := make([]int32, 0, n)
	rowSeen := make([]bool, m)
	colSeen := make([]bool, n)

	// Rows sorted by degree provide BFS seeds (smallest degree first, the
	// classic CM heuristic).
	seeds := make([]int32, m)
	for i := range seeds {
		seeds[i] = int32(i)
	}
	sort.SliceStable(seeds, func(a, b int) bool { return rowDeg[seeds[a]] < rowDeg[seeds[b]] })

	queueRows := make([]int32, 0, m)
	queueCols := make([]int32, 0, n)
	for _, seed := range seeds {
		if rowSeen[seed] {
			continue
		}
		rowSeen[seed] = true
		queueRows = append(queueRows[:0], seed)
		// Alternating BFS over the bipartite graph.
		for len(queueRows) > 0 || len(queueCols) > 0 {
			queueCols = queueCols[:0]
			for _, row := range queueRows {
				rowOrder = append(rowOrder, row)
				cols, _ := r.Row(int(row))
				for _, c := range cols {
					if !colSeen[c] {
						colSeen[c] = true
						queueCols = append(queueCols, c)
					}
				}
			}
			sort.SliceStable(queueCols, func(a, b int) bool {
				return colDeg[queueCols[a]] < colDeg[queueCols[b]]
			})
			queueRows = queueRows[:0]
			for _, col := range queueCols {
				colOrder = append(colOrder, col)
				rows, _ := rt.Row(int(col))
				for _, rr := range rows {
					if !rowSeen[rr] {
						rowSeen[rr] = true
						queueRows = append(queueRows, rr)
					}
				}
			}
			sort.SliceStable(queueRows, func(a, b int) bool {
				return rowDeg[queueRows[a]] < rowDeg[queueRows[b]]
			})
		}
	}
	// Append isolated columns (no ratings).
	for j := 0; j < n; j++ {
		if !colSeen[j] {
			colOrder = append(colOrder, int32(j))
		}
	}
	// Reverse both orders (the "R" in RCM, reducing profile).
	reverse32(rowOrder)
	reverse32(colOrder)
	return rowOrder, colOrder
}

func reverse32(s []int32) {
	for i, j := 0, len(s)-1; i < j; i, j = i+1, j-1 {
		s[i], s[j] = s[j], s[i]
	}
}

// CommVolume evaluates a partition: for every row item, the set of ranks
// owning columns it rates (those ranks need the item's updated factor),
// and vice versa. Returns the total number of (item, destination) pairs
// per Gibbs iteration — multiply by K·8 bytes for traffic — and the
// maximum over ranks of items received per iteration.
func CommVolume(r *sparse.CSR, rowBounds, colBounds []int) (totalSends int64, maxInbox int64) {
	p := len(rowBounds) - 1
	inbox := make([]int64, p)
	colOwner := ownersArray(colBounds, r.N)
	rowOwner := ownersArray(rowBounds, r.M)

	// Row items -> ranks owning rated columns.
	seen := make([]int, p)
	epoch := 0
	for i := 0; i < r.M; i++ {
		epoch++
		cols, _ := r.Row(i)
		self := rowOwner[i]
		for _, c := range cols {
			o := colOwner[c]
			if o != self && seen[o] != epoch {
				seen[o] = epoch
				totalSends++
				inbox[o]++
			}
		}
	}
	// Column items -> ranks owning rating rows.
	rt := r.Transpose()
	for j := 0; j < rt.M; j++ {
		epoch++
		rows, _ := rt.Row(j)
		self := colOwner[j]
		for _, rr := range rows {
			o := rowOwner[rr]
			if o != self && seen[o] != epoch {
				seen[o] = epoch
				totalSends++
				inbox[o]++
			}
		}
	}
	for _, v := range inbox {
		if v > maxInbox {
			maxInbox = v
		}
	}
	return
}

func ownersArray(bounds []int, n int) []int {
	owner := make([]int, n)
	for p := 0; p+1 < len(bounds); p++ {
		for i := bounds[p]; i < bounds[p+1]; i++ {
			owner[i] = p
		}
	}
	return owner
}

// Plan is a complete data distribution for the distributed engine: the
// (possibly reordered) matrix and the row/column ownership boundaries.
type Plan struct {
	// R is the rating matrix in the order the engine will use (reordered
	// iff Reordered is true).
	R *sparse.CSR
	// RowPerm/ColPerm map new positions to original indices (nil when no
	// reordering was applied).
	RowPerm, ColPerm []int32
	// RowBounds/ColBounds are the contiguous ownership ranges per rank.
	RowBounds, ColBounds []int
	Reordered            bool
}

// Options configures Build.
type Options struct {
	Ranks   int
	Model   CostModel
	Reorder bool // apply RCM reordering before partitioning
}

// Build produces a partition plan for r: optional RCM reordering followed
// by workload-balanced chains-on-chains partitioning of both sides.
func Build(r *sparse.CSR, opt Options) *Plan {
	if opt.Ranks < 1 {
		panic("partition: need at least one rank")
	}
	plan := &Plan{R: r}
	if opt.Reorder {
		rp, cp := RCMPerms(r)
		plan.R = r.Permute(rp, cp)
		plan.RowPerm, plan.ColPerm = rp, cp
		plan.Reordered = true
	}
	model := opt.Model
	if model == (CostModel{}) {
		model = DefaultCostModel()
	}
	rowW := model.Weights(plan.R.RowDegrees())
	colW := model.Weights(plan.R.Transpose().RowDegrees())
	plan.RowBounds = ChainsOnChains(rowW, opt.Ranks)
	plan.ColBounds = ChainsOnChains(colW, opt.Ranks)
	return plan
}
