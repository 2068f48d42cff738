// Package partition implements the paper's Section IV-B data distribution:
// U and V are split into contiguous row ranges of R as stored, with
// boundaries chosen by a workload model (fixed cost plus cost per rating)
// so every rank gets equal work. The paper's RCM reordering of R is not
// applied (ROADMAP item 7: 0.0–0.1 % fewer ghost sends on ML20M shapes);
// RCMPerms survives for order.Build, which no engine walks (the benchmark
// times it), and for ablation 4's reordered matrix.
//
// A Plan also fixes the Section IV-C ghost exchange: Plan.Route says, for
// one rank, which ranks each owned item's updated row goes to and how many
// foreign rows arrive. It is the only copy of that rule — the distributed
// engine (dist.Node), CommVolume and the simulator (des) all call it —
// and Owners is the one owner-array helper beside it.
package partition

import (
	"slices"
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
//
// The product is rounded on its own (the explicit conversion), so arm64,
// which would fuse it into the add, gives every rank the bits amd64 does.
func (m CostModel) Cost(nnz int) float64 { return m.Fixed + float64(m.PerRating*float64(nnz)) }

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

// Plan is a complete data distribution for the distributed engine: the
// matrix and the row/column ownership boundaries.
type Plan struct {
	// R is the rating matrix, in the index space the caller stored it in.
	R *sparse.CSR
	// RowBounds/ColBounds are the contiguous ownership ranges per rank.
	RowBounds, ColBounds []int
}

// Build produces a partition plan for r over ranks nodes: workload-
// balanced chains-on-chains partitioning of both sides, in r's own
// order.
func Build(r *sparse.CSR, ranks int) *Plan {
	if ranks < 1 {
		panic("partition: need at least one rank")
	}
	model := DefaultCostModel()
	return &Plan{
		R:         r,
		RowBounds: ChainsOnChains(model.Weights(r.RowDegrees()), ranks),
		ColBounds: ChainsOnChains(model.Weights(r.Transpose().RowDegrees()), ranks),
	}
}

// CommVolume evaluates a partition: the number of (item, destination)
// pairs per Gibbs iteration summed over ranks (multiply by K·8 bytes for
// traffic) and the maximum over ranks of items received per iteration —
// Plan.Route with no test set, over every rank.
func CommVolume(r *sparse.CSR, rowBounds, colBounds []int) (totalSends int64, maxInbox int64) {
	plan := &Plan{R: r, RowBounds: rowBounds, ColBounds: colBounds}
	rt := r.Transpose()
	rowOwner, colOwner := Owners(rowBounds, r.M), Owners(colBounds, r.N)
	for q := 0; q+1 < len(rowBounds); q++ {
		routes := plan.Route(q, rt, rowOwner, colOwner, nil)
		inbox := int64(routes.RecvU + routes.RecvV)
		totalSends += inbox
		maxInbox = max(maxInbox, inbox)
	}
	return
}

// Owners returns the owner array of a boundary list over n items:
// owner[i] is the p with bounds[p] <= i < bounds[p+1].
func Owners(bounds []int, n int) []int32 {
	owner := make([]int32, n)
	for p := 0; p+1 < len(bounds); p++ {
		for i := bounds[p]; i < bounds[p+1]; i++ {
			owner[i] = int32(p)
		}
	}
	return owner
}

// Routes is one rank's share of the ghost exchange (Section IV-C): where
// each owned item's updated row goes, and how many foreign rows arrive,
// in every Gibbs iteration.
type Routes struct {
	// SendU[i-lo] lists, ascending, the ranks owned user i's row must
	// reach: the owners of the movies i rated, which read it in the next
	// movie phase. SendV[j-lo] lists the ranks owned movie j's row must
	// reach: the owners of its raters and of the users holding a test
	// entry on j, so evaluation sees the fresh row. The rank itself is
	// never listed.
	SendU, SendV [][]int32
	// RecvU and RecvV count the distinct foreign user and movie rows the
	// rank receives: the foreign raters of its movies, and the foreign
	// movies its users rated or hold a test entry on. Summed over ranks,
	// they equal the list entries summed over ranks.
	RecvU, RecvV int
}

// Route derives rank's Routes. It is the one statement of the routing
// rule: the distributed engine, CommVolume and the simulator all call it.
// It reads only the rank's own slices — its rows of p.R, its columns of
// rt (p.R's transpose, each owned column with its complete rater list)
// and the test entries on its rows or columns (test may be nil) — so a
// rank that loaded only those can derive its table from the shared
// bounds, and no routing metadata travels.
func (p *Plan) Route(rank int, rt *sparse.CSR, rowOwner, colOwner []int32, test []sparse.Entry) *Routes {
	rowLo, rowHi := p.RowBounds[rank], p.RowBounds[rank+1]
	colLo, colHi := p.ColBounds[rank], p.ColBounds[rank+1]
	self := int32(rank)
	out := &Routes{}

	// lists returns the distinct owners of each owned row's partners in r,
	// self excluded, ascending, all cut from one backing array. seen marks
	// the ranks already listed for the current row (epoch).
	seen := make([]int, len(p.RowBounds)-1)
	epoch := 0
	lists := func(r *sparse.CSR, lo, hi int, owner []int32) [][]int32 {
		var flat []int32
		ends := make([]int, hi-lo)
		for x := lo; x < hi; x++ {
			epoch++
			seen[self] = epoch
			start := len(flat)
			partners, _ := r.Row(x)
			for _, y := range partners {
				if o := owner[y]; seen[o] != epoch {
					seen[o] = epoch
					flat = append(flat, o)
				}
			}
			slices.Sort(flat[start:])
			ends[x-lo] = len(flat)
		}
		cut := make([][]int32, hi-lo)
		start := 0
		for k, e := range ends {
			cut[k] = flat[start:e:e]
			start = e
		}
		return cut
	}
	out.SendV = lists(rt, colLo, colHi, rowOwner)
	out.SendU = lists(p.R, rowLo, rowHi, colOwner)

	// distinct counts the foreign partners of the owned rows [lo, hi) of
	// r, marking them in vis.
	distinct := func(r *sparse.CSR, lo, hi int, owner []int32, vis []bool) (n int) {
		for x := lo; x < hi; x++ {
			partners, _ := r.Row(x)
			for _, y := range partners {
				if owner[y] != self && !vis[y] {
					vis[y] = true
					n++
				}
			}
		}
		return n
	}
	out.RecvU = distinct(rt, colLo, colHi, rowOwner, make([]bool, p.R.M))
	visCol := make([]bool, p.R.N)
	out.RecvV = distinct(p.R, rowLo, rowHi, colOwner, visCol)

	// A test entry (i, j) is scored on i's owner, which needs j's row.
	for _, e := range test {
		ro, co := rowOwner[e.Row], colOwner[e.Col]
		if ro == co {
			continue
		}
		if co == self {
			d := &out.SendV[int(e.Col)-colLo]
			if k, found := slices.BinarySearch(*d, ro); !found {
				*d = slices.Insert(*d, k, ro)
			}
		}
		if ro == self && !visCol[e.Col] {
			visCol[e.Col] = true
			out.RecvV++
		}
	}
	return out
}
