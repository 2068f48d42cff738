// panels.go teaches the partitioner to consume a .bcsr file's shard
// table as the row-panel source: rank boundaries snap to shard
// boundaries, so a distributed rank's owned rows are exactly a run of
// whole shards and it can read (or map) just those. The panel weights
// come from the shard headers alone — row count and pre-split entry
// count — which is what makes the assignment computable by every rank
// before anyone has decoded a single payload byte.
package partition

// Panels describes the row panels of a sharded matrix: panel s covers
// rows [Lo[s], Hi[s]) and holds NNZ[s] stored entries (as written,
// i.e. before any train/test split).
type Panels struct {
	Lo, Hi []int
	NNZ    []int64
}

// PanelsOf extracts the panel table from any sharded source exposing
// the Mapped reader's Shard accessors.
func PanelsOf(src interface {
	Shards() int
	Shard(s int) (rowLo, rowHi int, nnz int64)
}) Panels {
	n := src.Shards()
	p := Panels{Lo: make([]int, n), Hi: make([]int, n), NNZ: make([]int64, n)}
	for s := 0; s < n; s++ {
		p.Lo[s], p.Hi[s], p.NNZ[s] = src.Shard(s)
	}
	return p
}

// Rows returns the total row count the panels cover.
func (p Panels) Rows() int {
	if len(p.Hi) == 0 {
		return 0
	}
	return p.Hi[len(p.Hi)-1]
}

// AssignPanels splits the panels into ranks contiguous groups,
// balancing the workload model's panel costs (Fixed per row plus
// PerRating per entry) with the same chains-on-chains machinery the
// per-row partitioner uses, and returns the row boundary list —
// always aligned to panel boundaries. It is a pure function of the
// shard table, so every rank derives the identical assignment locally.
// Over one-row panels a weight is CostModel.Cost(nnz) bit for bit
// (Fixed·1 is Fixed), so the bounds are Build's row bounds.
func AssignPanels(p Panels, ranks int) []int {
	model := DefaultCostModel()
	w := make([]float64, len(p.Lo))
	for s := range w {
		w[s] = float64(model.Fixed*float64(p.Hi[s]-p.Lo[s])) + float64(model.PerRating*float64(p.NNZ[s]))
	}
	cut := ChainsOnChains(w, ranks)
	rows := p.Rows()
	bounds := make([]int, ranks+1)
	for i, c := range cut {
		if c == len(p.Lo) {
			bounds[i] = rows
		} else {
			bounds[i] = p.Lo[c]
		}
	}
	return bounds
}
