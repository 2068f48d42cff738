package rank

import (
	"math"
	"math/bits"

	"repro/internal/la"
)

// scorePanel is the item-panel height of every scoring pass, a multiple
// of la.Block32 and at most 64, the bits of la.BlockDot32's mask: the
// catalog is walked in contiguous panels of this many items. A ranking
// reads its heap's weakest score once per panel and la.BlockDot32 rules
// out a whole panel in one call; ScoreBatchInto scores each panel against
// every user of its batch while it is cache resident (64 items × K = 32
// columns are 16 KiB of float64 rows, L1-resident next to the users'
// rows), so V is read from memory once per batch, not per user.
const scorePanel = 64

// ScoreBatchInto computes the multi-user score matrix out = U·Vᵀ
// (out.Row(b)[j] = users.Row(b) · v.Row(j)) in panels of scorePanel
// items, for callers that want the scores themselves. users is the B x K
// batch of user factor rows; out must be B x v.Rows. Every score is
// la.Gemv's, so bit-identical to la.Dot for that user alone — batching
// changes memory traffic, never results. It allocates nothing.
func ScoreBatchInto(v, users, out *la.Matrix) {
	if users.Cols != v.Cols || out.Rows != users.Rows || out.Cols != v.Rows {
		panic("rank: ScoreBatchInto dimension mismatch")
	}
	panel := la.Matrix{Cols: v.Cols}
	for lo := 0; lo < v.Rows; lo += scorePanel {
		hi := min(lo+scorePanel, v.Rows)
		panel.Rows, panel.Data = hi-lo, v.Data[lo*v.Cols:hi*v.Cols]
		for b := 0; b < users.Rows; b++ {
			la.Gemv(1, &panel, users.Row(b), 0, out.Row(b)[lo:hi])
		}
	}
}

// Catalog is the item side of a ranking: the factor matrix V, whose
// la.Dot scores are served, and its float32 copy in la.PackBlocks32's
// layout, through which Recommend's first pass rules items out. It is
// immutable, safe for concurrent use, and keeps V without copying it, so
// V must not change after NewCatalog.
type Catalog struct {
	v      *la.Matrix
	blocks []float32
	vmax   float64 // max_j ‖v_j‖; NaN or +Inf if V holds a NaN or an infinity
}

// NewCatalog builds the float32 copy of v (v.Rows·v.Cols·4 bytes) and the
// largest row norm the score bound needs.
func NewCatalog(v *la.Matrix) *Catalog {
	var sq float64
	for j := 0; j < v.Rows; j++ {
		sq = max(sq, la.Dot(v.Row(j), v.Row(j))) // max keeps a NaN
	}
	return &Catalog{v: v, blocks: la.PackBlocks32(v), vmax: math.Sqrt(sq)}
}

// Recommend ranks every item of c for the user with factor row u (len
// v.Cols), skipping the ascending list excl (the CSR row-view contract;
// nil excludes nothing), and returns the top n items by descending
// score, fewer when the catalog minus exclusions is smaller. The catalog
// is walked once in panels, each through the two passes of the package
// comment: float32 scores from la.BlockDot32, then la.Dot and the top-n
// heap behind the exclusion cursor for every item they cannot rule out,
// in ascending item order. No score outlives its panel, so the pass
// needs no catalog-sized buffer, and it allocates only the returned
// list (nothing when n <= 0).
//
// The list is exactly TopNScoresExcluding over la.Dot(u, v.Row(j)) for
// every j — same scores, same heap, same tie-breaking.
func Recommend(c *Catalog, u la.Vector, excl []int32, n int) []Item {
	v := c.v
	if len(u) != v.Cols {
		panic("rank: Recommend dimension mismatch")
	}
	var top topN
	top.reset(min(n, v.Rows))
	if top.n <= 0 {
		return nil
	}
	bound := scoreBound(u, c.vmax) // M of u (package comment)
	cur := 0                       // cursor into excl: entries before it are below the current panel
	var t [scorePanel]float32
	for lo := 0; lo < v.Rows; lo += scorePanel {
		hi := min(lo+scorePanel, v.Rows)
		w := (hi - lo + la.Block32 - 1) &^ (la.Block32 - 1)
		theta := math.NaN() // rules nothing out
		if len(top.h) == top.n {
			theta = top.h[0].Score // the heap is full: only an item above its root enters
		}
		keep := la.BlockDot32(c.blocks[lo*v.Cols:(lo+w)*v.Cols], u, t[:w], bound, theta) & (1<<(hi-lo) - 1)
		for ; keep != 0; keep &= keep - 1 {
			j := lo + bits.TrailingZeros64(keep)
			if !excluded(excl, &cur, j) {
				top.offer(j, la.Dot(u, v.Row(j)))
			}
		}
	}
	return top.take()
}
