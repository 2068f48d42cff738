package rank

import (
	"math"
	"math/bits"

	"repro/internal/la"
)

// scorePanel is the item-panel height of every scoring pass, a multiple
// of la.Block32 and at most 64, the bits of la.BlockDot32's mask: the
// catalog is walked once per batch in contiguous panels of this many
// items, each scored against every user of the batch while it is cache
// resident (64 items × K = 32 columns are 8 KiB of float32 blocks,
// L1-resident next to the users' rows), so the catalog is read from
// memory once per batch, not per request.
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

// Query is one user of a Recommend pass: its factor row U (len v.Cols),
// the ascending list Excl of items to skip (the CSR row-view contract;
// nil excludes nothing) and how many items N it wants. Recommend sets
// Items: the top N non-excluded items by descending score, fewer when
// the catalog minus exclusions is smaller.
type Query struct {
	U     la.Vector
	Excl  []int32
	N     int
	Items []Item

	top   topN
	cur   int     // cursor into Excl: entries before it are below the current panel
	bound float64 // M of U (package comment)
}

// Recommend ranks every item of c for each query in one streaming pass:
// the catalog is walked once in panels; each panel goes through the two
// passes of the package comment for every user of the batch — float32
// scores from la.BlockDot32, then la.Dot and the user's top-N behind its
// exclusion cursor for every item they cannot rule out, in ascending
// item order. No score outlives its panel, so the pass needs no
// catalog-sized buffer however many users share it, and allocates only
// the result lists.
//
// qs[b].Items is exactly TopNScoresExcluding over la.Dot(U, v.Row(j))
// for every j — same scores, same heap, same tie-breaking — whatever
// the batch around it: a single request is a batch of one, the top-N
// table precompute a batch of users.
func Recommend(c *Catalog, qs []Query) {
	v := c.v
	for b := range qs {
		q := &qs[b]
		if len(q.U) != v.Cols {
			panic("rank: Recommend dimension mismatch")
		}
		q.top.reset(min(q.N, v.Rows))
		q.cur = 0
		q.bound = scoreBound(q.U, c.vmax)
	}
	var t [scorePanel]float32
	for lo := 0; lo < v.Rows; lo += scorePanel {
		hi := min(lo+scorePanel, v.Rows)
		w := (hi - lo + la.Block32 - 1) &^ (la.Block32 - 1)
		blocks := c.blocks[lo*v.Cols : (lo+w)*v.Cols]
		for b := range qs {
			q := &qs[b]
			if q.top.n <= 0 {
				continue
			}
			theta := math.NaN() // rules nothing out
			if len(q.top.h) == q.top.n {
				theta = q.top.h[0].Score // the heap is full: only an item above its root enters
			}
			keep := la.BlockDot32(blocks, q.U, t[:w], q.bound, theta) & (1<<(hi-lo) - 1)
			for ; keep != 0; keep &= keep - 1 {
				j := lo + bits.TrailingZeros64(keep)
				if !excluded(q.Excl, &q.cur, j) {
					q.top.offer(j, la.Dot(q.U, v.Row(j)))
				}
			}
		}
	}
	for b := range qs {
		qs[b].Items = qs[b].top.take()
	}
}
