package rank

import (
	"math"
	"math/bits"

	"repro/internal/la"
)

// scorePanel is the item-panel height of every scoring pass, a multiple
// of la.Block8 and at most 64, the bits of la.BlockDot8's mask: the
// catalog is walked in contiguous panels of this many items. A ranking
// reads its heap's weakest score once per panel and la.BlockDot8 skips a
// whole panel's items in one call; ScoreBatchInto scores each panel against
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
// la.Dot scores are served, and its int8 copy in la.PackBlocks8's layout
// with the copy's scale s = 2^exp and Q = max_j Σ_c |q_jc|, through which
// Recommend's first pass skips items. It is immutable, safe for
// concurrent use, and keeps V without copying it, so V must not change
// after NewCatalog.
type Catalog struct {
	v      *la.Matrix
	blocks []int8 // nil if V holds a NaN or an infinity: every item is scored
	exp    int
	l1     int
}

// NewCatalog builds the int8 copy of v, v.Rows·2⌈v.Cols/2⌉ bytes.
func NewCatalog(v *la.Matrix) *Catalog {
	blocks, exp, l1 := la.PackBlocks8(v)
	return &Catalog{v: v, blocks: blocks, exp: exp, l1: l1}
}

// queryStack is the widest query Recommend quantises into an array on its
// stack; a wider one takes one more allocation.
const queryStack = 256

// Recommend ranks every item of c for the user with factor row u (len
// v.Cols), skipping the ascending list excl (the CSR row-view contract;
// nil excludes nothing), and returns the top n items by descending
// score, fewer when the catalog minus exclusions is smaller. The catalog
// is walked once in panels, each through the two passes of the package
// comment: exact integer sums from la.BlockDot8 against u quantised to
// int16, then la.Dot and the top-n heap behind the exclusion cursor for
// every item the panel's threshold does not skip, in ascending item
// order. No score outlives its panel, so the pass needs no catalog-sized
// buffer, and it allocates only the returned list (nothing when n <= 0).
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
	k2 := 2 * la.Pairs(v.Cols)
	var buf [queryStack]int16
	x := buf[:min(k2, queryStack)]
	if k2 > queryStack {
		x = make([]int16, k2)
	}
	b, on := c.bound(u, x)
	cur := 0 // cursor into excl: entries before it are below the current panel
	var t [scorePanel]int32
	thr, theta := int32(math.MinInt32), math.NaN()
	for lo := 0; lo < v.Rows; lo += scorePanel {
		hi := min(lo+scorePanel, v.Rows)
		keep := uint64(1)<<(hi-lo) - 1
		if on {
			if len(top.h) == top.n && top.h[0].Score != theta {
				theta = top.h[0].Score // the heap is full: only an item above its root enters
				thr = b.threshold(theta)
			}
			w := (hi - lo + la.Block8 - 1) &^ (la.Block8 - 1)
			keep &= la.BlockDot8(c.blocks[lo*len(x):(lo+w)*len(x)], x, t[:w], thr)
		}
		for ; keep != 0; keep &= keep - 1 {
			j := lo + bits.TrailingZeros64(keep)
			if !excluded(excl, &cur, j) {
				top.offer(j, la.Dot(u, v.Row(j)))
			}
		}
	}
	return top.take()
}
