package rank

import "repro/internal/la"

// scorePanel is the item-panel height of every scoring pass: V is
// walked once per batch in contiguous panels of this many rows, each
// scored against every user of the batch while it is cache resident
// (64 rows x K=32 columns is 16 KiB, L1/L2-resident next to the users'
// rows), so V is read from memory once per batch, not per request.
const scorePanel = 64

// ScoreBatchInto computes the multi-user score matrix out = U·Vᵀ
// (out.Row(b)[j] = users.Row(b) · v.Row(j)) with the panel walk and
// kernel of Recommend, for callers that want the scores themselves.
// users is the B x K batch of user factor rows; out must be B x v.Rows.
// Every score is la.Gemv's, so bit-identical to scoring that user alone
// — batching changes memory traffic, never results. It allocates nothing.
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

	top topN
	cur int // cursor into Excl: entries before it are below the current panel
}

// Recommend ranks every item of v for each query in one streaming pass:
// V is walked once in panels; each panel is scored against every user of
// the batch with la.Gemv, and its scores are offered straight into that
// user's top-N behind its exclusion cursor, in ascending item order. No
// score outlives its panel, so the pass needs no catalog-sized buffer
// however many users share it, and allocates only the result lists.
//
// qs[b].Items is exactly TopNScoresExcluding over la.Dot(U, v.Row(j))
// for every j — same scores, same heap, same tie-breaking — whatever
// the batch around it: a single request is a batch of one, the top-N
// table precompute a batch of users.
func Recommend(v *la.Matrix, qs []Query) {
	for b := range qs {
		q := &qs[b]
		if len(q.U) != v.Cols {
			panic("rank: Recommend dimension mismatch")
		}
		q.top.reset(min(q.N, v.Rows))
		q.cur = 0
	}
	var scores [scorePanel]float64
	panel := la.Matrix{Cols: v.Cols}
	for lo := 0; lo < v.Rows; lo += scorePanel {
		hi := min(lo+scorePanel, v.Rows)
		panel.Rows, panel.Data = hi-lo, v.Data[lo*v.Cols:hi*v.Cols]
		for b := range qs {
			q := &qs[b]
			la.Gemv(1, &panel, q.U, 0, scores[:hi-lo])
			q.cur = q.top.offerRun(lo, scores[:hi-lo], q.Excl, q.cur)
		}
	}
	for b := range qs {
		qs[b].Items = qs[b].top.take()
	}
}
