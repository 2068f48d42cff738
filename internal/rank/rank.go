// Package rank is the ranking core shared by the public
// Recommend/EvaluateRanking API and the serving layer (internal/serve):
// panel-blocked scoring of user vectors against every item factor with
// the allocation-free la kernels, and top-N selection with training-set
// exclusion — fused into one streaming pass by Recommend.
//
// Keeping one implementation here guarantees the offline evaluator and
// the online server rank identically: same scores (bit for bit — every
// kernel keeps each item's inner-product summation order equal to the
// per-item Dot loop it replaced), same heap tie-breaking, same
// exclusion semantics.
package rank

import "repro/internal/la"

// Item is one ranked item: its index and predicted score.
type Item struct {
	Index int
	Score float64
}

// ScoreInto writes u·vⱼ for every item row vⱼ of v into out (len must be
// v.Rows). It is the single-user case of ScoreBatchInto. Per item the
// summation order equals la.Dot(u, v.Row(j)), so scores are
// bit-identical to the naive per-item loop. It allocates nothing.
func ScoreInto(v *la.Matrix, u la.Vector, out []float64) {
	if len(u) != v.Cols || len(out) != v.Rows {
		panic("rank: ScoreInto dimension mismatch")
	}
	users := la.Matrix{Rows: 1, Cols: len(u), Data: u}
	scores := la.Matrix{Rows: 1, Cols: len(out), Data: out}
	ScoreBatchInto(v, &users, &scores)
}

// topN accumulates the n highest-scoring items offered to it in a
// min-heap of the current winners (the root is the weakest), sifted in
// container/heap's order. Offer order matters only for ties; a ranking
// offers items in ascending index order.
type topN struct {
	n int
	h []Item
}

// reset empties the accumulator and re-arms it for the n best items. n
// is request-controlled: the pre-allocation is capped and the heap grows
// on demand, so an absurd n costs nothing until items are actually
// offered. The heap's storage becomes the list take returns, so it is
// allocated fresh: that is the one allocation of a ranking.
func (t *topN) reset(n int) {
	t.n, t.h = n, nil
	if n > 0 {
		t.h = make([]Item, 0, min(n, 1024))
	}
}

// offerRun offers scores[i] as item base+i for every i, skipping the
// indices in the ascending exclusion list excl. An item is kept if fewer
// than n are kept so far or its score strictly beats the current
// weakest. e is the caller's cursor into excl — every entry before it is
// below base — and the advanced cursor is returned, so consecutive runs
// of one ranking resume where the last stopped.
func (t *topN) offerRun(base int, scores []float64, excl []int32, e int) int {
	for i, s := range scores {
		idx := base + i
		for e < len(excl) && int(excl[e]) < idx {
			e++
		}
		if e < len(excl) && int(excl[e]) == idx {
			continue
		}
		if len(t.h) < t.n {
			t.h = append(t.h, Item{Index: idx, Score: s})
			t.up(len(t.h) - 1)
		} else if t.n > 0 && s > t.h[0].Score {
			t.h[0] = Item{Index: idx, Score: s}
			t.down(len(t.h))
		}
	}
	return e
}

// take drains the accumulator, returning the kept items sorted by
// descending score: the heap sorted in place, popping the weakest to
// the shrinking tail.
func (t *topN) take() []Item {
	out := t.h
	for n := len(out) - 1; n > 0; n-- {
		out[0], out[n] = out[n], out[0]
		t.down(n)
	}
	t.h = nil
	if len(out) == 0 {
		return nil
	}
	return out
}

// up restores the heap after h[j] was appended.
func (t *topN) up(j int) {
	h := t.h
	for j > 0 {
		i := (j - 1) / 2
		if !(h[j].Score < h[i].Score) {
			break
		}
		h[i], h[j] = h[j], h[i]
		j = i
	}
}

// down restores the heap h[:n] after its root was replaced.
func (t *topN) down(n int) {
	h := t.h
	for i := 0; ; {
		j := 2*i + 1
		if j >= n {
			break
		}
		if j+1 < n && h[j+1].Score < h[j].Score {
			j++
		}
		if !(h[j].Score < h[i].Score) {
			break
		}
		h[i], h[j] = h[j], h[i]
		i = j
	}
}

// TopNScoresExcluding ranks scores[0..len) and returns the top n items,
// skipping the indices in excl (which must be sorted ascending — the CSR
// row-view contract; nil excludes nothing). Fewer than n items are
// returned when the catalog minus exclusions is smaller than n; any n,
// including math.MaxInt, is safe.
func TopNScoresExcluding(scores []float64, excl []int32, n int) []Item {
	var t topN
	t.reset(min(n, len(scores)))
	t.offerRun(0, scores, excl, 0)
	return t.take()
}
