// Package rank is the ranking core shared by the public
// Recommend/EvaluateRanking API and the serving layer (internal/serve):
// scoring of user vectors against every item factor with the
// allocation-free la kernels, and top-N selection with training-set
// exclusion — fused into one streaming pass by Recommend.
//
// Recommend is the one ranking path both sides call, so the offline
// evaluator and the online server rank identically: same scores (bit for
// bit — every served score is la.Dot's), same heap tie-breaking, same
// exclusion semantics. TopNScoresExcluding over la.Dot scores is its
// reference.
//
// A ranking takes two passes over each panel of the catalog. The first
// streams the Catalog's float32 block copy of V through la.BlockDot32, at
// half the bytes per item of V itself, giving every item a float32 score
// t_j. The second computes the exact score s_j = la.Dot(u, v_j) and offers
// it to the heap for every item the first pass cannot rule out. Item j is
// ruled out only if the heap is full, t_j > −Inf and float64(t_j) + M < θ,
// where θ is the heap's weakest score and
//
//	M = (K+4)·2⁻²³·(‖u‖+1)·(max_j ‖v_j‖+1).
//
// That is exact. Rounding u and v_j to float32, each product and each of
// the K−1 sums rounds by at most ε = 2⁻²⁴ relative, so |t_j − u·v_j| is
// at most (K+2)ε·Σ|u_i v_ji| to first order (Higham, Accuracy and
// Stability of Numerical Algorithms, §3.1), and Σ|u_i v_ji| ≤ ‖u‖‖v_j‖;
// la.Dot's own float64 error is 2²⁹ times smaller. Values in float32's subnormal range
// add at most 2⁻¹⁵⁰ per rounding, which the "+1" terms cover. So
// |t_j − s_j| ≤ M/2 for K up to a few thousand and ≤ M for any K a
// checkpoint holds (K ≤ 2¹⁶, so Kε ≤ 2⁻⁸): a ruled-out item has
// s_j < θ − M/2 < θ, and could not have entered the heap, which keeps an
// item only if it strictly beats θ. M is computed in float64, whose
// rounding the factor two absorbs, and float64(t_j) + M < θ with θ a
// float64 implies the exact sum is below θ, as rounding is monotone. An
// overflow past float32 makes t_j ±Inf or NaN and a NaN or ±Inf in u or V
// makes M non-finite; then the test is false, or t_j = −Inf fails the
// guard, and the item gets its exact score. θ is read once per panel of
// 64 items, where la.BlockDot32 applies the test to the whole panel; it
// holds for the panel's later items too, because the root of a full heap
// never falls: an offer replaces it only with a higher score, and sifting
// that down brings up a child that was not below the old root. So the
// heap sees the same offers in the same order as a pass that scored
// every item exactly: the lists, their scores and the order of ties are
// the same bits.
package rank

import (
	"math"

	"repro/internal/la"
)

// Item is one ranked item: its index and predicted score.
type Item struct {
	Index int
	Score float64
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

// offer keeps item idx with score s if fewer than n are kept so far or s
// strictly beats the current weakest; n must be positive. The sifts stay
// out of line in keep, so offer inlines and a score that does not enter
// costs no call.
func (t *topN) offer(idx int, s float64) {
	if len(t.h) < t.n || s > t.h[0].Score {
		t.keep(Item{Index: idx, Score: s})
	}
}

// keep adds it to a heap that is not full, or puts it in place of the
// root of a full one.
func (t *topN) keep(it Item) {
	if len(t.h) < t.n {
		t.h = append(t.h, it)
		t.up(len(t.h) - 1)
		return
	}
	t.h[0] = it
	t.down(len(t.h))
}

// excluded reports whether idx is in the ascending exclusion list excl.
// *e is the caller's cursor into excl — every entry before it is below
// the indices still to come — advanced past the entries below idx, so
// the indices of one ranking must be asked in ascending order.
func excluded(excl []int32, e *int, idx int) bool {
	for *e < len(excl) && int(excl[*e]) < idx {
		*e++
	}
	return *e < len(excl) && int(excl[*e]) == idx
}

// scoreBound is M = (K+4)·2⁻²³·(‖u‖+1)·(vmax+1), vmax = max_j ‖v_j‖,
// in float64; NaN or +Inf when u or V holds a NaN or an infinity, or
// when the norms overflow.
func scoreBound(u la.Vector, vmax float64) float64 {
	return float64(len(u)+4) * 0x1p-23 * (math.Sqrt(la.Dot(u, u)) + 1) * (vmax + 1)
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
	if t.n <= 0 {
		return nil
	}
	e := 0
	for i, s := range scores {
		if !excluded(excl, &e, i) {
			t.offer(i, s)
		}
	}
	return t.take()
}
