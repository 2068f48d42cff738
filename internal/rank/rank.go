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
// streams the Catalog's int8 block copy of V through la.BlockDot8, at an
// eighth of the bytes per item of V itself (32 B at K = 32, so a
// 50 000-item catalog fits in L2), giving every item an exact integer sum
// D_j. The second computes the served score s_j = la.Dot(u, v_j) and
// offers it to the heap for every item the first pass does not skip.
//
// The quantities (every rounding half to even):
//
//   - the catalog, once: s = 2^e_s is the smallest power of two, at least
//     2⁻¹⁰²², with s ≥ max_jc |v_jc|/127; q_jc = round(v_jc/s), so
//     |q_jc| ≤ 127 and |v_jc − s·q_jc| ≤ s/2; Q = max_j Σ_c |q_jc|;
//   - the query, once per call: R = min(32767, ⌊(2³¹−1)/(127·K)⌋), from K
//     alone; s_u = 2^e_u is the smallest power of two, at least 2⁻¹⁰²²,
//     with s_u ≥ max_c |u_c|/R; p_c = round(u_c/s_u), so |p_c| ≤ R and
//     |u_c − s_u·p_c| ≤ s_u/2; P = Σ_c |p_c|;
//   - D_j = Σ_c p_c·q_jc, exact in int32: |D_j| ≤ R·127·K ≤ 2³¹−1. Every
//     body of the kernel and every GOARCH gives the same integers.
//
// The bound. Writing u·v_j − s_u·s·D_j = Σ_c (u_c − s_u·p_c)·v_jc +
// Σ_c s_u·p_c·(v_jc − s·q_jc), the first sum is at most (s_u/2)·‖v_j‖₁ ≤
// (s_u/2)·s·(Q + K/2) and the second at most s_u·P·s/2, so
//
//	|u·v_j − s_u·s·D_j| ≤ (s_u·s/4)·(2P + 2Q + K).
//
// la.Dot's own rounding adds less than s_u·s/4: it is at most about
// K·2⁻⁵³·Σ_c |u_c·v_jc| (Higham, Accuracy and Stability of Numerical
// Algorithms, §3.1), and Σ_c |u_c·v_jc| ≤ ‖u‖_∞·‖v_j‖₁ ≤ s_u·R·127·K·s <
// s_u·s·2³¹, so with K ≤ 2¹⁶ (every K a checkpoint holds) it is below
// s_u·s·2⁻⁶; while s_u·s ≥ 2⁻¹⁰²² the absolute error of products and
// sums in the subnormal range, at most 2⁻¹⁰⁷⁴ per step, is far smaller
// still, and while s_u·s ≤ 2⁹⁹⁰ no partial sum of la.Dot can overflow.
// With E = 2P + 2Q + K + 1 then |la.Dot(u, v_j) − s_u·s·D_j| <
// (s_u·s/4)·E.
//
// The rule. Let θ be the heap's weakest score. Item j is skipped iff the
// heap is full and 4·D_j + E < Z, Z = θ·4/(s_u·s) = θ·2^(2−e_u−e_s):
// then la.Dot(u, v_j) < s_u·s·D_j + (s_u·s/4)·E < θ, and the item could
// not have entered the heap, which keeps an item only if it strictly
// beats θ. Z is an exact power-of-two scaling of θ (math.Ldexp), and
// where it underflows the rounded value is still at most the exact one,
// so ⌈Z⌉ cannot rise. As 4·D_j + E is an integer, the rule is D_j ≤ T =
// ⌊(⌈Z⌉ − 1 − E)/4⌋, which la.BlockDot8 applies to a whole panel with T
// clamped into int32: a T above 2³¹−1 skips every exact sum, as the true
// one does, and a T below −2³¹ skips none, as no sum is that low.
//
// Every case outside the bound keeps every item: a heap that is not full
// (T = −2³¹), θ NaN or −Inf, a NaN or ±Inf in u, or s_u·s outside
// [2⁻¹⁰²², 2⁹⁹⁰]. A NaN or ±Inf anywhere in V builds no int8 copy, and
// every item is scored. T is computed when the heap first fills and again
// whenever its root has changed, at most once per panel of 64 items; it
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

// Bounds of e_u + e_s, the exponent of s_u·s, inside which the package
// comment's bound holds.
const (
	minScaleExp = -1022
	maxScaleExp = 990
)

// bound is one query's part of the skip rule.
type bound struct {
	shift int   // 2 − e_u − e_s: Z = θ·2^shift
	e     int64 // E = 2P + 2Q + K + 1
}

// bound quantises u into x (la.PackQuery16) and returns its part of the
// skip rule; on is false when the rule cannot be used and every item
// must be scored.
func (c *Catalog) bound(u la.Vector, x []int16) (b bound, on bool) {
	if c.blocks == nil {
		return bound{}, false
	}
	exp, p, ok := la.PackQuery16(u, x)
	exp += c.exp
	if !ok || exp < minScaleExp || exp > maxScaleExp {
		return bound{}, false
	}
	return bound{shift: 2 - exp, e: int64(2*p + 2*c.l1 + len(u) + 1)}, true
}

// threshold is T for the heap root theta: an item whose sum D is at most
// T is skipped. NaN and −Inf skip nothing, +Inf everything.
func (b bound) threshold(theta float64) int32 {
	z := math.Ceil(math.Ldexp(theta, b.shift))
	switch {
	case !(z > -0x1p40): // NaN too: far below any 4D + E
		return math.MinInt32
	case z > 0x1p40:
		return math.MaxInt32
	}
	return int32(min(max((int64(z)-1-b.e)>>2, math.MinInt32), math.MaxInt32))
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
