package sparse

import (
	"fmt"
	"math"
	"math/bits"
	"slices"
	"sort"
)

// MergeLastWins overlays delta rating matrices onto a base matrix with
// last-write-wins semantics: where a (row, col) pair appears in several
// inputs, the value from the latest delta wins (deltas are ordered
// oldest to newest, and every delta beats the base). Rows present only
// in a delta — users first seen after the base was built — extend the
// result, so the merged matrix has max(base.M, deltas.M) rows. All
// inputs must agree on the column count: the item catalog is pinned by
// the model's item factors and cannot grow through deltas.
//
// The merge is one pass over the rows and costs time linear in the
// entries it touches, whatever the number of deltas: no delta's run is
// copied more than once. A row that at most one delta writes is that
// delta's row overlaid on the base row. A row several deltas write is
// resolved in a column-indexed table: the base row, then each delta's
// run oldest first, write their values into it (a later write
// overwrites) and set the column's bit, and the row is read back in
// column order by scanning the bit words it spans — or, where those words
// outnumber its entries (a wide catalogue), by sorting the deltas'
// distinct columns and overlaying that run on the base row. The result
// is freshly allocated (also for zero deltas); no input is mutated or
// aliased. A large merge on more than one core (twoRanges) cuts the rows
// into two ranges merged on two goroutines, each with its own tables; the
// rows, and so the result, are the same. Overlaying is associative, so
// merging deltas one cycle at a time yields the same matrix as merging
// them all at once — the property the continuous trainer's incremental
// path relies on.
func MergeLastWins(base *CSR, deltas ...*CSR) (*CSR, error) {
	if base == nil {
		return nil, fmt.Errorf("sparse: merge: nil base matrix")
	}
	m, nnz := base.M, base.NNZ()
	for i, d := range deltas {
		if d == nil {
			return nil, fmt.Errorf("sparse: merge: delta %d is nil", i)
		}
		if d.N != base.N {
			return nil, fmt.Errorf("sparse: merge: delta %d has %d columns, base has %d", i, d.N, base.N)
		}
		m, nnz = max(m, d.M), nnz+d.NNZ()
	}
	out := &CSR{M: m, N: base.N, RowPtr: make([]int64, m+1),
		Col: make([]int32, nnz), Val: make([]float64, nnz)}
	// The rows are cut into two ranges where half the input entries lie
	// below. The upper range writes from off, the input entries below its
	// first row (the lower range cannot write more), and one copy closes
	// the gap.
	split := twoRanges(nnz)
	before := func(i int) int { // the input entries in rows [0, i)
		e := base.RowPtr[min(i, base.M)]
		for _, d := range deltas {
			e += d.RowPtr[min(i, d.M)]
		}
		return int(e)
	}
	mid := m
	if split {
		mid = sort.Search(m, func(i int) bool { return before(i) >= nnz/2 })
	}
	off, wide := before(mid), min(base.N, nnz-base.NNZ())
	var lo, hi int
	inTwo(split, func() { lo = mergeRows(out, base, deltas, wide, 0, mid, 0) },
		func() { hi = mergeRows(out, base, deltas, wide, mid, m, off) })
	if gap := off - lo; gap > 0 {
		copy(out.Col[lo:], out.Col[off:hi])
		copy(out.Val[lo:], out.Val[off:hi])
		for i := mid + 1; i <= m; i++ {
			out.RowPtr[i] -= int64(gap)
		}
	}
	w := lo + hi - off
	out.Col, out.Val = out.Col[:w], out.Val[:w]
	return out, nil
}

// mergeRows merges rows [lo, hi) into out, writing from w on with a
// merger of its own, and returns the end of what it wrote.
func mergeRows(out, base *CSR, deltas []*CSR, wide, lo, hi, w int) int {
	mg := merger{n: base.N, wide: wide, deltas: deltas, runs: make([]run, 0, len(deltas))}
	for i := lo; i < hi; i++ {
		var bc []int32
		var bv []float64
		if i < base.M {
			bc, bv = base.Row(i)
		}
		w = mg.row(i, out.Col, out.Val, w, bc, bv)
		out.RowPtr[i+1] = int64(w)
	}
	return w
}

// merger holds MergeLastWins' per-row scratch. The column tables are
// allocated by the first row that several deltas write, the run buffers
// by the first that sorts; no row has more than wide = min(n, the
// deltas' entries) distinct delta columns.
type merger struct {
	n, wide int
	deltas  []*CSR
	runs    []run     // the current row's non-empty delta rows, oldest first
	val     []float64 // by column: the current row's last write
	bits    []uint64  // by column: set while the current row holds it
	cols    []int32   // the current row's distinct delta columns (the sorting path)
	outC    []int32   // the current row's resolved delta run (the sorting path)
	outV    []float64
}

type run struct {
	c []int32
	v []float64
}

// row writes row i of the merge of base row (ac, av) and the deltas into
// (oc, ov) from w on, and returns the new end.
func (mg *merger) row(i int, oc []int32, ov []float64, w int, ac []int32, av []float64) int {
	runs, r, lo, hi := mg.runs[:0], 0, int32(math.MaxInt32), int32(-1)
	for _, d := range mg.deltas {
		if i >= d.M {
			continue
		}
		if dc, dv := d.Row(i); len(dc) > 0 {
			runs, r = append(runs, run{dc, dv}), r+len(dc)
			lo, hi = min(lo, dc[0]), max(hi, dc[len(dc)-1])
		}
	}
	mg.runs = runs
	switch len(runs) {
	case 0:
		return overlayRow(oc, ov, w, ac, av, nil, nil)
	case 1:
		return overlayRow(oc, ov, w, ac, av, runs[0].c, runs[0].v)
	}
	if mg.val == nil {
		mg.val, mg.bits = make([]float64, mg.n), make([]uint64, (mg.n+63)/64)
	}
	if len(ac) > 0 {
		lo, hi = min(lo, ac[0]), max(hi, ac[len(ac)-1])
	}
	if int(hi>>6-lo>>6) < r+len(ac) {
		for k, c := range ac {
			mg.bits[c>>6] |= 1 << (c & 63)
			mg.val[c] = av[k]
		}
		for _, rn := range runs {
			for k, c := range rn.c {
				mg.bits[c>>6] |= 1 << (c & 63)
				mg.val[c] = rn.v[k]
			}
		}
		for wi := int(lo >> 6); wi <= int(hi>>6); wi++ {
			for word := mg.bits[wi]; word != 0; word &= word - 1 {
				c := int32(wi<<6 + bits.TrailingZeros64(word))
				oc[w], ov[w] = c, mg.val[c]
				w++
			}
			mg.bits[wi] = 0
		}
		return w
	}
	if mg.cols == nil {
		mg.cols, mg.outC, mg.outV = make([]int32, 0, mg.wide), make([]int32, 0, mg.wide), make([]float64, 0, mg.wide)
	}
	cols := mg.cols[:0]
	for _, rn := range runs {
		for k, c := range rn.c {
			if b := uint64(1) << (c & 63); mg.bits[c>>6]&b == 0 {
				mg.bits[c>>6] |= b
				cols = append(cols, c)
			}
			mg.val[c] = rn.v[k]
		}
	}
	slices.Sort(cols)
	dc, dv := mg.outC[:0], mg.outV[:0]
	for _, c := range cols {
		dc, dv = append(dc, c), append(dv, mg.val[c])
		mg.bits[c>>6] = 0
	}
	mg.cols, mg.outC, mg.outV = cols, dc, dv
	return overlayRow(oc, ov, w, ac, av, dc, dv)
}

// overlayRow writes the merge of a base row (ac, av) and a delta row (bc,
// bv), both with ascending, duplicate-free columns, into (oc, ov) from w
// on and returns the new end; where both hold a column the delta's value
// wins. The base's runs between delta columns move with copy.
func overlayRow(oc []int32, ov []float64, w int, ac []int32, av []float64, bc []int32, bv []float64) int {
	p := 0
	for q, c := range bc {
		e := p
		for e < len(ac) && ac[e] < c {
			e++
		}
		copy(ov[w:], av[p:e])
		w += copy(oc[w:], ac[p:e])
		oc[w], ov[w] = c, bv[q]
		w++
		if p = e; e < len(ac) && ac[e] == c {
			p++
		}
	}
	copy(ov[w:], av[p:])
	return w + copy(oc[w:], ac[p:])
}
