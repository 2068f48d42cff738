package sparse

import "fmt"

// MergeLastWins overlays delta rating matrices onto a base matrix with
// last-write-wins semantics: where a (row, col) pair appears in several
// inputs, the value from the latest delta wins (deltas are ordered
// oldest to newest, and every delta beats the base). Rows present only
// in a delta — users first seen after the base was built — extend the
// result, so the merged matrix has max(base.M, deltas.M) rows. All
// inputs must agree on the column count: the item catalog is pinned by
// the model's item factors and cannot grow through deltas.
//
// The merge is one pass over the rows, whatever the number of deltas:
// a row's delta entries fold newest-wins into a scratch run, and that
// run merges once with the base row, so the base is copied once. The
// result is freshly allocated (also for zero deltas); no input is
// mutated or aliased. Overlaying is associative, so merging deltas one
// cycle at a time yields the same matrix as merging them all at once —
// the property the continuous trainer's incremental path relies on.
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
		Col: make([]int32, 0, nnz), Val: make([]float64, 0, nnz)}
	// Two scratch runs, sized by the sum of the deltas' widest rows so no
	// fold reallocates: a fold writes into the one the current run does
	// not occupy, and a run that is a single delta's row is that row
	// itself, read only. With one delta nothing folds.
	var foldC [2][]int32
	var foldV [2][]float64
	if len(deltas) > 1 {
		runCap := 0
		for _, d := range deltas {
			widest := 0
			for r := 0; r < d.M; r++ {
				widest = max(widest, d.RowNNZ(r))
			}
			runCap += widest
		}
		for w := range foldC {
			foldC[w], foldV[w] = make([]int32, 0, runCap), make([]float64, 0, runCap)
		}
	}
	for i := 0; i < m; i++ {
		var rc []int32
		var rv []float64
		w := 0
		for _, d := range deltas {
			if i >= d.M {
				continue
			}
			switch dc, dv := d.Row(i); {
			case len(dc) == 0:
			case len(rc) == 0:
				rc, rv = dc, dv
			default:
				foldC[w], foldV[w] = overlayRow(foldC[w][:0], foldV[w][:0], rc, rv, dc, dv)
				rc, rv, w = foldC[w], foldV[w], 1-w
			}
		}
		var bc []int32
		var bv []float64
		if i < base.M {
			bc, bv = base.Row(i)
		}
		out.Col, out.Val = overlayRow(out.Col, out.Val, bc, bv, rc, rv)
		out.RowPtr[i+1] = int64(len(out.Col))
	}
	return out, nil
}

// overlayRow appends the merge of two rows with ascending columns to
// (dc, dv); where both hold a column, b's (the newer) value wins.
func overlayRow(dc []int32, dv []float64, ac []int32, av []float64, bc []int32, bv []float64) ([]int32, []float64) {
	if len(bc) == 0 {
		return append(dc, ac...), append(dv, av...)
	}
	p, q := 0, 0
	for p < len(ac) || q < len(bc) {
		switch {
		case q == len(bc) || (p < len(ac) && ac[p] < bc[q]):
			dc, dv = append(dc, ac[p]), append(dv, av[p])
			p++
		case p == len(ac) || bc[q] < ac[p]:
			dc, dv = append(dc, bc[q]), append(dv, bv[q])
			q++
		default: // same column in both: the newer row wins
			dc, dv = append(dc, bc[q]), append(dv, bv[q])
			p++
			q++
		}
	}
	return dc, dv
}
