package la

import "fmt"

// GatherPanelRows is the row count of one gather panel: the panel-gathered
// kernels copy this many rating rows into contiguous scratch per pass.
// 64 rows x K=32 columns is 16 KiB — comfortably L1/L2-resident next to
// the K x K accumulator, yet large enough to amortize the gather sweep.
const GatherPanelRows = 64

// iotaCols is the identity index list the panel kernels feed the batched
// accumulators after a gather: panel row p holds the p-th gathered row.
var iotaCols = func() []int32 {
	ix := make([]int32, GatherPanelRows)
	for i := range ix {
		ix[i] = int32(i)
	}
	return ix
}()

// GatherRows copies src rows cols[0..len(cols)) into the leading rows of
// dst (dst row p = src row cols[p]). dst must have at least len(cols) rows
// and exactly src.Cols columns.
func GatherRows(src *Matrix, cols []int32, dst *Matrix) {
	if dst.Cols != src.Cols || dst.Rows < len(cols) {
		panic(fmt.Sprintf("la: GatherRows panel %dx%d cannot hold %d rows of width %d",
			dst.Rows, dst.Cols, len(cols), src.Cols))
	}
	k := src.Cols
	for p, c := range cols {
		copy(dst.Data[p*k:(p+1)*k], src.Data[int(c)*k:(int(c)+1)*k])
	}
}

// SyrkAxpyPanelLower computes exactly what SyrkAxpyBatchLower computes —
//
//	A += alpha * Σ_p x_p · x_pᵀ        (lower triangle)
//	y += Σ_p (alpha · vals[p]) · x_p
//
// with x_p = src[cols[p]] — but in panels: GatherPanelRows rating rows are
// first copied into the contiguous panel scratch, and the register-blocked
// accumulation then streams the panel instead of chasing row pointers
// into a large factor matrix. Within each panel the summation runs through
// SyrkAxpyBatchLower itself over ascending gathered positions, and panels
// are processed in ascending rating order, so the per-element summation
// order — and hence the result, bit for bit — is identical to the
// unpanelled kernel and to the naive per-rating loop.
//
// panel must have at least GatherPanelRows rows (or len(cols) rows if
// smaller) and src.Cols columns; its previous contents are irrelevant.
func SyrkAxpyPanelLower(alpha float64, src *Matrix, cols []int32, vals []float64, a *Matrix, y Vector, panel *Matrix) {
	if len(vals) != len(cols) {
		panic("la: SyrkAxpyPanelLower rhs dimension mismatch")
	}
	for p0 := 0; p0 < len(cols); p0 += GatherPanelRows {
		hi := p0 + GatherPanelRows
		if hi > len(cols) {
			hi = len(cols)
		}
		GatherRows(src, cols[p0:hi], panel)
		SyrkAxpyBatchLower(alpha, panel, iotaCols[:hi-p0], vals[p0:hi], a, y)
	}
}
