// Package sparse provides the sparse rating-matrix machinery BPMF runs on:
// a COO builder, compressed sparse row (CSR) storage, transposition
// (giving CSC access for the movie loop), row/column permutation (the
// Section IV-B reordering ablation), degree statistics for the workload
// model, MatrixMarket I/O and train/test splitting.
package sparse

import (
	"encoding/binary"
	"fmt"
	"math"
	"runtime"
	"slices"
	"sort"
)

// Entry is one observed rating: row (user), column (movie), value.
type Entry struct {
	Row, Col int32
	Val      float64
}

// EntryRecordLen is the size of an Entry's binary record: u32 row, u32
// col, u64 float64 bits of the value, little-endian. The converter's
// spill files, the rating log's frames (package feed) and the
// distributed loader's startup exchange (package dist) all carry
// entries in this form.
const EntryRecordLen = 16

// AppendEntry appends e's record to dst.
func AppendEntry(dst []byte, e Entry) []byte {
	dst = binary.LittleEndian.AppendUint32(dst, uint32(e.Row))
	dst = binary.LittleEndian.AppendUint32(dst, uint32(e.Col))
	return binary.LittleEndian.AppendUint64(dst, math.Float64bits(e.Val))
}

// DecodeEntry decodes the record at the front of b. It checks only that
// the record is whole; whether the indices and the value make sense is
// for the caller, who knows the matrix they belong to.
func DecodeEntry(b []byte) (Entry, error) {
	if len(b) < EntryRecordLen {
		return Entry{}, fmt.Errorf("sparse: entry record truncated: %d of %d bytes", len(b), EntryRecordLen)
	}
	return Entry{
		Row: int32(binary.LittleEndian.Uint32(b[0:])),
		Col: int32(binary.LittleEndian.Uint32(b[4:])),
		Val: math.Float64frombits(binary.LittleEndian.Uint64(b[8:])),
	}, nil
}

// COO is a coordinate-format sparse matrix under construction.
type COO struct {
	M, N    int // rows (users), cols (movies)
	Entries []Entry
}

// NewCOO creates an empty M x N COO matrix with capacity hint nnz.
func NewCOO(m, n, nnz int) *COO {
	return &COO{M: m, N: n, Entries: make([]Entry, 0, nnz)}
}

// Add appends an entry. Duplicate (row, col) pairs are kept; ToCSR sums
// them (standard COO semantics).
func (c *COO) Add(row, col int, val float64) {
	if row < 0 || row >= c.M || col < 0 || col >= c.N {
		panic(fmt.Sprintf("sparse: entry (%d,%d) out of bounds %dx%d", row, col, c.M, c.N))
	}
	c.Entries = append(c.Entries, Entry{Row: int32(row), Col: int32(col), Val: val})
}

// CSR is a compressed-sparse-row matrix. Column indices within each row
// are sorted ascending; this ordering is part of the package contract
// because the BPMF kernels accumulate per-item sums in storage order and
// cross-engine bit-reproducibility depends on a canonical order.
type CSR struct {
	M, N   int
	RowPtr []int64   // len M+1
	Col    []int32   // len nnz
	Val    []float64 // len nnz
}

// NNZ returns the number of stored entries.
func (a *CSR) NNZ() int { return len(a.Col) }

// RowNNZ returns the number of entries in row i.
func (a *CSR) RowNNZ(i int) int { return int(a.RowPtr[i+1] - a.RowPtr[i]) }

// Row returns the column indices and values of row i as views.
func (a *CSR) Row(i int) ([]int32, []float64) {
	lo, hi := a.RowPtr[i], a.RowPtr[i+1]
	return a.Col[lo:hi], a.Val[lo:hi]
}

// Dims returns the matrix dimensions (rows, cols).
func (a *CSR) Dims() (m, n int) { return a.M, a.N }

// AppendRowCols appends row i's column indices (ascending) to dst and
// returns the extended slice: Mapped.AppendRowCols for a matrix already
// in memory, so either one can serve exclusion lists. It never fails.
func (a *CSR) AppendRowCols(dst []int32, i int) ([]int32, error) {
	cols, _ := a.Row(i)
	return append(dst, cols...), nil
}

// ToCSR converts the COO matrix to CSR, sorting columns within each row
// and summing duplicates.
func (c *COO) ToCSR() *CSR { return c.toCSR(DedupSum) }

// toCSR is the one COO → CSR build. The entries are counted, prefix-summed
// and scattered into row segments in stream order (sequential: that order
// is what the duplicate sum is taken in, and what DedupLast keeps the last
// of); each segment is then sorted and its duplicates resolved in place by
// dedup, and if any row shrank the survivors are packed.
func (c *COO) toCSR(dedup DedupPolicy) *CSR {
	counts := make([]int64, c.M+1)
	for _, e := range c.Entries {
		counts[e.Row+1]++
	}
	for i := 0; i < c.M; i++ {
		counts[i+1] += counts[i]
	}
	nnz := len(c.Entries)
	col := make([]int32, nnz)
	val := make([]float64, nnz)
	next := make([]int64, c.M)
	copy(next, counts[:c.M])
	for _, e := range c.Entries {
		p := next[e.Row]
		col[p] = e.Col
		val[p] = e.Val
		next[e.Row] = p + 1
	}
	// Sort + dedup each row segment in place, recording surviving widths.
	width := next // the scatter cursors are spent; their array holds the widths
	var last lastWins
	for i := 0; i < c.M; i++ {
		cols, vals := col[counts[i]:counts[i+1]], val[counts[i]:counts[i+1]]
		if dedup == DedupLast {
			width[i] = last.row(cols, vals)
			continue
		}
		sort.Sort(&rowSorter{cols, vals})
		w := int64(0)
		for k := range cols {
			if k > 0 && cols[k] == cols[k-1] {
				vals[w-1] += vals[k]
				continue
			}
			cols[w] = cols[k]
			vals[w] = vals[k]
			w++
		}
		width[i] = w
	}
	outPtr := make([]int64, c.M+1)
	for i := 0; i < c.M; i++ {
		outPtr[i+1] = outPtr[i] + width[i]
	}
	w := outPtr[c.M]
	if w == int64(nnz) {
		// No duplicates anywhere: every segment is already dense and in
		// place, so outPtr == counts and the arrays are final.
		return &CSR{M: c.M, N: c.N, RowPtr: outPtr, Col: col, Val: val}
	}
	outCol := make([]int32, w)
	outVal := make([]float64, w)
	for i := 0; i < c.M; i++ {
		s, d, wd := counts[i], outPtr[i], width[i]
		copy(outCol[d:d+wd], col[s:s+wd])
		copy(outVal[d:d+wd], val[s:s+wd])
	}
	return &CSR{M: c.M, N: c.N, RowPtr: outPtr, Col: outCol, Val: outVal}
}

// lastWins resolves one row segment under DedupLast: columns ascending,
// and of a column written more than once only the value written last in
// the segment (stream order). The segment is sorted by the key (column,
// position), which is unique, so an unstable O(n log n) sort gives the
// stable order. Its scratch grows to the widest row it has seen.
type lastWins struct {
	keys []uint64
	vals []float64
}

// row resolves the segment in place and returns its surviving width.
func (l *lastWins) row(cols []int32, vals []float64) int64 {
	n := len(cols)
	sorted := true
	for k := 1; k < n && sorted; k++ {
		sorted = cols[k-1] < cols[k]
	}
	if sorted { // ascending and duplicate-free already: nothing moves
		return int64(n)
	}
	if uint64(n) > math.MaxUint32 {
		panic("sparse: a row segment of 2³² entries or more overflows the dedup key")
	}
	keys := slices.Grow(l.keys[:0], n)[:n]
	for k, c := range cols {
		keys[k] = uint64(uint32(c))<<32 | uint64(k)
	}
	slices.Sort(keys)
	l.keys, l.vals = keys, append(l.vals[:0], vals...)
	w := 0
	for t, key := range keys {
		if t+1 < n && keys[t+1]>>32 == key>>32 {
			continue // a later write of the same column follows
		}
		cols[w], vals[w] = int32(key>>32), l.vals[uint32(key)]
		w++
	}
	return int64(w)
}

type rowSorter struct {
	cols []int32
	vals []float64
}

func (s *rowSorter) Len() int           { return len(s.cols) }
func (s *rowSorter) Less(i, j int) bool { return s.cols[i] < s.cols[j] }
func (s *rowSorter) Swap(i, j int) {
	s.cols[i], s.cols[j] = s.cols[j], s.cols[i]
	s.vals[i], s.vals[j] = s.vals[j], s.vals[i]
}

// twoRangeMin is the input size, in entries, from which MergeLastWins and
// Transpose cut their rows into two ranges and run one on a goroutine of
// its own, where GOMAXPROCS allows. The crossover depends on the shape
// (PERF.md, "The two-range cutoff"): wide and ChEMBL-shaped inputs and
// many-delta merges win from about 2¹⁴, dense MovieLens-shaped transposes
// and one-delta merges only from 2¹⁸, and below 2¹³ every transpose loses.
// 2¹⁶ puts each trainer input of the benchmark on the side where its shape
// wins (the smallest, ChEMBL-shaped, holds ~8·10⁴ entries; the
// MovieLens-shaped ones 2.8·10⁵ or more) and keeps small inputs serial.
const twoRangeMin = 1 << 16

// twoRanges reports whether a job over nnz input entries runs as two row
// ranges.
func twoRanges(nnz int) bool { return nnz >= twoRangeMin && runtime.GOMAXPROCS(0) > 1 }

// Transpose returns the CSR representation of aᵀ, i.e. CSC access to a.
// The BPMF movie loop iterates the transpose so that each movie's raters
// are contiguous. Column order within each transposed row is ascending,
// preserving the canonical accumulation order. A large matrix on more
// than one core is transposed as two row ranges of a on two goroutines:
// each range counts its own columns, and inside each transposed row the
// lower range's entries come first, so the result is the same.
func (a *CSR) Transpose() *CSR {
	nnz := a.NNZ()
	split, mid := twoRanges(nnz), a.M
	// Each range's column counts, then its scatter cursors; a serial
	// transpose has only the lower range.
	lower, upper := make([]int64, a.N), []int64(nil)
	if split {
		mid, upper = sort.Search(a.M, func(i int) bool { return a.RowPtr[i] >= int64(nnz/2) }), make([]int64, a.N)
	}
	inTwo(split, func() { a.countCols(0, mid, lower) }, func() { a.countCols(mid, a.M, upper) })
	ptr := make([]int64, a.N+1)
	for j, c := range lower {
		lower[j], ptr[j+1] = ptr[j], ptr[j]+c
		if split {
			upper[j], ptr[j+1] = ptr[j+1], ptr[j+1]+upper[j]
		}
	}
	col := make([]int32, nnz)
	val := make([]float64, nnz)
	inTwo(split, func() { a.scatterT(0, mid, lower, col, val) }, func() { a.scatterT(mid, a.M, upper, col, val) })
	return &CSR{M: a.N, N: a.M, RowPtr: ptr, Col: col, Val: val}
}

// inTwo runs lower and upper, the two row ranges of one job: beside each
// other, upper on a goroutine of its own, when split; one after the other
// on the calling goroutine otherwise.
func inTwo(split bool, lower, upper func()) {
	if !split {
		lower()
		upper()
		return
	}
	done := make(chan struct{})
	go func() {
		defer close(done)
		upper()
	}()
	lower()
	<-done
}

// countCols adds the column counts of rows [lo, hi) of a to cnt.
func (a *CSR) countCols(lo, hi int, cnt []int64) {
	for _, c := range a.Col[a.RowPtr[lo]:a.RowPtr[hi]] {
		cnt[c]++
	}
}

// scatterT writes rows [lo, hi) of a into the transpose's arrays, column
// j's entries from next[j] on. Rows are visited in ascending order, so
// each transposed row's columns come out ascending.
func (a *CSR) scatterT(lo, hi int, next []int64, col []int32, val []float64) {
	for i := lo; i < hi; i++ {
		for p := a.RowPtr[i]; p < a.RowPtr[i+1]; p++ {
			j := a.Col[p]
			q := next[j]
			col[q] = int32(i)
			val[q] = a.Val[p]
			next[j] = q + 1
		}
	}
}

// Permute returns the matrix with rows and columns relabelled:
// new(i, j) = old(rowPerm[i], colPerm[j])... more precisely, entry
// (r, c, v) of a becomes (rowInv[r], colInv[c], v) where rowInv is the
// inverse of rowPerm. Pass nil to leave a dimension unpermuted.
// rowPerm[i] = "which old row sits at new position i".
func (a *CSR) Permute(rowPerm, colPerm []int32) *CSR {
	rowInv := invertPerm(rowPerm, a.M)
	colInv := invertPerm(colPerm, a.N)
	coo := NewCOO(a.M, a.N, a.NNZ())
	for i := 0; i < a.M; i++ {
		cols, vals := a.Row(i)
		ni := i
		if rowInv != nil {
			ni = int(rowInv[i])
		}
		for k, c := range cols {
			nc := int(c)
			if colInv != nil {
				nc = int(colInv[c])
			}
			coo.Add(ni, nc, vals[k])
		}
	}
	return coo.ToCSR()
}

func invertPerm(p []int32, n int) []int32 {
	if p == nil {
		return nil
	}
	if len(p) != n {
		panic("sparse: permutation length mismatch")
	}
	inv := make([]int32, n)
	seen := make([]bool, n)
	for i, v := range p {
		if v < 0 || int(v) >= n || seen[v] {
			panic("sparse: invalid permutation")
		}
		seen[v] = true
		inv[v] = int32(i)
	}
	return inv
}

// RowDegrees returns the number of stored entries per row.
func (a *CSR) RowDegrees() []int {
	d := make([]int, a.M)
	for i := range d {
		d[i] = a.RowNNZ(i)
	}
	return d
}

// DegreeStats summarizes a degree distribution.
type DegreeStats struct {
	Min, Max      int
	Mean          float64
	P50, P90, P99 int
}

// Stats computes summary statistics of a degree slice.
func Stats(deg []int) DegreeStats {
	if len(deg) == 0 {
		return DegreeStats{}
	}
	s := append([]int(nil), deg...)
	sort.Ints(s)
	var sum int64
	for _, d := range s {
		sum += int64(d)
	}
	pct := func(p float64) int { return s[int(p*float64(len(s)-1))] }
	return DegreeStats{
		Min: s[0], Max: s[len(s)-1],
		Mean: float64(sum) / float64(len(s)),
		P50:  pct(0.50), P90: pct(0.90), P99: pct(0.99),
	}
}

// Equal reports whether two CSR matrices have identical structure and
// values (exact float comparison). Intended for tests.
func Equal(a, b *CSR) bool {
	if a.M != b.M || a.N != b.N || a.NNZ() != b.NNZ() {
		return false
	}
	for i := range a.RowPtr {
		if a.RowPtr[i] != b.RowPtr[i] {
			return false
		}
	}
	for i := range a.Col {
		if a.Col[i] != b.Col[i] || a.Val[i] != b.Val[i] {
			return false
		}
	}
	return true
}
