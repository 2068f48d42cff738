// Package sparse provides the sparse rating-matrix machinery BPMF runs on:
// a COO builder, compressed sparse row (CSR) storage, transposition
// (giving CSC access for the movie loop), row/column permutation for the
// communication-minimizing reordering of Section IV-B, degree statistics
// for the workload model, MatrixMarket I/O and train/test splitting.
package sparse

import (
	"encoding/binary"
	"fmt"
	"math"
	"sort"

	"repro/internal/sched"
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

// ToCSR converts the COO matrix to CSR, sorting columns within each row
// and summing duplicates.
func (c *COO) ToCSR() *CSR { return c.toCSR(nil) }

// toCSR is the one COO → CSR build. The entries are counted, prefix-summed
// and scattered into row segments in stream order (sequential: that order
// is what the duplicate sum is taken in); each segment is then sorted and
// its duplicates folded in place, and if any row shrank the survivors are
// packed. The two row loops run on pool when one is given — a row's
// result is a pure function of its own segment, so the pool changes the
// time and nothing else.
func (c *COO) toCSR(pool *sched.Pool) *CSR {
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
	forRange(pool, c.M, 256, func(lo, hi int) {
		for i := lo; i < hi; i++ {
			cols, vals := col[counts[i]:counts[i+1]], val[counts[i]:counts[i+1]]
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
	})
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
	forRange(pool, c.M, 256, func(lo, hi int) {
		for i := lo; i < hi; i++ {
			s, d, wd := counts[i], outPtr[i], width[i]
			copy(outCol[d:d+wd], col[s:s+wd])
			copy(outVal[d:d+wd], val[s:s+wd])
		}
	})
	return &CSR{M: c.M, N: c.N, RowPtr: outPtr, Col: outCol, Val: outVal}
}

// forRange runs body over [0, n): in grain-sized ranges on the pool when
// one is given, in a single inline call otherwise.
func forRange(pool *sched.Pool, n, grain int, body func(lo, hi int)) {
	if pool == nil {
		body(0, n)
		return
	}
	pool.ParallelFor(0, n, grain, func(_ *sched.Worker, lo, hi int) { body(lo, hi) })
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

// Transpose returns the CSR representation of aᵀ, i.e. CSC access to a.
// The BPMF movie loop iterates the transpose so that each movie's raters
// are contiguous. Column order within each transposed row is ascending,
// preserving the canonical accumulation order.
func (a *CSR) Transpose() *CSR {
	counts := make([]int64, a.N+1)
	for _, c := range a.Col {
		counts[c+1]++
	}
	for j := 0; j < a.N; j++ {
		counts[j+1] += counts[j]
	}
	col := make([]int32, a.NNZ())
	val := make([]float64, a.NNZ())
	next := make([]int64, a.N)
	copy(next, counts[:a.N])
	for i := 0; i < a.M; i++ {
		lo, hi := a.RowPtr[i], a.RowPtr[i+1]
		for p := lo; p < hi; p++ {
			j := a.Col[p]
			q := next[j]
			col[q] = int32(i)
			val[q] = a.Val[p]
			next[j] = q + 1
		}
	}
	// Rows of a are visited in ascending order, so each transposed row's
	// columns come out ascending already.
	return &CSR{M: a.N, N: a.M, RowPtr: counts, Col: col, Val: val}
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
