package sparse

import (
	"fmt"
	"math"

	"repro/internal/rng"
)

// splitKey keys the train/test split's RNG stream. It is part of the
// on-disk-reproducibility contract: every consumer that must agree on
// a split (training runs, bpmf-serve's interval reconstruction, the
// shard-native distributed loader) derives it from (seed, splitKey).
const splitKey = 0x5eed511732

// SplitState is the sequential split's cursor between row panels: the
// RNG position (raw xoshiro state words, so resume is O(1) rather
// than a replay of every earlier draw) and which columns have already
// contributed a training entry. A distributed rank that owns rows
// [lo, hi) receives the state at row lo from the rank before it,
// splits its own panel with SplitRowsResume, and forwards the updated
// state — reproducing SplitTrainTest's global decisions bit-for-bit
// while only ever holding its own rows.
type SplitState struct {
	// Started reports whether any rows were split yet; false means RNG
	// is unset and the stream starts fresh from (seed, splitKey).
	Started bool
	RNG     [4]uint64
	ColSeen []bool
}

// NewSplitState returns the split cursor at row 0 of an M × n matrix.
func NewSplitState(n int) *SplitState {
	return &SplitState{ColSeen: make([]bool, n)}
}

// Clone deep-copies the state (the pipeline sends it over the wire).
func (st *SplitState) Clone() *SplitState {
	cp := *st
	cp.ColSeen = append([]bool(nil), st.ColSeen...)
	return &cp
}

// Encode serializes the state for the rank-to-rank pipeline.
func (st *SplitState) Encode() []byte {
	b := make([]byte, 1+32+len(st.ColSeen))
	if st.Started {
		b[0] = 1
	}
	for w, v := range st.RNG {
		for i := 0; i < 8; i++ {
			b[1+w*8+i] = byte(v >> (8 * i))
		}
	}
	for i, seen := range st.ColSeen {
		if seen {
			b[33+i] = 1
		}
	}
	return b
}

// DecodeSplitState is the inverse of Encode; n is the column count.
func DecodeSplitState(b []byte, n int) (*SplitState, error) {
	if len(b) != 33+n {
		return nil, fmt.Errorf("sparse: split state is %d bytes, want %d for %d columns", len(b), 33+n, n)
	}
	st := &SplitState{Started: b[0] != 0, ColSeen: make([]bool, n)}
	for w := range st.RNG {
		for i := 0; i < 8; i++ {
			st.RNG[w] |= uint64(b[1+w*8+i]) << (8 * i)
		}
	}
	for i := range st.ColSeen {
		st.ColSeen[i] = b[33+i] != 0
	}
	return st, nil
}

// SplitRowsResume applies the split rule to rows [lo, hi) of a,
// resuming from st (which must be the exact state after row lo-1) and
// advancing it in place. It returns the training entries as an a.M-row
// matrix whose rows outside [lo, hi) are empty, and the held-out entries
// in storage order.
//
// The rule is SplitTrainTest's (splitter.row is its one body): each entry
// goes to test independently with probability testFrac, except that the
// first stored rating of every row and of every column always stays in
// training, so no user or movie becomes completely unobserved. The
// stream's position is captured back into st, so a later resume continues
// exactly where this panel ended. (The split draws only Float64s, for
// which State/SetState round-trips are exact — see rng.Stream.State.)
func SplitRowsResume(a *CSR, lo, hi int, testFrac float64, seed uint64, st *SplitState) (*CSR, []Entry) {
	r := rng.NewKeyed(seed, splitKey)
	if st.Started {
		r.SetState(st.RNG)
	}
	nnz := int(a.RowPtr[hi] - a.RowPtr[lo])
	train := &CSR{M: a.M, N: a.N, RowPtr: make([]int64, a.M+1), Col: make([]int32, nnz), Val: make([]float64, nnz)}
	sp := newSplitter(train, testFrac, r, st.ColSeen)
	for i := lo; i < hi; i++ {
		cols, vals := a.Row(i)
		sp.row(i, cols, vals)
	}
	st.Started = true
	st.RNG = r.State()
	return sp.done(hi)
}

// splitter is the split rule's one body, shared by the in-memory split
// and LoadSplit's split in place. It takes rows in ascending order and
// writes each one's training entries at the end of train's Col/Val — a
// row may be read from the very window it is written to, since a write
// never passes the read — and appends its held-out entries to test,
// which is presized.
type splitter struct {
	r       *rng.Stream
	frac    float64
	colSeen []bool
	train   *CSR
	w       int // the training entries written so far
	test    []Entry
}

// newSplitter starts a split into train, an m x n matrix with its RowPtr
// allocated and room in Col and Val for every entry the rows bring,
// drawing from r, with colSeen marking the columns that already hold a
// training entry.
func newSplitter(train *CSR, frac float64, r *rng.Stream, colSeen []bool) *splitter {
	// The held-out count is at most Binomial(nnz, frac): reserve its mean
	// plus four standard deviations, so the slice rarely grows. A fraction
	// that is not above 0 (NaN too) holds nothing out.
	nnz, f := len(train.Col), 0.0
	if frac > 0 {
		f = min(frac, 1)
	}
	mean := float64(nnz) * f
	return &splitter{r: r, frac: frac, colSeen: colSeen, train: train,
		test: make([]Entry, 0, min(nnz, int(mean+4*math.Sqrt(mean*(1-f)))+16))}
}

// row splits row i, whose entries are (cols[k], vals[k]) in ascending
// column order, and closes its RowPtr.
func (sp *splitter) row(i int, cols []int32, vals []float64) {
	col, val, w, test := sp.train.Col, sp.train.Val, sp.w, sp.test
	rowSeen := false
	for k, c := range cols {
		if rowSeen && sp.colSeen[c] && sp.r.Float64() < sp.frac {
			test = append(test, Entry{Row: int32(i), Col: c, Val: vals[k]})
			continue
		}
		rowSeen = true
		sp.colSeen[c] = true
		col[w], val[w] = c, vals[k]
		w++
	}
	sp.w, sp.test = w, test
	sp.train.RowPtr[i+1] = int64(w)
}

// done closes the RowPtr of the rows from hi on (they hold no training
// entries) and returns the split.
func (sp *splitter) done(hi int) (*CSR, []Entry) {
	t := sp.train
	for i := hi; i < t.M; i++ {
		t.RowPtr[i+1] = int64(sp.w)
	}
	t.Col, t.Val = t.Col[:sp.w], t.Val[:sp.w]
	return t, sp.test
}

// SplitTrainTest partitions the entries of a into a training CSR and a
// held-out test set. Each entry lands in the test set independently with
// probability testFrac, except that the first stored rating of every row
// and of every column is always kept in training, so no user or movie
// becomes completely unobserved (cold items would make the Gibbs posterior
// revert to the prior and obscure RMSE comparisons).
//
// It is the evaluation split every command that trains on, warm-starts
// over or serves a rating matrix reproduces bit for bit from (matrix,
// fraction, seed); LoadSplit is the same split of a file. testFrac <= 0
// returns a itself as the training matrix (no pass over it, no copy) and
// a nil test set.
func SplitTrainTest(a *CSR, testFrac float64, seed uint64) (*CSR, []Entry) {
	if testFrac <= 0 {
		return a, nil
	}
	return SplitRowsResume(a, 0, a.M, testFrac, seed, NewSplitState(a.N))
}

// LoadSplit is SplitTrainTest(Load(path), testFrac, seed) — the same
// training matrix and test set bit for bit, and the same errors — but the
// split runs in place over the loaded matrix's own arrays: each row is
// split into the window it is read from (a write never passes the read),
// so no second matrix is built beside the first.
func LoadSplit(path string, testFrac float64, seed uint64) (*CSR, []Entry, error) {
	a, err := Load(path)
	if err != nil || testFrac <= 0 {
		return a, nil, err
	}
	sp := newSplitter(a, testFrac, rng.NewKeyed(seed, splitKey), make([]bool, a.N))
	start := a.RowPtr[0]
	for i := 0; i < a.M; i++ {
		end := a.RowPtr[i+1] // read before sp.row closes row i over it
		sp.row(i, a.Col[start:end], a.Val[start:end])
		start = end
	}
	train, test := sp.done(a.M)
	return train, test, nil
}
