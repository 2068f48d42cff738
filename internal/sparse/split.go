package sparse

import (
	"fmt"

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
// advancing it in place. Entries are reported in storage order through
// the train/test callbacks.
//
// The rule matches SplitTrainTest exactly: each entry goes to test
// independently with probability testFrac, except that the first
// stored rating of every row and of every column always stays in
// training, so no user or movie becomes completely unobserved.
func SplitRowsResume(a *CSR, lo, hi int, testFrac float64, seed uint64, st *SplitState, train, test func(Entry)) {
	r := rng.NewKeyed(seed, splitKey)
	if st.Started {
		r.SetState(st.RNG)
	}
	splitRows(a, lo, hi, testFrac, r, st, train, test)
}

// splitRows is the shared body: the stream's position is captured back
// into st so a later resume continues exactly where this panel ended.
// (The split draws only Float64s, for which State/SetState round-trips
// are exact — see rng.Stream.State.)
func splitRows(a *CSR, lo, hi int, testFrac float64, r *rng.Stream, st *SplitState, train, test func(Entry)) {
	for i := lo; i < hi; i++ {
		cols, vals := a.Row(i)
		rowSeen := false
		for k, c := range cols {
			e := Entry{Row: int32(i), Col: c, Val: vals[k]}
			mustTrain := !rowSeen || !st.ColSeen[c]
			if !mustTrain && r.Float64() < testFrac {
				test(e)
				continue
			}
			rowSeen = true
			st.ColSeen[c] = true
			train(e)
		}
	}
	st.Started = true
	st.RNG = r.State()
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
// fraction, seed). testFrac <= 0 returns a itself as the training matrix
// (no pass over it, no copy) and a nil test set.
func SplitTrainTest(a *CSR, testFrac float64, seed uint64) (*CSR, []Entry) {
	if testFrac <= 0 {
		return a, nil
	}
	st := NewSplitState(a.N)
	// splitRows reports training entries row by row in a's column order,
	// which is CSR order already: append them in place.
	train := &CSR{M: a.M, N: a.N, RowPtr: make([]int64, a.M+1),
		Col: make([]int32, 0, a.NNZ()), Val: make([]float64, 0, a.NNZ())}
	var test []Entry
	splitRows(a, 0, a.M, testFrac, rng.NewKeyed(seed, splitKey), st,
		func(e Entry) {
			train.Col = append(train.Col, e.Col)
			train.Val = append(train.Val, e.Val)
			train.RowPtr[e.Row+1]++
		},
		func(e Entry) { test = append(test, e) })
	for i := 0; i < a.M; i++ {
		train.RowPtr[i+1] += train.RowPtr[i]
	}
	return train, test
}
