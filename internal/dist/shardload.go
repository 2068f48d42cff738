package dist

import (
	"fmt"
	"math"

	"repro/internal/comm"
	"repro/internal/partition"
	"repro/internal/sparse"
)

// shardload.go is the shard-native data plane of the distributed
// engine: each rank of cmd/bpmf-dist maps a .bcsr file and decodes
// only the shards covering its own row range, instead of every rank
// materializing the entire matrix. What a rank cannot read from its
// own shards it obtains over the fabric at startup, in four
// deterministic steps:
//
//  1. Shard-to-rank assignment. The row bounds come from the shard
//     table alone (partition.AssignPanels over the per-shard header
//     nnz), so every rank computes the identical panel-aligned bounds
//     before touching a payload byte.
//  2. Split pipeline. The train/test split is a sequential scan whose
//     state (raw RNG stream position + first-rating-per-column flags)
//     threads row panels in order, so rank r receives the split cursor
//     from rank r-1, splits its own rows bit-identically to a global
//     sparse.SplitTrainTest, and forwards the cursor — an O(1) resume,
//     not a replay of earlier draws.
//  3. Column bounds. Per-column training degrees are allreduced (the
//     counts are integers, so the rank-ordered float sum is exact) and
//     fed through the same workload model the full-data planner uses —
//     the resulting plan is equal to partition.BuildWithPanels on the
//     fully loaded matrix.
//  4. Column-ghost exchange. Each rank sends every owned training
//     entry whose column another rank owns to that rank; reassembled
//     in rank order the received entries form exactly the owned
//     columns of the global train transpose (ranks own ascending row
//     ranges, so rank-ordered concatenation preserves the ascending
//     rater order the kernels' accumulation contract requires).
//
// The resulting node state is indistinguishable from a full-load rank
// under the same plan, so the sampled chain is bit-identical — the
// differential test in shard_test.go pins that, along with the "only
// my shards" property via the mapped reader's touch counters.

// Startup exchange tags, kept far below the collective tag space and
// far above the per-iteration item tags.
const (
	splitStateTag = 1 << 28
	colGhostTag   = 1<<28 + 1
)

// ShardProblem is one rank's shard-native dataset: everything NewNode
// needs, plus the loader's touch counters for tests and logging.
type ShardProblem struct {
	// Plan carries the panel-aligned bounds and this rank's owned
	// training rows (full-size CSR, foreign rows empty).
	Plan *partition.Plan
	// RT holds the owned columns of the training transpose with their
	// complete rater lists (full-size, foreign columns empty).
	RT *sparse.CSR
	// Test is the global held-out set in split order.
	Test []sparse.Entry
	// Shards counts the shards this rank decoded, TotalShards the
	// file's shard count; Load reports the mapped reader's touch
	// counters (how much of the file this rank actually read).
	Shards, TotalShards int
	Load                sparse.MappedStats
}

// LoadShards loads rank c.Rank()'s slice of an open sharded .bcsr
// rating file, exchanging split state, column degrees, the test
// set and column ghosts with the other ranks. Every rank must call it
// with identical (file contents, testFrac, seed, opt); it is
// collective. The caller keeps ownership of mp (callers that opened
// the file to validate it before dialing pass the same mapping here
// instead of re-walking the shard table).
func LoadShards(c *comm.Comm, mp *sparse.Mapped, testFrac float64, seed uint64, opt Options) (*ShardProblem, error) {
	opt = opt.normalized()
	if c.Size() != opt.Ranks {
		return nil, fmt.Errorf("dist: communicator has %d ranks, options say %d", c.Size(), opt.Ranks)
	}
	if opt.Reorder {
		return nil, fmt.Errorf("dist: reordering needs the full matrix; load without -reorder or use the full-load path")
	}
	rank, ranks := c.Rank(), opt.Ranks
	m, n := mp.Dims()

	// (1) Shard-to-rank assignment from the shard table.
	panels := partition.PanelsOf(mp)
	rowBounds := partition.AssignPanels(panels, ranks, partition.CostModel{})
	rowLo, rowHi := rowBounds[rank], rowBounds[rank+1]

	// Decode the owned shards into a full-size pre-split CSR (foreign
	// rows stay empty; their row pointers are flattened below).
	pre := &sparse.CSR{M: m, N: n, RowPtr: make([]int64, m+1)}
	owned := 0
	for s := range panels.Lo {
		if panels.Lo[s] < rowLo || panels.Hi[s] > rowHi {
			continue
		}
		if err := mp.DecodePanelInto(pre, s); err != nil {
			return nil, err
		}
		owned++
	}
	total := int64(len(pre.Col))
	for r := rowHi; r <= m; r++ {
		pre.RowPtr[r] = total
	}

	// (2) Split pipeline: receive the cursor at our first row, split
	// our panel, forward the cursor.
	st := sparse.NewSplitState(n)
	if rank > 0 {
		msg, err := c.RecvE(rank-1, splitStateTag)
		if err != nil {
			return nil, fmt.Errorf("dist: rank %d awaiting split state: %w", rank, err)
		}
		if st, err = sparse.DecodeSplitState(msg.Data, n); err != nil {
			return nil, fmt.Errorf("dist: rank %d split state: %w", rank, err)
		}
	}
	trainPtr := make([]int64, m+1)
	var trainCol []int32
	var trainVal []float64
	var localTest []sparse.Entry
	sparse.SplitRowsResume(pre, rowLo, rowHi, testFrac, seed, st,
		func(e sparse.Entry) {
			trainPtr[e.Row+1]++
			trainCol = append(trainCol, e.Col)
			trainVal = append(trainVal, e.Val)
		},
		func(e sparse.Entry) { localTest = append(localTest, e) })
	if rank+1 < ranks {
		if err := c.SendE(rank+1, splitStateTag, st.Encode()); err != nil {
			return nil, fmt.Errorf("dist: rank %d forwarding split state: %w", rank, err)
		}
	}
	for i := 0; i < m; i++ {
		trainPtr[i+1] += trainPtr[i]
	}
	train := &sparse.CSR{M: m, N: n, RowPtr: trainPtr, Col: trainCol, Val: trainVal}

	// (3) Global test set and column bounds.
	blobs, err := c.AllgatherE(encodeEntries(localTest))
	if err != nil {
		return nil, fmt.Errorf("dist: gathering test set: %w", err)
	}
	var test []sparse.Entry
	for q := 0; q < ranks; q++ {
		es, err := decodeEntries(blobs[q], rowBounds[q], rowBounds[q+1], n)
		if err != nil {
			return nil, fmt.Errorf("dist: test set from rank %d: %w", q, err)
		}
		test = append(test, es...)
	}
	colDeg := make([]float64, n)
	for _, j := range trainCol {
		colDeg[j]++
	}
	colDegTot, err := c.AllreduceSumOrderedE(colDeg)
	if err != nil {
		return nil, fmt.Errorf("dist: reducing column degrees: %w", err)
	}
	deg := make([]int, n)
	for j, d := range colDegTot {
		deg[j] = int(d)
	}
	model := partition.DefaultCostModel()
	colBounds := partition.ChainsOnChains(model.Weights(deg), ranks)
	colOwner := ownersArray(colBounds, n)

	// (4) Column-ghost exchange: ship every owned training entry to its
	// column's owner; keep our own. Empty messages still flow so the
	// receive count is deterministic.
	bufs := make([][]byte, ranks)
	for i := rowLo; i < rowHi; i++ {
		cols, vals := train.Row(i)
		for k, j := range cols {
			if o := colOwner[j]; o != int32(rank) {
				bufs[o] = sparse.AppendEntry(bufs[o], sparse.Entry{Row: int32(i), Col: j, Val: vals[k]})
			}
		}
	}
	for dst := 0; dst < ranks; dst++ {
		if dst != rank {
			if err := c.SendE(dst, colGhostTag, bufs[dst]); err != nil {
				return nil, fmt.Errorf("dist: sending column ghosts: %w", err)
			}
		}
	}
	ghosts := make([][]sparse.Entry, ranks)
	for got := 0; got < ranks-1; got++ {
		msg, err := c.RecvE(comm.AnySource, colGhostTag)
		if err != nil {
			return nil, fmt.Errorf("dist: receiving column ghosts: %w", err)
		}
		q := msg.Src
		if ghosts[q], err = decodeEntries(msg.Data, rowBounds[q], rowBounds[q+1], n); err != nil {
			return nil, fmt.Errorf("dist: column ghosts from rank %d: %w", q, err)
		}
		for _, e := range ghosts[q] {
			if o := colOwner[e.Col]; o != int32(rank) {
				return nil, fmt.Errorf("dist: column ghosts from rank %d: entry (%d, %d) is in a column rank %d owns", q, e.Row, e.Col, o)
			}
		}
	}

	// Reassemble the owned columns of the train transpose. Sources are
	// walked in rank order — ascending row ranges — and each source's
	// entries arrive row-major, so every column's raters come out
	// ascending, matching sparse.CSR.Transpose's contract.
	rtPtr := make([]int64, n+1)
	visit := func(q int, f func(row, col int32, val float64)) {
		if q == rank {
			for i := rowLo; i < rowHi; i++ {
				cols, vals := train.Row(i)
				for k, j := range cols {
					if colOwner[j] == int32(rank) {
						f(int32(i), j, vals[k])
					}
				}
			}
			return
		}
		for _, e := range ghosts[q] {
			f(e.Row, e.Col, e.Val)
		}
	}
	for q := 0; q < ranks; q++ {
		visit(q, func(_, col int32, _ float64) { rtPtr[col+1]++ })
	}
	for j := 0; j < n; j++ {
		rtPtr[j+1] += rtPtr[j]
	}
	rtNNZ := rtPtr[n]
	rtCol := make([]int32, rtNNZ)
	rtVal := make([]float64, rtNNZ)
	next := make([]int64, n)
	copy(next, rtPtr[:n])
	for q := 0; q < ranks; q++ {
		visit(q, func(row, col int32, val float64) {
			p := next[col]
			rtCol[p] = row
			rtVal[p] = val
			next[col] = p + 1
		})
	}
	rt := &sparse.CSR{M: n, N: m, RowPtr: rtPtr, Col: rtCol, Val: rtVal}

	return &ShardProblem{
		Plan:        &partition.Plan{R: train, RowBounds: rowBounds, ColBounds: colBounds},
		RT:          rt,
		Test:        test,
		Shards:      owned,
		TotalShards: mp.Shards(),
		Load:        mp.Stats(),
	}, nil
}

// encodeEntries serializes entries as sparse.AppendEntry records.
func encodeEntries(es []sparse.Entry) []byte {
	b := make([]byte, 0, sparse.EntryRecordLen*len(es))
	for _, e := range es {
		b = sparse.AppendEntry(b, e)
	}
	return b
}

// decodeEntries decodes a blob of entry records a peer sent, holding it
// to what that peer can have: whole records, rows inside its own range
// [rowLo, rowHi), columns inside the matrix, finite values. The entries
// index this rank's arrays afterwards, so nothing else may pass.
func decodeEntries(b []byte, rowLo, rowHi, n int) ([]sparse.Entry, error) {
	es := make([]sparse.Entry, 0, len(b)/sparse.EntryRecordLen)
	for ; len(b) > 0; b = b[sparse.EntryRecordLen:] {
		e, err := sparse.DecodeEntry(b)
		if err != nil {
			return nil, fmt.Errorf("payload is not a whole number of records: %w", err)
		}
		if int(e.Row) < rowLo || int(e.Row) >= rowHi {
			return nil, fmt.Errorf("entry (%d, %d) outside the sender's rows [%d, %d)", e.Row, e.Col, rowLo, rowHi)
		}
		if e.Col < 0 || int(e.Col) >= n {
			return nil, fmt.Errorf("entry (%d, %d) outside the %d columns", e.Row, e.Col, n)
		}
		if math.IsNaN(e.Val) || math.IsInf(e.Val, 0) {
			return nil, fmt.Errorf("entry (%d, %d) has non-finite value %v", e.Row, e.Col, e.Val)
		}
		es = append(es, e)
	}
	return es, nil
}
