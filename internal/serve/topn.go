package serve

import (
	"sync"

	"repro/internal/rank"
	"repro/internal/sched"
)

// Table is a precomputed per-user top-N index: the sharded batch-scoring
// pass every heavy-traffic deployment wants, so request-time Recommend
// is a slice copy instead of a catalog scan.
type Table struct {
	n     int
	lists [][]rank.Item
}

// tableGrain is the user-block size of the precompute: the shard the
// pool rebalances (large enough to amortize task overhead, small enough
// to even out skewed per-user exclusion costs) and the batch of one
// rank.Recommend pass, so V is streamed once per block, not per user.
const tableGrain = 64

// precomputeTopN builds the table by ranking every user, tableGrain
// users per fused pass, sharded over the pool's workers (nil pool =
// sequential). A pass is the live Recommend path over a larger batch —
// same kernel, same selection — so table and live answers agree
// exactly, and it allocates only the result lists and its queries. A
// lazily-decoded exclusion source (sparse.Mapped) can fail mid-sweep;
// the first error aborts the load rather than shipping a table with
// silently-missing exclusions.
func precomputeTopN(m *Model, pool *sched.Pool, n int) (*Table, error) {
	t := &Table{n: n, lists: make([][]rank.Item, m.u.Rows)}
	var errOnce sync.Once
	var firstErr error
	fill := func(_ *sched.Worker, lo, hi int) {
		buf := m.leaseExcl()
		defer m.exclBuf.Put(buf)
		qs := make([]rank.Query, hi-lo)
		for i := range qs {
			excl, err := m.excludeList(lo+i, buf)
			if err != nil {
				errOnce.Do(func() { firstErr = err })
				return
			}
			qs[i] = rank.Query{U: m.u.Row(lo + i), Excl: excl, N: n}
		}
		rank.Recommend(m.v, qs)
		for i := range qs {
			t.lists[lo+i] = qs[i].Items
		}
	}
	if pool != nil {
		pool.ParallelFor(0, m.u.Rows, tableGrain, fill)
	} else {
		for lo := 0; lo < m.u.Rows; lo += tableGrain {
			fill(nil, lo, min(lo+tableGrain, m.u.Rows))
		}
	}
	if firstErr != nil {
		return nil, firstErr
	}
	return t, nil
}

// get returns a copy of the first n entries of the user's list (the
// table is shared across requests and must stay immutable).
func (t *Table) get(user, n int) []rank.Item {
	l := t.lists[user]
	if n > len(l) {
		n = len(l)
	}
	if n == 0 {
		return nil
	}
	out := make([]rank.Item, n)
	copy(out, l[:n])
	return out
}
