package feed

import (
	"fmt"

	"repro/internal/sparse"
)

// Compact writes the log's pending records into a delta .bcsr shard at
// outPath through the sparse.Converter pipeline (count, spill per row
// panel, build each panel) with last-write-wins dedup: each panel's
// build scatters its spill into rows in log order and sorts each row by
// (column, position), so a pair rated twice in the log keeps the later
// rating, and the shard's canonical ascending-column panels mean a
// later sparse.MergeLastWins against the base matrix resolves re-rated
// base pairs the same way. The delta's row count is
// max(minRows, highest user + 1), so new users past the base matrix
// grow the result while a small delta still aligns with the base.
//
// Compact does not consume the log — call Truncate after the delta
// shard (and whatever depends on it) is safely durable. The log must
// have at least one record.
func (l *Log) Compact(outPath string, minRows, shardNNZ int) (sparse.ConvertStats, error) {
	if l.records == 0 {
		return sparse.ConvertStats{}, fmt.Errorf("feed: %s: nothing to compact", l.path)
	}
	if minRows < 1 {
		minRows = 1
	}
	rows := minRows
	if err := l.Scan(func(e sparse.Entry) error {
		if int(e.Row) >= rows {
			rows = int(e.Row) + 1
		}
		return nil
	}); err != nil {
		return sparse.ConvertStats{}, err
	}
	cv := sparse.Converter{ShardNNZ: shardNNZ, Dedup: sparse.DedupLast}
	return cv.ConvertEntries(rows, l.n, l.Scan, outPath)
}
