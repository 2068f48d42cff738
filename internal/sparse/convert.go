package sparse

import (
	"bufio"
	"encoding/binary"
	"fmt"
	"io"
	"math"
	"os"
	"path/filepath"
	"sort"
)

// DedupPolicy selects what a Converter does with duplicate (row, col)
// entries in its input stream.
type DedupPolicy int

const (
	// DedupSum adds duplicate entries together — the MatrixMarket/COO
	// convention this converter has always applied (COO.ToCSR sums on
	// collision), appropriate when duplicates are partial observations
	// of one value.
	DedupSum DedupPolicy = iota
	// DedupLast keeps only the value that appeared last in stream
	// order — the compaction semantics of an append-only rating log,
	// where a re-rated (user, item) pair must supersede, not add to,
	// the earlier rating.
	DedupLast
)

// Converter turns an entry stream (a MatrixMarket text file via
// Convert, or any re-streamable source via ConvertEntries) into a
// .bcsr shard file in bounded memory, however large the input: a
// counting pass sizes the row panels, a bucketing pass spills entries
// to one temp file per shard, and a shard pass sorts each spill into
// its panel and writes it with its CRC. Peak memory is O(rows +
// largest shard), never O(total entries).
type Converter struct {
	// ShardNNZ is the target entries per shard (0 = DefaultShardNNZ).
	ShardNNZ int
	// TmpDir holds the spill files (empty = the output file's directory,
	// so spills land on the same filesystem as the result).
	TmpDir string
	// Dedup says what to do with duplicate (row, col) entries. The zero
	// value is DedupSum, the historical behavior.
	Dedup DedupPolicy
}

// EntryStream re-streams a sequence of entries through visit. A
// Converter calls it twice — a counting pass and a spill pass — and
// both calls must yield the same entries; the second pass's order
// relative to the first does not matter to DedupSum, but DedupLast
// resolves duplicates by the spill pass's stream order.
type EntryStream func(visit func(Entry) error) error

// ConvertStats reports what a conversion produced.
type ConvertStats struct {
	M, N   int
	NNZ    int64 // post-dedup entries written
	Shards int
}

// Convert streams the MatrixMarket file at mmPath into a .bcsr file at
// outPath (written via a temp file + rename, so a crash never leaves a
// half-written shard file behind).
func (cv Converter) Convert(mmPath, outPath string) (ConvertStats, error) {
	scan := func(header func(m, n, nnz int) error, visit func(Entry) error) error {
		f, err := os.Open(mmPath)
		if err != nil {
			return err
		}
		defer f.Close()
		return scanMM(f, parseEntryBytes, header, visit)
	}
	// Pass 1: count entries per row (and fully validate the stream).
	var m, n int
	var rowNNZ []int64
	err := scan(func(hm, hn, _ int) error {
		m, n, rowNNZ = hm, hn, make([]int64, hm)
		return nil
	}, func(e Entry) error {
		rowNNZ[e.Row]++
		return nil
	})
	if err != nil {
		return ConvertStats{}, err
	}
	// Pass 2 re-reads the file, so guard against it having been swapped
	// between passes (an upstream export job rewriting in place): a row
	// outside pass 1's panels must surface as an error, not an
	// out-of-range shard index.
	stream := func(visit func(Entry) error) error {
		return scan(func(m2, n2, _ int) error {
			if m2 != m || n2 != n {
				return fmt.Errorf("sparse: %s changed between conversion passes (%dx%d, was %dx%d)", mmPath, m2, n2, m, n)
			}
			return nil
		}, visit)
	}
	return cv.convertCounted(m, n, rowNNZ, stream, outPath)
}

// ConvertEntries runs the same bounded-memory panel/spill/sort pipeline
// over an arbitrary re-streamable entry source — e.g. a feed.Log being
// compacted into a delta shard. Entries must lie in [0, m) x [0, n)
// with finite values; violations are reported, never spilled.
func (cv Converter) ConvertEntries(m, n int, stream EntryStream, outPath string) (ConvertStats, error) {
	if m < 1 || n < 1 {
		return ConvertStats{}, fmt.Errorf("sparse: conversion needs positive dimensions, got %dx%d", m, n)
	}
	// Pass 1: validate and count entries per row.
	rowNNZ := make([]int64, m)
	err := stream(func(e Entry) error {
		if e.Row < 0 || int(e.Row) >= m || e.Col < 0 || int(e.Col) >= n {
			return fmt.Errorf("sparse: entry (%d, %d) outside %dx%d", e.Row, e.Col, m, n)
		}
		if math.IsNaN(e.Val) || math.IsInf(e.Val, 0) {
			return fmt.Errorf("sparse: entry (%d, %d) has non-finite value", e.Row, e.Col)
		}
		rowNNZ[e.Row]++
		return nil
	})
	if err != nil {
		return ConvertStats{}, err
	}
	return cv.convertCounted(m, n, rowNNZ, stream, outPath)
}

// convertCounted is the shared spill + sort + write tail behind Convert
// and ConvertEntries: pass 1 (counting) is done, rowNNZ sizes the
// panels, and stream replays the entries for the spill pass.
func (cv Converter) convertCounted(m, n int, rowNNZ []int64, stream EntryStream, outPath string) (ConvertStats, error) {
	target := cv.ShardNNZ
	if target < 1 {
		target = DefaultShardNNZ
	}
	lo, hi := panelBounds(rowNNZ, target)

	// Spill pass: bucket entries into per-shard spill files.
	tmpDir := cv.TmpDir
	if tmpDir == "" {
		tmpDir = filepath.Dir(outPath)
	}
	spills := make([]*os.File, len(lo))
	spillW := make([]*bufio.Writer, len(lo))
	defer func() {
		for _, f := range spills {
			if f != nil {
				f.Close()
				os.Remove(f.Name())
			}
		}
	}()
	for s := range lo {
		f, err := os.CreateTemp(tmpDir, "bcsr-spill-*")
		if err != nil {
			return ConvertStats{}, fmt.Errorf("sparse: creating spill file: %w", err)
		}
		spills[s] = f
		spillW[s] = bufio.NewWriterSize(f, 256<<10)
	}
	// A stream that yields a row pass 1 never counted (a swapped file, a
	// non-stable source) must surface as an error, not an out-of-range
	// shard index.
	var rec []byte
	err := stream(func(e Entry) error {
		if e.Row < 0 || int(e.Row) >= m {
			return fmt.Errorf("sparse: entry row %d appeared in the spill pass but not the counting pass", e.Row)
		}
		s := sort.Search(len(lo), func(s int) bool { return hi[s] > int(e.Row) })
		rec = AppendEntry(rec[:0], e)
		_, werr := spillW[s].Write(rec)
		return werr
	})
	if err != nil {
		return ConvertStats{}, err
	}
	for s := range spillW {
		if err := spillW[s].Flush(); err != nil {
			return ConvertStats{}, fmt.Errorf("sparse: flushing spill file: %w", err)
		}
	}

	// Pass 3: sort each spill into its row panel and write the output.
	out, err := os.CreateTemp(filepath.Dir(outPath), filepath.Base(outPath)+".tmp*")
	if err != nil {
		return ConvertStats{}, err
	}
	defer func() {
		if out != nil {
			out.Close()
			os.Remove(out.Name())
		}
	}()
	// NNZ is not known until every panel has deduplicated: the header
	// goes out with a zero there, patched once the shards are written.
	totalNNZ, err := writeShards(out, m, n, 0, lo, hi, func(s int) (*CSR, int, int, error) {
		panel, err := loadSpill(spills[s], lo[s], hi[s], n, cv.Dedup)
		if err != nil {
			return nil, 0, 0, fmt.Errorf("sparse: shard %d spill: %w", s, err)
		}
		spills[s].Close()
		os.Remove(spills[s].Name())
		spills[s] = nil
		return panel, 0, panel.M, nil
	})
	if err != nil {
		return ConvertStats{}, err
	}
	if _, err := out.WriteAt(binary.LittleEndian.AppendUint64(nil, uint64(totalNNZ)), bcsrNNZOffset); err != nil {
		return ConvertStats{}, fmt.Errorf("sparse: patching bcsr entry count: %w", err)
	}
	// Callers delete their source once this returns (the trainer
	// truncates the rating log), so the shard must be on disk, under its
	// name, first: fsync the bytes, rename, fsync the directory entry.
	if err := out.Sync(); err != nil {
		return ConvertStats{}, fmt.Errorf("sparse: syncing %s: %w", out.Name(), err)
	}
	if err := out.Close(); err != nil {
		return ConvertStats{}, err
	}
	if err := os.Rename(out.Name(), outPath); err != nil {
		return ConvertStats{}, err
	}
	out = nil
	if err := syncDir(filepath.Dir(outPath)); err != nil {
		return ConvertStats{}, err
	}
	return ConvertStats{M: m, N: n, NNZ: totalNNZ, Shards: len(lo)}, nil
}

// syncDir fsyncs a directory, making a rename inside it durable.
func syncDir(dir string) error {
	d, err := os.Open(dir)
	if err != nil {
		return err
	}
	defer d.Close()
	if err := d.Sync(); err != nil {
		return fmt.Errorf("sparse: syncing directory %s: %w", dir, err)
	}
	return nil
}

// loadSpill reads one shard's spilled entries (file order preserved)
// and builds its row panel with the canonical sort plus the requested
// duplicate resolution.
func loadSpill(f *os.File, lo, hi, n int, dedup DedupPolicy) (*CSR, error) {
	if _, err := f.Seek(0, io.SeekStart); err != nil {
		return nil, err
	}
	data, err := io.ReadAll(bufio.NewReaderSize(f, 1<<20))
	if err != nil {
		return nil, err
	}
	coo := NewCOO(hi-lo, n, len(data)/EntryRecordLen)
	for ; len(data) > 0; data = data[EntryRecordLen:] {
		e, err := DecodeEntry(data)
		if err != nil {
			return nil, err
		}
		e.Row -= int32(lo)
		coo.Entries = append(coo.Entries, e)
	}
	if dedup == DedupLast {
		dedupLastInPlace(coo)
	}
	return coo.ToCSR(), nil
}

// dedupLastInPlace resolves duplicate (row, col) pairs by keeping only
// the entry that appeared last in stream order, so the subsequent
// ToCSR (which would sum) sees each pair once. The sort is stable:
// equal keys keep their spill-file order, which is the stream order.
func dedupLastInPlace(coo *COO) {
	es := coo.Entries
	sort.SliceStable(es, func(i, j int) bool {
		if es[i].Row != es[j].Row {
			return es[i].Row < es[j].Row
		}
		return es[i].Col < es[j].Col
	})
	w := 0
	for k := range es {
		if w > 0 && es[w-1].Row == es[k].Row && es[w-1].Col == es[k].Col {
			es[w-1] = es[k]
			continue
		}
		es[w] = es[k]
		w++
	}
	coo.Entries = es[:w]
}

// panelBounds greedily packs rows into contiguous panels of about
// target entries each (always at least one row per panel).
func panelBounds(rowNNZ []int64, target int) (lo, hi []int) {
	for r := 0; r < len(rowNNZ); {
		end := r
		nnz := int64(0)
		for end < len(rowNNZ) && (end == r || nnz < int64(target)) {
			nnz += rowNNZ[end]
			end++
		}
		lo = append(lo, r)
		hi = append(hi, end)
		r = end
	}
	return lo, hi
}
