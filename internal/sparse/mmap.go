package sparse

import (
	"bufio"
	"bytes"
	"encoding/binary"
	"fmt"
	"io"
	"math"
	"os"
	"sort"
	"sync"
	"sync/atomic"
)

// mmap.go is the shard-native read path of the .bcsr format: OpenBinary
// maps a file (mmap on unix, an io.ReaderAt fallback elsewhere — same
// interface, chosen by build tag) and exposes per-panel views without
// decoding the whole matrix. The header and shard table are validated
// eagerly — including that every shard's payload actually fits inside
// the file, so a truncated map fails at open, not mid-query — while
// each shard's CRC and structural invariants are verified lazily on
// first touch. A distributed rank can therefore open a 100-shard file
// and pay only for the shards covering its own row range, and
// co-located processes mapping the same file share page cache instead
// of each holding a private decoded copy.

// mapSource is random access to the bytes of an open .bcsr file.
// Memory-backed implementations (mmap, in-memory test buffers) hand out
// zero-copy windows; file-backed ones fall back to ReadAt.
type mapSource interface {
	io.ReaderAt
	// View returns a zero-copy window [off, off+n) when the source is
	// memory-backed; ok=false means the caller must ReadAt into its own
	// buffer.
	View(off, n int64) (b []byte, ok bool)
	Close() error
}

// bytesSource serves a .bcsr image held in memory (tests, fuzzing).
type bytesSource struct{ data []byte }

func (s bytesSource) ReadAt(p []byte, off int64) (int, error) {
	return bytes.NewReader(s.data).ReadAt(p, off)
}
func (s bytesSource) View(off, n int64) ([]byte, bool) { return s.data[off : off+n], true }
func (s bytesSource) Close() error                     { return nil }

// fileSource serves a .bcsr file through pread — the portable fallback
// when the platform (or a build tag) rules out mmap.
type fileSource struct{ f *os.File }

func (s fileSource) ReadAt(p []byte, off int64) (int, error) { return s.f.ReadAt(p, off) }
func (s fileSource) View(int64, int64) ([]byte, bool)        { return nil, false }
func (s fileSource) Close() error                            { return s.f.Close() }

// MappedStats counts how much of a mapped file has actually been
// touched — the per-rank "bytes read" evidence the shard-to-rank
// assignment tests assert on.
type MappedStats struct {
	// HeaderBytes is the eagerly-validated region: magic, header,
	// shard table and the 16-byte per-shard headers.
	HeaderBytes int64
	// ShardsTouched counts shards whose payload was verified (CRC +
	// structure) because something read from them.
	ShardsTouched int64
	// PayloadBytesTouched sums the payload lengths of touched shards.
	PayloadBytesTouched int64
}

// Mapped is an open .bcsr file accessed in place. All methods are safe
// for concurrent use; shard verification runs exactly once per shard.
type Mapped struct {
	src  mapSource
	size int64
	lay  *bcsrLayout

	pNNZ  []int64 // per-shard entry count (from the shard headers)
	pBase []int64 // entries preceding shard s (prefix sum of pNNZ)
	pOff  []int64 // payload byte offset of shard s
	pCRC  []uint64

	once    []sync.Once
	verr    []error
	payload [][]byte // CRC-verified payload bytes (zero-copy when mapped)
	chkOnce []sync.Once
	chkErr  []error

	shardsTouched atomic.Int64
	bytesTouched  atomic.Int64

	closeOnce sync.Once
	closeErr  error
}

// OpenBinary opens a .bcsr file for shard-native access: mmap-backed
// where the platform supports it, pread-backed otherwise. The header,
// shard table and shard framing are validated before it returns; shard
// payloads are verified lazily on first touch.
func OpenBinary(path string) (*Mapped, error) {
	f, err := os.Open(path)
	if err != nil {
		return nil, err
	}
	st, err := f.Stat()
	if err != nil {
		f.Close()
		return nil, err
	}
	src, err := openMapSource(f, st.Size())
	if err != nil {
		f.Close()
		return nil, fmt.Errorf("sparse: mapping %s: %w", path, err)
	}
	mp, err := newMapped(src, st.Size())
	if err != nil {
		src.Close()
		return nil, err
	}
	return mp, nil
}

// openBinaryBytes opens an in-memory .bcsr image (tests and fuzzing
// exercise the mapped reader without a filesystem round trip).
func openBinaryBytes(data []byte) (*Mapped, error) {
	return newMapped(bytesSource{data: data}, int64(len(data)))
}

// newMapped validates the eager region of src and indexes the shards.
func newMapped(src mapSource, size int64) (*Mapped, error) {
	lay, err := readBCSRLayout(bufio.NewReaderSize(io.NewSectionReader(src, 0, size), 64<<10))
	if err != nil {
		return nil, err
	}
	n := int(lay.shards)
	mp := &Mapped{
		src: src, size: size, lay: lay,
		pNNZ: make([]int64, n), pBase: make([]int64, n), pOff: make([]int64, n), pCRC: make([]uint64, n),
		once: make([]sync.Once, n), verr: make([]error, n), payload: make([][]byte, n),
		chkOnce: make([]sync.Once, n), chkErr: make([]error, n),
	}
	// Walk the shard framing: 16 bytes of header per shard, payload
	// length derived from (rows, nnz). Every offset is checked against
	// the file size so truncation surfaces now with the same
	// byte-accurate error the streaming reader reports.
	off := lay.headerSize()
	var total uint64
	var hdr [16]byte
	for s := 0; s < n; s++ {
		if herr := readAtFull(src, hdr[:], off, size); herr != nil {
			return nil, fmt.Errorf("sparse: reading bcsr shard %d header: %w", s, herr)
		}
		snnz := binary.LittleEndian.Uint64(hdr[:])
		scrc := binary.LittleEndian.Uint64(hdr[8:])
		want, merr := lay.shardMeta(s, snnz, total)
		if merr != nil {
			return nil, merr
		}
		if remain := size - off - 16; remain < want {
			if remain < 0 {
				remain = 0
			}
			cause := io.ErrUnexpectedEOF
			if remain == 0 {
				cause = io.EOF
			}
			return nil, fmt.Errorf("sparse: reading bcsr shard %d payload: %w", s, shortReadError(want, remain, cause))
		}
		mp.pNNZ[s], mp.pBase[s], mp.pOff[s], mp.pCRC[s] = int64(snnz), int64(total), off+16, scrc
		off += 16 + want
		total += snnz
	}
	if total != lay.nnz {
		return nil, fmt.Errorf("sparse: bcsr header promised %d entries, shards hold %d", lay.nnz, total)
	}
	return mp, nil
}

// readAtFull reads len(p) bytes at off, mirroring the streaming
// reader's EOF classification when the file is too short.
func readAtFull(src io.ReaderAt, p []byte, off, size int64) error {
	if remain := size - off; remain < int64(len(p)) {
		if remain <= 0 {
			return io.EOF
		}
		return io.ErrUnexpectedEOF
	}
	_, err := src.ReadAt(p, off)
	return err
}

// Dims returns the matrix dimensions (rows, cols).
func (mp *Mapped) Dims() (m, n int) { return int(mp.lay.m), int(mp.lay.n) }

// NNZ returns the header-declared total entry count.
func (mp *Mapped) NNZ() int64 { return int64(mp.lay.nnz) }

// Shards returns the number of row-panel shards.
func (mp *Mapped) Shards() int { return int(mp.lay.shards) }

// Shard returns shard s's row panel and entry count — the shard table
// the distributed planner assigns to ranks, available without touching
// a single payload byte.
func (mp *Mapped) Shard(s int) (rowLo, rowHi int, nnz int64) {
	return int(mp.lay.lo[s]), int(mp.lay.hi[s]), mp.pNNZ[s]
}

// Stats snapshots how much of the file has been touched so far.
func (mp *Mapped) Stats() MappedStats {
	return MappedStats{
		HeaderBytes:         mp.lay.headerSize() + 16*int64(mp.lay.shards),
		ShardsTouched:       mp.shardsTouched.Load(),
		PayloadBytesTouched: mp.bytesTouched.Load(),
	}
}

// touch returns shard s's CRC-verified payload bytes, reading and
// checksumming it once on first access. The returned slice is a
// zero-copy window into the mapping when the platform mmaps; the
// pread fallback caches the shard's bytes instead. Structural
// validation is not included: the decode paths validate while decoding
// (decodePanel), and the lazy row accessors go through touchChecked.
func (mp *Mapped) touch(s int) ([]byte, error) {
	mp.once[s].Do(func() {
		want := mp.payloadLen(s)
		b, ok := mp.src.View(mp.pOff[s], want)
		if !ok {
			b = make([]byte, want)
			if _, err := mp.src.ReadAt(b, mp.pOff[s]); err != nil {
				mp.verr[s] = fmt.Errorf("sparse: reading bcsr shard %d payload: %w", s, err)
				return
			}
		}
		if err := verifyShardCRC(s, b, mp.pCRC[s]); err != nil {
			mp.verr[s] = err
			return
		}
		mp.payload[s] = b
		mp.shardsTouched.Add(1)
		mp.bytesTouched.Add(want)
	})
	if mp.verr[s] != nil {
		return nil, mp.verr[s]
	}
	return mp.payload[s], nil
}

// touchChecked is touch plus the one-time structural validation the
// lazy row accessors need: they index straight into the raw bytes, so
// a CRC-consistent but malformed shard must be rejected before any
// row pointer is trusted. Decode paths skip this — decodePanel
// enforces the same rules while materializing.
func (mp *Mapped) touchChecked(s int) ([]byte, error) {
	b, err := mp.touch(s)
	if err != nil {
		return nil, err
	}
	mp.chkOnce[s].Do(func() {
		rows := int(mp.lay.hi[s] - mp.lay.lo[s])
		if err := checkPanel(b, rows, mp.pNNZ[s], int(mp.lay.n), int(mp.lay.lo[s]), mp.pBase[s]); err != nil {
			mp.chkErr[s] = fmt.Errorf("sparse: bcsr shard %d: %w", s, err)
		}
	})
	if mp.chkErr[s] != nil {
		return nil, mp.chkErr[s]
	}
	return b, nil
}

func (mp *Mapped) payloadLen(s int) int64 {
	rows := int64(mp.lay.hi[s] - mp.lay.lo[s])
	return (rows+1)*8 + mp.pNNZ[s]*12
}

// DecodePanelInto appends shard s's rows to a CSR under assembly. a
// must have the mapped matrix's dimensions with RowPtr fully allocated
// (len M+1), and panels must be appended in ascending shard order; the
// entry base is taken from len(a.Col), so a shard-native rank starts
// from its first owned shard and leaves the other rows' RowPtr flat.
func (mp *Mapped) DecodePanelInto(a *CSR, s int) error {
	payload, err := mp.touch(s)
	if err != nil {
		return err
	}
	if derr := decodePanel(a, payload, int(mp.lay.lo[s]), int(mp.lay.hi[s]), int64(len(a.Col)), mp.pNNZ[s]); derr != nil {
		return fmt.Errorf("sparse: bcsr shard %d: %w", s, derr)
	}
	return nil
}

// Matrix decodes every shard into a CSR — the mapped reader's
// equivalent of ReadBinary, identical in both result and error for any
// input the two can both open.
func (mp *Mapped) Matrix() (*CSR, error) {
	a := &CSR{M: int(mp.lay.m), N: int(mp.lay.n), RowPtr: make([]int64, mp.lay.m+1)}
	for s := 0; s < mp.Shards(); s++ {
		if err := mp.DecodePanelInto(a, s); err != nil {
			return nil, err
		}
	}
	return a, nil
}

// shardOfRow returns the shard whose panel contains row i.
func (mp *Mapped) shardOfRow(i int) (int, error) {
	if i < 0 || uint64(i) >= mp.lay.m {
		return 0, fmt.Errorf("sparse: row %d out of range [0, %d)", i, mp.lay.m)
	}
	return sort.Search(mp.Shards(), func(s int) bool { return mp.lay.hi[s] > uint64(i) }), nil
}

// rowSpan locates row i's entry range inside its (verified) shard.
func (mp *Mapped) rowSpan(i int) (payload []byte, s int, lo, hi int64, err error) {
	s, err = mp.shardOfRow(i)
	if err != nil {
		return nil, 0, 0, 0, err
	}
	payload, err = mp.touchChecked(s)
	if err != nil {
		return nil, 0, 0, 0, err
	}
	r := i - int(mp.lay.lo[s])
	lo = int64(binary.LittleEndian.Uint64(payload[r*8:]))
	hi = int64(binary.LittleEndian.Uint64(payload[(r+1)*8:]))
	return payload, s, lo, hi, nil
}

// RowNNZ returns the number of stored entries in row i, verifying the
// row's shard on first touch.
func (mp *Mapped) RowNNZ(i int) (int, error) {
	_, _, lo, hi, err := mp.rowSpan(i)
	if err != nil {
		return 0, err
	}
	return int(hi - lo), nil
}

// AppendRowCols appends row i's column indices (ascending, as stored)
// to dst and returns the extended slice. Only row i's shard is
// touched, and nothing beyond the appended indices is copied out of
// the mapping — this is the exclusion path bpmf-serve uses to serve
// /recommend straight off a mapped training matrix.
func (mp *Mapped) AppendRowCols(dst []int32, i int) ([]int32, error) {
	payload, s, lo, hi, err := mp.rowSpan(i)
	if err != nil {
		return dst, err
	}
	rows := int64(mp.lay.hi[s] - mp.lay.lo[s])
	cols := payload[(rows+1)*8:]
	for k := lo; k < hi; k++ {
		dst = append(dst, int32(binary.LittleEndian.Uint32(cols[k*4:])))
	}
	return dst, nil
}

// Close releases the mapping or file handle. Zero-copy views obtained
// earlier must not be used after Close.
func (mp *Mapped) Close() error {
	mp.closeOnce.Do(func() { mp.closeErr = mp.src.Close() })
	return mp.closeErr
}

// checkPanel validates a shard payload's structural invariants — the
// same rules, in the same order, with the same messages as decodePanel
// — against the raw bytes, so lazy row accessors can trust a verified
// shard without materializing it. rowBase/entryBase globalize the row
// and entry indices in messages exactly as decodePanel's do.
func checkPanel(payload []byte, rows int, snnz int64, n int, rowBase int, entryBase int64) error {
	ptrEnd := int64(rows+1) * 8
	ptr := payload[:ptrEnd]
	cols := payload[ptrEnd : ptrEnd+snnz*4]
	vals := payload[ptrEnd+snnz*4:]
	if first := int64(binary.LittleEndian.Uint64(ptr)); first != 0 {
		return fmt.Errorf("panel rowPtr starts at %d, want 0", first)
	}
	prev := int64(0)
	rowPtr := make([]int64, rows+1)
	for r := 0; r <= rows; r++ {
		p := int64(binary.LittleEndian.Uint64(ptr[r*8:]))
		if p < prev || p > snnz {
			return fmt.Errorf("panel rowPtr not monotone in [0, %d]: row %d has %d after %d", snnz, r, p, prev)
		}
		prev = p
		rowPtr[r] = p
	}
	if prev != snnz {
		return fmt.Errorf("panel rowPtr ends at %d, want %d", prev, snnz)
	}
	for k := int64(0); k < snnz; k++ {
		c := binary.LittleEndian.Uint32(cols[k*4:])
		if uint64(c) >= uint64(n) {
			return fmt.Errorf("column %d out of range [0, %d)", c, n)
		}
	}
	for r := 0; r < rows; r++ {
		for k := rowPtr[r] + 1; k < rowPtr[r+1]; k++ {
			a := binary.LittleEndian.Uint32(cols[(k-1)*4:])
			b := binary.LittleEndian.Uint32(cols[k*4:])
			if b <= a {
				return fmt.Errorf("row %d columns not strictly ascending (%d after %d)", rowBase+r, b, a)
			}
		}
	}
	for k := int64(0); k < snnz; k++ {
		v := math.Float64frombits(binary.LittleEndian.Uint64(vals[k*8:]))
		if math.IsNaN(v) || math.IsInf(v, 0) {
			return fmt.Errorf("entry %d has non-finite value %v", entryBase+k, v)
		}
	}
	return nil
}
