package sparse

import (
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

// mmap.go is the reader of the .bcsr format — the only one. Mapped opens
// a file over one of three byte sources (a read-only mapping on unix;
// pread elsewhere or when mmap refuses, chosen by build tag; an in-memory
// image such as RowImage's) and exposes per-panel views without
// decoding the whole matrix. The header, shard table and shard framing are
// validated eagerly against the file's real size — a truncated file fails
// at open, not mid-query, and no declared length is allocated on trust —
// while each shard's CRC and structural invariants are verified lazily,
// once, on first touch. A distributed rank can therefore open a 100-shard
// file and pay only for the shards covering its own row range, co-located
// processes mapping the same file share page cache instead of each
// holding a private decoded copy, and Load's full decode (Matrix) is the
// same code touching every shard.

// mapSource is random access to the bytes of an open .bcsr file — how
// they are obtained is decided behind it and nowhere else. Memory-backed
// implementations (mmap, in-memory images) hand out zero-copy
// windows; file-backed ones fall back to ReadAt.
type mapSource interface {
	io.ReaderAt
	// View returns a zero-copy window [off, off+n) when the source is
	// memory-backed; ok=false means the caller must ReadAt into its own
	// buffer.
	View(off, n int64) (b []byte, ok bool)
	Close() error
}

// bytesSource serves a .bcsr image held in memory.
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
	src mapSource
	lay *bcsrLayout

	pNNZ []int64 // per-shard entry count (from the shard headers)
	pOff []int64 // payload byte offset of shard s
	pCRC []uint64

	once    []sync.Once
	verr    []error
	payload [][]byte // verified payload bytes (zero-copy when mapped)

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
	return openBinaryFile(f)
}

// openBinaryFile is OpenBinary on a descriptor the caller already holds
// (Load has sniffed the format through it); f is the reader's to close.
func openBinaryFile(f *os.File) (*Mapped, error) {
	st, err := f.Stat()
	if err != nil {
		f.Close()
		return nil, err
	}
	src := openMapSource(f, st.Size())
	mp, err := newMapped(src, st.Size())
	if err != nil {
		src.Close()
		return nil, err
	}
	return mp, nil
}

// OpenBinaryBytes opens an in-memory .bcsr image (RowImage's, or bytes a
// test or fuzz target built) with the same validation as OpenBinary. The
// reader's zero-copy views alias data, which must not change afterwards.
func OpenBinaryBytes(data []byte) (*Mapped, error) {
	return newMapped(bytesSource{data: data}, int64(len(data)))
}

// newMapped validates the eager region of src, a .bcsr image of size
// bytes, and indexes the shards. After the header and table it follows
// the shard framing by offset, holding each shard's entry count to the
// header's total and its payload length to the bytes the file has left:
// truncation surfaces now, no payload byte is touched, and whatever
// Matrix and the accessors later allocate or index by fits the file.
func newMapped(src mapSource, size int64) (*Mapped, error) {
	lay, err := readBCSRLayout(io.NewSectionReader(src, 0, size), size)
	if err != nil {
		return nil, err
	}
	n := int(lay.shards)
	mp := &Mapped{
		src: src, lay: lay,
		pNNZ: make([]int64, n), pOff: make([]int64, n), pCRC: make([]uint64, n),
		once: make([]sync.Once, n), verr: make([]error, n), payload: make([][]byte, n),
	}
	off := lay.headerSize()
	var total uint64
	var hdr [16]byte // u64 nnz, u64 crc
	for s := range mp.pNNZ {
		if _, err := io.ReadFull(io.NewSectionReader(src, off, size-off), hdr[:]); err != nil {
			return nil, fmt.Errorf("sparse: reading bcsr shard %d header: %w", s, err)
		}
		off += 16
		snnz := binary.LittleEndian.Uint64(hdr[:])
		if snnz > lay.nnz-total {
			return nil, fmt.Errorf("sparse: bcsr shard %d claims %d entries, only %d remain of the %d declared", s, snnz, lay.nnz-total, lay.nnz)
		}
		_, _, want := panelSections(int(lay.hi[s]-lay.lo[s]), int64(snnz))
		if err := claimBytes(want, size-off); err != nil {
			return nil, shardReadError(s, err)
		}
		mp.pNNZ[s], mp.pOff[s], mp.pCRC[s] = int64(snnz), off, binary.LittleEndian.Uint64(hdr[8:])
		off += want
		total += snnz
	}
	if total != lay.nnz {
		return nil, fmt.Errorf("sparse: bcsr header promised %d entries, shards hold %d", lay.nnz, total)
	}
	return mp, nil
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

// touch returns shard s's verified payload bytes — CRC and payload
// rules, checked once on first access, so the row accessors can index
// the raw bytes and the decode path copy them without looking again.
// The returned slice is a zero-copy window into the mapping when the
// platform mmaps; the pread fallback caches the shard's bytes instead.
func (mp *Mapped) touch(s int) ([]byte, error) {
	mp.once[s].Do(func() {
		_, _, want := panelSections(int(mp.lay.hi[s]-mp.lay.lo[s]), mp.pNNZ[s])
		b, ok := mp.src.View(mp.pOff[s], want)
		if !ok {
			b = make([]byte, want)
			if _, err := mp.src.ReadAt(b, mp.pOff[s]); err != nil {
				mp.verr[s] = shardReadError(s, err)
				return
			}
		}
		if mp.verr[s] = mp.lay.verifyShard(s, b, mp.pNNZ[s], mp.pCRC[s]); mp.verr[s] != nil {
			return
		}
		mp.payload[s] = b
		mp.shardsTouched.Add(1)
		mp.bytesTouched.Add(want)
	})
	return mp.payload[s], mp.verr[s]
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
	lo, rows, snnz := int(mp.lay.lo[s]), int(mp.lay.hi[s]-mp.lay.lo[s]), mp.pNNZ[s]
	colOff, valOff, _ := panelSections(rows, snnz)
	base := len(a.Col)
	for r := 0; r <= rows; r++ {
		a.RowPtr[lo+r] = int64(base) + int64(binary.LittleEndian.Uint64(payload[r*8:]))
	}
	a.Col = append(a.Col, make([]int32, snnz)...)
	a.Val = append(a.Val, make([]float64, snnz)...)
	cols, vals := payload[colOff:valOff], payload[valOff:]
	for k := range a.Col[base:] {
		a.Col[base+k] = int32(binary.LittleEndian.Uint32(cols[k*4:]))
		a.Val[base+k] = math.Float64frombits(binary.LittleEndian.Uint64(vals[k*8:]))
	}
	return nil
}

// Matrix decodes every shard into a CSR — the full read behind Load.
// Col and Val are sized once from the header's entry count, which open
// proved equal to the shards' sum and to fit inside the file's bytes.
func (mp *Mapped) Matrix() (*CSR, error) {
	a := &CSR{
		M: int(mp.lay.m), N: int(mp.lay.n), RowPtr: make([]int64, mp.lay.m+1),
		Col: make([]int32, 0, mp.lay.nnz), Val: make([]float64, 0, mp.lay.nnz),
	}
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
	payload, err = mp.touch(s)
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
	colOff, _, _ := panelSections(int(mp.lay.hi[s]-mp.lay.lo[s]), mp.pNNZ[s])
	cols := payload[colOff:]
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
