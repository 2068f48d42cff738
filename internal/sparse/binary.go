package sparse

import (
	"bufio"
	"bytes"
	"encoding/binary"
	"fmt"
	"hash/crc32"
	"io"
	"math"
)

// binary.go defines the .bcsr on-disk format: the repo's first
// persistent binary interchange outside checkpoints. A matrix is stored
// as a little-endian header plus a sequence of row-panel shards, each
// carrying its own CRC32, so a reader can verify and decode shards
// independently and map them 1:1 onto sched.Pool workers (or dist
// ranks: the panels are exactly the contiguous row ranges the
// partitioner hands out).
//
// Layout (all integers little-endian):
//
//	magic   "BPMFBCSR1\n"                      10 bytes (version 1)
//	header  u64 M, u64 N, u64 NNZ, u64 shards
//	table   shards × (u64 rowLo, u64 rowHi)    contiguous panels covering [0, M)
//	shards  shards × shard, in table order
//
//	shard   u64 nnz, u64 crc32(payload), payload
//	payload (rows+1) × u64 rowPtr              panel-relative, rowPtr[rows] == nnz
//	        nnz × u32 col
//	        nnz × u64 float64-bits val
//
// Per-shard nnz lives with the shard (not the table) so a streaming
// writer never needs to seek; the header NNZ is the post-dedup total.
const bcsrMagic = "BPMFBCSR1\n"

// DefaultShardNNZ is the target number of entries per shard: big enough
// that CRC+decode dominates scheduling overhead, small enough that a
// pool has parallelism to steal (20 shards for the ml-20m nnz).
const DefaultShardNNZ = 1 << 20

// maxBCSRShards caps the declared shard count: legitimate files hold a
// couple of dozen panels (nnz / DefaultShardNNZ), so 16M is far past
// any real file while keeping a hostile header's table claim (and the
// 32-bit byte-offset arithmetic over it) comfortably bounded.
const maxBCSRShards = 1 << 24

// WriteBinary writes a in .bcsr format with DefaultShardNNZ-sized row
// panels. Every write is error-checked so a full disk surfaces here,
// not at load time.
func WriteBinary(w io.Writer, a *CSR) error {
	return WriteBinarySharded(w, a, DefaultShardNNZ)
}

// WriteBinarySharded writes a with row panels targeting shardNNZ
// entries each (a shard always holds at least one full row).
func WriteBinarySharded(w io.Writer, a *CSR, shardNNZ int) error {
	if shardNNZ < 1 {
		shardNNZ = DefaultShardNNZ
	}
	rowNNZ := make([]int64, a.M)
	for r := range rowNNZ {
		rowNNZ[r] = int64(a.RowNNZ(r))
	}
	lo, hi := panelBounds(rowNNZ, shardNNZ)
	_, err := writeShards(w, a.M, a.N, int64(a.NNZ()), lo, hi, func(s int) (*CSR, int, int, error) {
		return a, lo[s], hi[s], nil
	})
	return err
}

// bcsrNNZOffset is the file offset of the header's NNZ word, which a
// writer that learns the total only after its last shard (the
// Converter, whose panels deduplicate) patches in place.
const bcsrNNZOffset = int64(len(bcsrMagic)) + 16

// writeShards is the .bcsr writer: magic, header, shard table, then for
// each panel [lo[s], hi[s]) its entry count, CRC and payload. panel(s)
// supplies shard s as rows [rlo, rhi) of some CSR — the caller's matrix,
// or a panel it builds on demand. It returns the entries written.
func writeShards(w io.Writer, m, n int, nnz int64, lo, hi []int, panel func(s int) (p *CSR, rlo, rhi int, err error)) (int64, error) {
	bw := bufio.NewWriterSize(w, 1<<20)
	var err error
	writeU64 := func(v uint64) {
		if err == nil {
			err = binary.Write(bw, binary.LittleEndian, v)
		}
	}
	if _, werr := bw.WriteString(bcsrMagic); werr != nil {
		return 0, fmt.Errorf("sparse: writing bcsr magic: %w", werr)
	}
	writeU64(uint64(m))
	writeU64(uint64(n))
	writeU64(uint64(nnz))
	writeU64(uint64(len(lo)))
	for s := range lo {
		writeU64(uint64(lo[s]))
		writeU64(uint64(hi[s]))
	}
	if err != nil {
		return 0, fmt.Errorf("sparse: writing bcsr header: %w", err)
	}
	var total int64
	var payload []byte
	for s := range lo {
		p, rlo, rhi, perr := panel(s)
		if perr != nil {
			return 0, perr
		}
		snnz := p.RowPtr[rhi] - p.RowPtr[rlo]
		total += snnz
		payload = encodePanel(payload[:0], p, rlo, rhi)
		writeU64(uint64(snnz))
		writeU64(uint64(crc32.ChecksumIEEE(payload)))
		if err == nil {
			_, err = bw.Write(payload)
		}
		if err != nil {
			return 0, fmt.Errorf("sparse: writing bcsr shard %d: %w", s, err)
		}
	}
	if err := bw.Flush(); err != nil {
		return 0, fmt.Errorf("sparse: flushing bcsr: %w", err)
	}
	return total, nil
}

// encodePanel appends the payload bytes of rows [lo, hi) of a to dst.
func encodePanel(dst []byte, a *CSR, lo, hi int) []byte {
	base := a.RowPtr[lo]
	for r := lo; r <= hi; r++ {
		dst = binary.LittleEndian.AppendUint64(dst, uint64(a.RowPtr[r]-base))
	}
	for _, c := range a.Col[base:a.RowPtr[hi]] {
		dst = binary.LittleEndian.AppendUint32(dst, uint32(c))
	}
	for _, v := range a.Val[base:a.RowPtr[hi]] {
		dst = binary.LittleEndian.AppendUint64(dst, math.Float64bits(v))
	}
	return dst
}

// bcsrLayout is a .bcsr file's validated header and shard table: the
// dimensions plus the contiguous row panels covering [0, M). The format
// has one reader, Mapped (mmap.go), over three byte sources — a mapping,
// pread on the open file, an in-memory image; every entry point (Load's
// full decode, a rank's own panels, a row accessor) opens through
// newMapped and verifies a shard through verifyShard, so one corruption
// has one error text.
type bcsrLayout struct {
	m, n, nnz, shards uint64
	lo, hi            []uint64 // per-shard row panel bounds
}

// headerSize returns the byte length of the magic + header + shard
// table region preceding the first shard.
func (l *bcsrLayout) headerSize() int64 {
	return int64(len(bcsrMagic)) + 32 + int64(l.shards)*16
}

// hasBCSRMagic reports whether head starts with the .bcsr magic.
func hasBCSRMagic(head []byte) bool {
	return bytes.HasPrefix(head, []byte(bcsrMagic))
}

// readBCSRLayout reads and validates the magic, header and shard table
// from br, the front of a .bcsr file of size bytes. No header field is
// trusted for an allocation larger than the bytes actually present.
func readBCSRLayout(br io.Reader, size int64) (*bcsrLayout, error) {
	magic := make([]byte, len(bcsrMagic))
	if _, err := io.ReadFull(br, magic); err != nil {
		return nil, fmt.Errorf("sparse: reading bcsr magic: %w", err)
	}
	if !hasBCSRMagic(magic) {
		return nil, fmt.Errorf("sparse: not a bcsr file (magic %q)", magic)
	}
	var err error
	readU64 := func() uint64 {
		var v uint64
		if err == nil {
			err = binary.Read(br, binary.LittleEndian, &v)
		}
		return v
	}
	m := readU64()
	n := readU64()
	nnz := readU64()
	shards := readU64()
	if err != nil {
		return nil, fmt.Errorf("sparse: reading bcsr header: %w", err)
	}
	if m > maxMMDim || n > maxMMDim {
		return nil, fmt.Errorf("sparse: bcsr dimensions %dx%d out of range [0, %d]", m, n, int64(maxMMDim))
	}
	if shards > maxBCSRShards || (m > 0 && shards == 0) || (m == 0 && shards > 0) {
		return nil, fmt.Errorf("sparse: bcsr claims %d shards for %d rows", shards, m)
	}
	if nnz > math.MaxInt64/16 {
		return nil, fmt.Errorf("sparse: bcsr claims %d entries", nnz)
	}
	// The table is allocated only once the file is known to hold it.
	var table []byte
	if err = claimBytes(int64(shards)*16, size-(int64(len(bcsrMagic))+32)); err == nil {
		table = make([]byte, shards*16)
		_, err = io.ReadFull(br, table)
	}
	if err != nil {
		return nil, fmt.Errorf("sparse: reading bcsr shard table: %w", err)
	}
	lo := make([]uint64, shards)
	hi := make([]uint64, shards)
	prev := uint64(0)
	for s := range lo {
		lo[s] = binary.LittleEndian.Uint64(table[s*16:])
		hi[s] = binary.LittleEndian.Uint64(table[s*16+8:])
		if lo[s] != prev || hi[s] < lo[s] || hi[s] > m {
			return nil, fmt.Errorf("sparse: bcsr shard %d covers rows [%d, %d), want contiguous panels over [0, %d)", s, lo[s], hi[s], m)
		}
		prev = hi[s]
	}
	if prev != m {
		return nil, fmt.Errorf("sparse: bcsr shards cover rows [0, %d) of %d", prev, m)
	}
	return &bcsrLayout{m: m, n: n, nnz: nnz, shards: shards, lo: lo, hi: hi}, nil
}

// panelSections returns where a rows-row, snnz-entry payload keeps its
// column and value sections, and its total byte length.
func panelSections(rows int, snnz int64) (cols, vals, end int64) {
	cols = int64(rows+1) * 8
	vals = cols + snnz*4
	return cols, vals, vals + snnz*8
}

// shardReadError reports that shard s's payload bytes could not be read.
func shardReadError(s int, cause error) error {
	return fmt.Errorf("sparse: reading bcsr shard %d payload: %w", s, cause)
}

// verifyShard holds shard s's payload to its declared CRC32 and then to
// the payload rules (checkPanel). What passes can be indexed without
// further checks: DecodePanelInto copies it out, the row accessors read
// it in place.
func (l *bcsrLayout) verifyShard(s int, payload []byte, snnz int64, scrc uint64) error {
	if got := uint64(crc32.ChecksumIEEE(payload)); got != scrc {
		return fmt.Errorf("sparse: bcsr shard %d CRC mismatch (file %08x, computed %08x)", s, scrc, got)
	}
	if err := checkPanel(payload, int(l.hi[s]-l.lo[s]), snnz, int(l.n), int(l.lo[s])); err != nil {
		return fmt.Errorf("sparse: bcsr shard %d: %w", s, err)
	}
	return nil
}

// claimBytes holds a byte length the file declares — the shard table, a
// shard's payload — to the remain bytes the file has left there: a claim
// past the end is a byte-accurate truncation error (an unexpected EOF
// unless nothing at all is left), never an allocation.
func claimBytes(want, remain int64) error {
	if remain >= want {
		return nil
	}
	cause := io.EOF
	if remain > 0 {
		cause = io.ErrUnexpectedEOF
	}
	return fmt.Errorf("sparse: short read: want %d bytes, got %d: %w", want, remain, cause)
}

// checkPanel is the statement of a shard payload's structural rules,
// checked against the raw bytes: row pointers start at 0, are monotone
// and end at snnz; columns lie in [0, n) and ascend strictly within each
// row — the canonical accumulation order every engine's
// bit-reproducibility rests on; values are finite. rowBase globalizes
// the row index in messages; entries are numbered within the shard.
func checkPanel(payload []byte, rows int, snnz int64, n int, rowBase int) error {
	colOff, valOff, _ := panelSections(rows, snnz)
	ptr, cols, vals := payload[:colOff], payload[colOff:valOff], payload[valOff:]
	if first := int64(binary.LittleEndian.Uint64(ptr)); first != 0 {
		return fmt.Errorf("panel rowPtr starts at %d, want 0", first)
	}
	prev := int64(0)
	for r := 0; r <= rows; r++ {
		p := int64(binary.LittleEndian.Uint64(ptr[r*8:]))
		if p < prev || p > snnz {
			return fmt.Errorf("panel rowPtr not monotone in [0, %d]: row %d has %d after %d", snnz, r, p, prev)
		}
		prev = p
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
		s, e := int64(binary.LittleEndian.Uint64(ptr[r*8:])), int64(binary.LittleEndian.Uint64(ptr[(r+1)*8:]))
		for k := s + 1; k < e; k++ {
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
			return fmt.Errorf("entry %d has non-finite value %v", k, v)
		}
	}
	return nil
}
