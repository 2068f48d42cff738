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

// bcsrLayout is a .bcsr stream's validated header and shard table: the
// dimensions plus the contiguous row panels covering [0, M). Both
// readers — ReadBinary's stream and the Mapped reader's random access —
// parse it through readBCSRLayout and then follow the shard framing
// through walkShards, so they report byte-identical errors for the same
// corruption.
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
// from the front of a .bcsr stream. No header field is trusted for an
// allocation larger than the bytes actually present.
func readBCSRLayout(br io.Reader) (*bcsrLayout, error) {
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
	// The table is read through the chunked reader so a hostile shard
	// count allocates in proportion to the bytes actually present, not
	// to the claim.
	table, err := readChunked(br, nil, int64(shards)*16)
	if err != nil {
		return nil, fmt.Errorf("sparse: reading bcsr shard table: %w", err)
	}
	lo := make([]uint64, shards)
	hi := make([]uint64, shards)
	for s := range lo {
		lo[s] = binary.LittleEndian.Uint64(table[s*16:])
		hi[s] = binary.LittleEndian.Uint64(table[s*16+8:])
	}
	for s := range lo {
		prev := uint64(0)
		if s > 0 {
			prev = hi[s-1]
		}
		if lo[s] != prev || hi[s] < lo[s] || hi[s] > m {
			return nil, fmt.Errorf("sparse: bcsr shard %d covers rows [%d, %d), want contiguous panels over [0, %d)", s, lo[s], hi[s], m)
		}
	}
	if shards > 0 && hi[shards-1] != m {
		return nil, fmt.Errorf("sparse: bcsr shards cover rows [0, %d) of %d", hi[shards-1], m)
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

// shardMeta validates one shard's declared entry count against the
// layout and running entry total, returning the panel's payload byte
// length.
func (l *bcsrLayout) shardMeta(s int, snnz uint64, total uint64) (payloadLen int64, err error) {
	if snnz > l.nnz-total {
		return 0, fmt.Errorf("sparse: bcsr shard %d claims %d entries, only %d remain of the %d declared", s, snnz, l.nnz-total, l.nnz)
	}
	_, _, payloadLen = panelSections(int(l.hi[s]-l.lo[s]), int64(snnz))
	return payloadLen, nil
}

// walkShards follows the shard framing after the table: per shard the
// 16-byte (nnz, crc) header read from r, the entry-count check, then
// shard, which must consume from r, or seek r past, the want payload
// bytes that follow; at the end the shards must hold exactly the
// entries the header promised.
func (l *bcsrLayout) walkShards(r io.Reader, shard func(s int, snnz, scrc uint64, want int64) error) error {
	var total uint64
	var hdr [16]byte
	for s := range l.lo {
		if _, err := io.ReadFull(r, hdr[:]); err != nil {
			return fmt.Errorf("sparse: reading bcsr shard %d header: %w", s, err)
		}
		snnz := binary.LittleEndian.Uint64(hdr[:])
		want, err := l.shardMeta(s, snnz, total)
		if err != nil {
			return err
		}
		if err := shard(s, snnz, binary.LittleEndian.Uint64(hdr[8:]), want); err != nil {
			return err
		}
		total += snnz
	}
	if total != l.nnz {
		return fmt.Errorf("sparse: bcsr header promised %d entries, shards hold %d", l.nnz, total)
	}
	return nil
}

// ReadBinary reads a .bcsr matrix. Corrupt input — truncated streams,
// shard CRC mismatches, implausible dimensions, non-monotonic row
// pointers, out-of-range columns, non-finite values — is reported as an
// error before it can poison a sampler; no input panics, and no header
// field is trusted for an allocation larger than the bytes actually
// present (reads grow in bounded chunks).
func ReadBinary(r io.Reader) (*CSR, error) {
	br := bufio.NewReaderSize(r, 1<<20)
	lay, err := readBCSRLayout(br)
	if err != nil {
		return nil, err
	}
	a := &CSR{M: int(lay.m), N: int(lay.n), RowPtr: make([]int64, lay.m+1)}
	var payload []byte
	err = lay.walkShards(br, func(s int, snnz, scrc uint64, want int64) error {
		var err error
		if payload, err = readChunked(br, payload[:0], want); err != nil {
			return shardReadError(s, err)
		}
		if err := lay.verifyShard(s, payload, int64(snnz), scrc); err != nil {
			return err
		}
		lay.copyPanel(a, s, payload, int64(snnz))
		return nil
	})
	if err != nil {
		return nil, err
	}
	return a, nil
}

// shardReadError reports that shard s's payload bytes could not be read.
func shardReadError(s int, cause error) error {
	return fmt.Errorf("sparse: reading bcsr shard %d payload: %w", s, cause)
}

// verifyShard holds shard s's payload to its declared CRC32 and then to
// the payload rules (checkPanel). What passes can be indexed without
// further checks: copyPanel copies it out, the mapped reader's row
// accessors read it in place.
func (l *bcsrLayout) verifyShard(s int, payload []byte, snnz int64, scrc uint64) error {
	if got := uint64(crc32.ChecksumIEEE(payload)); got != scrc {
		return fmt.Errorf("sparse: bcsr shard %d CRC mismatch (file %08x, computed %08x)", s, scrc, got)
	}
	if err := checkPanel(payload, int(l.hi[s]-l.lo[s]), snnz, int(l.n), int(l.lo[s])); err != nil {
		return fmt.Errorf("sparse: bcsr shard %d: %w", s, err)
	}
	return nil
}

// readChunked fills dst with want bytes from br, growing in bounded
// chunks so a shard header that promises more data than the stream
// holds over-allocates by at most one chunk before the read error. On a
// short read it returns dst truncated to the bytes actually received —
// callers keep their scratch allocation for retries — together with an
// error that wraps io.ErrUnexpectedEOF and states both byte counts.
func readChunked(br io.Reader, dst []byte, want int64) ([]byte, error) {
	const chunk = 1 << 20
	for int64(len(dst)) < want {
		c := want - int64(len(dst))
		if c > chunk {
			c = chunk
		}
		start := len(dst)
		dst = append(dst, make([]byte, c)...)
		n, err := io.ReadFull(br, dst[start:])
		if err != nil {
			dst = dst[:start+n]
			return dst, shortReadError(want, int64(len(dst)), err)
		}
	}
	return dst, nil
}

// shortReadError normalizes a truncated read into a byte-accurate
// io.ErrUnexpectedEOF wrap: want bytes were promised, got arrived. A
// clean io.EOF after partial progress is still an unexpected EOF for
// the structure being decoded.
func shortReadError(want, got int64, cause error) error {
	if cause == io.EOF && got > 0 {
		cause = io.ErrUnexpectedEOF
	}
	return fmt.Errorf("sparse: short read: want %d bytes, got %d: %w", want, got, cause)
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

// copyPanel appends shard s's verified payload to the CSR under
// construction; the entries before it are those already in a.
func (l *bcsrLayout) copyPanel(a *CSR, s int, payload []byte, snnz int64) {
	lo, rows := int(l.lo[s]), int(l.hi[s]-l.lo[s])
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
}
