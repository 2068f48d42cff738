package sparse

import (
	"bytes"
	"encoding/binary"
	"math/rand"
	"os"
	"path/filepath"
	"testing"
)

// mmap_test.go is the .bcsr reader's corpus: through every byte source
// (mapping, pread, in-memory image) it must decode what the writer wrote,
// report each corruption in its pinned words (eagerly for framing damage,
// lazily for payload damage), and touch only the shards actually read.

// multiShardBCSR renders a deterministic file with several shards (20
// rows x 10 entries each, 40 entries per shard => 5 shards).
func multiShardBCSR(t *testing.T) []byte {
	t.Helper()
	c := NewCOO(20, 30, 200)
	r := rand.New(rand.NewSource(97))
	for i := 0; i < 20; i++ {
		for k := 0; k < 10; k++ {
			c.Add(i, (i+3*k)%30, r.NormFloat64()*5)
		}
	}
	var buf bytes.Buffer
	if err := WriteBinarySharded(&buf, c.ToCSR(), 40); err != nil {
		t.Fatal(err)
	}
	return buf.Bytes()
}

func writeTempBCSR(t *testing.T, data []byte) string {
	t.Helper()
	path := filepath.Join(t.TempDir(), "m.bcsr")
	if err := os.WriteFile(path, data, 0o644); err != nil {
		t.Fatal(err)
	}
	return path
}

// readBCSR runs the reader to completion over an in-memory image: open
// (the eager framing checks), then the full decode Load performs, which
// verifies every shard.
func readBCSR(data []byte) (*CSR, error) {
	mp, err := openBinaryBytes(data)
	if err != nil {
		return nil, err
	}
	return mp.Matrix()
}

func TestMappedMatrixMatchesSource(t *testing.T) {
	r := rand.New(rand.NewSource(7))
	for trial := 0; trial < 10; trial++ {
		a := randomCSR(r, 50, 400)
		var buf bytes.Buffer
		if err := WriteBinarySharded(&buf, a, 40); err != nil {
			t.Fatal(err)
		}
		// Through a real file (the mmap path on unix)...
		mp, err := OpenBinary(writeTempBCSR(t, buf.Bytes()))
		if err != nil {
			t.Fatalf("trial %d: OpenBinary: %v", trial, err)
		}
		got, err := mp.Matrix()
		if err != nil {
			t.Fatalf("trial %d: Matrix: %v", trial, err)
		}
		if !Equal(a, got) {
			t.Fatalf("trial %d: mapped decode differs from source", trial)
		}
		st := mp.Stats()
		if st.ShardsTouched != int64(mp.Shards()) {
			t.Fatalf("full decode touched %d of %d shards", st.ShardsTouched, mp.Shards())
		}
		mp.Close()
		// ...and through the in-memory source (the portable fallback
		// interface fuzzing uses).
		mb, err := openBinaryBytes(buf.Bytes())
		if err != nil {
			t.Fatal(err)
		}
		got2, err := mb.Matrix()
		if err != nil || !Equal(a, got2) {
			t.Fatalf("trial %d: bytes-backed decode differs (err=%v)", trial, err)
		}
	}
}

func TestMappedReaderAtFallbackMatches(t *testing.T) {
	r := rand.New(rand.NewSource(13))
	a := randomCSR(r, 40, 300)
	var buf bytes.Buffer
	if err := WriteBinarySharded(&buf, a, 64); err != nil {
		t.Fatal(err)
	}
	path := writeTempBCSR(t, buf.Bytes())
	f, err := os.Open(path)
	if err != nil {
		t.Fatal(err)
	}
	defer f.Close()
	st, _ := f.Stat()
	mp, err := newMapped(fileSource{f: f}, st.Size())
	if err != nil {
		t.Fatal(err)
	}
	got, err := mp.Matrix()
	if err != nil || !Equal(a, got) {
		t.Fatalf("pread fallback decode differs (err=%v)", err)
	}
}

func TestMappedRowAccessors(t *testing.T) {
	r := rand.New(rand.NewSource(19))
	a := randomCSR(r, 60, 500)
	var buf bytes.Buffer
	if err := WriteBinarySharded(&buf, a, 50); err != nil {
		t.Fatal(err)
	}
	mp, err := openBinaryBytes(buf.Bytes())
	if err != nil {
		t.Fatal(err)
	}
	m, n := mp.Dims()
	if m != a.M || n != a.N {
		t.Fatalf("Dims = %dx%d, want %dx%d", m, n, a.M, a.N)
	}
	var cols []int32
	for i := 0; i < a.M; i++ {
		cols, err = mp.AppendRowCols(cols[:0], i)
		if err != nil {
			t.Fatalf("row %d cols: %v", i, err)
		}
		nnz, err := mp.RowNNZ(i)
		if err != nil || nnz != a.RowNNZ(i) {
			t.Fatalf("row %d nnz = %d (err=%v), want %d", i, nnz, err, a.RowNNZ(i))
		}
		wantC, _ := a.Row(i)
		if len(cols) != len(wantC) {
			t.Fatalf("row %d: %d cols, want %d", i, len(cols), len(wantC))
		}
		for k := range cols {
			if cols[k] != wantC[k] {
				t.Fatalf("row %d entry %d: col %d, want %d", i, k, cols[k], wantC[k])
			}
		}
	}
	if _, err := mp.AppendRowCols(nil, -1); err == nil {
		t.Fatal("negative row accepted")
	}
	if _, err := mp.AppendRowCols(nil, a.M); err == nil {
		t.Fatal("out-of-range row accepted")
	}
}

// TestMappedLazyTouch pins the shard-native contract: reading one row
// verifies exactly that row's shard.
func TestMappedLazyTouch(t *testing.T) {
	mp, err := openBinaryBytes(multiShardBCSR(t))
	if err != nil {
		t.Fatal(err)
	}
	if mp.Shards() < 4 {
		t.Fatalf("need several shards, got %d", mp.Shards())
	}
	if st := mp.Stats(); st.ShardsTouched != 0 || st.PayloadBytesTouched != 0 {
		t.Fatalf("open already touched payloads: %+v", st)
	}
	if _, err := mp.AppendRowCols(nil, 0); err != nil {
		t.Fatal(err)
	}
	if st := mp.Stats(); st.ShardsTouched != 1 {
		t.Fatalf("one row read touched %d shards", st.ShardsTouched)
	}
	// Re-reading the same shard must not re-verify.
	if _, err := mp.AppendRowCols(nil, 1); err != nil {
		t.Fatal(err)
	}
	if st := mp.Stats(); st.ShardsTouched != 1 {
		t.Fatalf("second row of the same shard re-touched: %d", st.ShardsTouched)
	}
}

// TestMappedErrorTexts pins the words of every framing and payload
// error on the multi-shard corpus (byte counts included): the texts were
// those of both readers while there were two, and the row accessors,
// Matrix and Load's callers still match on them, so they may not drift
// unseen.
func TestMappedErrorTexts(t *testing.T) {
	valid := multiShardBCSR(t)
	le := binary.LittleEndian

	// Locate shard 1's payload to corrupt it (and only it).
	mp, err := openBinaryBytes(valid)
	if err != nil {
		t.Fatal(err)
	}
	if mp.Shards() < 3 {
		t.Fatalf("corpus needs >= 3 shards, got %d", mp.Shards())
	}
	shard1Payload := int(mp.pOff[1])
	shard1Rows := int(mp.lay.hi[1] - mp.lay.lo[1])
	if len(valid) != 2802 || shard1Payload != 674 {
		t.Fatalf("corpus moved (%d bytes, shard 1 payload at %d): re-derive the pinned texts", len(valid), shard1Payload)
	}

	// CRC-bad shard: flip one value byte inside shard 1's payload.
	crcBad := append([]byte(nil), valid...)
	crcBad[shard1Payload+shard1Rows*8+1] ^= 0x5a
	const crcBadText = "sparse: bcsr shard 1 CRC mismatch (file edec0ce2, computed 1be59ea3)"
	// Shard table not covering [0, M): bump shard 1's rowLo.
	gap := append([]byte(nil), valid...)
	tableOff := len(bcsrMagic) + 32
	le.PutUint64(gap[tableOff+16:], le.Uint64(gap[tableOff+16:])+1)

	for _, tc := range []struct {
		name string
		mut  []byte
		want string
	}{
		{"truncated mid-payload", valid[:shard1Payload+5], "sparse: reading bcsr shard 1 payload: sparse: short read: want 520 bytes, got 5: unexpected EOF"},
		{"truncated mid-shard-header", valid[:shard1Payload-9], "sparse: reading bcsr shard 1 header: unexpected EOF"},
		{"truncated header", valid[:len(bcsrMagic)+17], "sparse: reading bcsr header: unexpected EOF"},
		{"truncated table", valid[:len(bcsrMagic)+40], "sparse: reading bcsr shard table: sparse: short read: want 80 bytes, got 8: unexpected EOF"},
		{"crc-bad shard", crcBad, crcBadText},
		{"table gap", gap, "sparse: bcsr shard 1 covers rows [5, 8), want contiguous panels over [0, 20)"},
		{"truncated at 1", valid[:1], "sparse: reading bcsr magic: unexpected EOF"},
		{"truncated at magic+8", valid[:len(bcsrMagic)+8], "sparse: reading bcsr header: EOF"},
		{"truncated at len/2", valid[:len(valid)/2], "sparse: reading bcsr shard 2 payload: sparse: short read: want 520 bytes, got 191: unexpected EOF"},
		{"truncated at len-3", valid[:len(valid)-3], "sparse: reading bcsr shard 4 payload: sparse: short read: want 520 bytes, got 517: unexpected EOF"},
	} {
		if _, err := readBCSR(tc.mut); err == nil || err.Error() != tc.want {
			t.Errorf("%s:\n  got  %v\n  want %s", tc.name, err, tc.want)
		}
	}

	// A bit flip anywhere — header, table, shard headers, payloads —
	// must be rejected, or leave a matrix that survives the round trip
	// (a flipped column count can be a smaller, still consistent file).
	for off := 0; off < len(valid); off += 23 {
		mut := append([]byte(nil), valid...)
		mut[off] ^= 0x10
		got, err := readBCSR(mut)
		if err != nil {
			continue
		}
		var rt bytes.Buffer
		if err := WriteBinarySharded(&rt, got, 40); err != nil {
			t.Fatalf("flip at %d: accepted matrix fails to re-serialize: %v", off, err)
		}
		if back, err := readBCSR(rt.Bytes()); err != nil || !Equal(got, back) {
			t.Errorf("flip at %d: accepted matrix does not round-trip (err=%v)", off, err)
		}
	}

	// CRC-bad shard, touched lazily: open succeeds, the damaged shard
	// errors on first touch in the full decode's words, other shards stay
	// readable.
	mp2, err := openBinaryBytes(crcBad)
	if err != nil {
		t.Fatalf("open must defer payload verification: %v", err)
	}
	if _, err := mp2.AppendRowCols(nil, 0); err != nil {
		t.Fatalf("undamaged shard 0 unreadable: %v", err)
	}
	badRow := int(mp2.lay.lo[1])
	if _, err := mp2.AppendRowCols(nil, badRow); err == nil {
		t.Fatal("CRC-damaged shard served rows")
	} else if err.Error() != crcBadText {
		t.Fatalf("lazy CRC error %q, want %q", err, crcBadText)
	}
	if st := mp2.Stats(); st.ShardsTouched != 1 {
		t.Fatalf("failed verification counted as touched: %+v", st)
	}
}

func TestMappedEmptyMatrix(t *testing.T) {
	empty := NewCOO(0, 10, 0).ToCSR() // M=0, shards=0
	var buf bytes.Buffer
	if err := WriteBinary(&buf, empty); err != nil {
		t.Fatal(err)
	}
	mp, err := openBinaryBytes(buf.Bytes())
	if err != nil {
		t.Fatalf("empty matrix rejected: %v", err)
	}
	if mp.Shards() != 0 {
		t.Fatalf("empty matrix has %d shards", mp.Shards())
	}
	got, err := mp.Matrix()
	if err != nil || !Equal(empty, got) {
		t.Fatalf("empty decode differs (err=%v)", err)
	}
	// The mmap-backed open must tolerate it too (zero-length payload
	// region; some platforms refuse tiny maps — fallback covers them).
	mf, err := OpenBinary(writeTempBCSR(t, buf.Bytes()))
	if err != nil {
		t.Fatalf("file-backed empty open: %v", err)
	}
	mf.Close()
}

// TestMappedTrailingNNZMismatch pins the eager framing check: a header
// that promises more entries than the shards hold fails at open.
func TestMappedTrailingNNZMismatch(t *testing.T) {
	mut := multiShardBCSR(t)
	le := binary.LittleEndian
	le.PutUint64(mut[len(bcsrMagic)+16:], le.Uint64(mut[len(bcsrMagic)+16:])+1)
	const want = "sparse: bcsr header promised 201 entries, shards hold 200"
	if _, err := openBinaryBytes(mut); err == nil || err.Error() != want {
		t.Fatalf("inflated nnz: open returned %v, want %s", err, want)
	}
}
