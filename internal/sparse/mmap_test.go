package sparse

import (
	"bytes"
	"encoding/binary"
	"fmt"
	"math/rand"
	"os"
	"path/filepath"
	"testing"
)

// mmap_test.go is the mapped reader's corpus: OpenBinary must accept
// exactly what ReadBinary accepts, report the same errors for the same
// corruption (eagerly for framing damage, lazily for payload damage),
// and touch only the shards actually read.

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

func TestMappedMatrixMatchesReadBinary(t *testing.T) {
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

// corruptCase builds a mutated image and returns the ReadBinary error
// for parity comparison.
func readBinaryErr(data []byte) error {
	_, err := ReadBinary(bytes.NewReader(data))
	return err
}

// mappedErr runs the mapped pipeline to completion: open, then full
// decode (which touches every shard lazily).
func mappedErr(data []byte) error {
	mp, err := openBinaryBytes(data)
	if err != nil {
		return err
	}
	_, err = mp.Matrix()
	return err
}

func TestMappedReportsReadBinaryErrors(t *testing.T) {
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

	cases := map[string][]byte{
		"truncated mid-payload":      valid[:shard1Payload+5],
		"truncated mid-shard-header": valid[:shard1Payload-9],
		"truncated header":           valid[:len(bcsrMagic)+17],
		"truncated table":            valid[:len(bcsrMagic)+40],
	}
	// CRC-bad shard: flip one value byte inside shard 1's payload.
	crcBad := append([]byte(nil), valid...)
	crcBad[shard1Payload+shard1Rows*8+1] ^= 0x5a
	cases["crc-bad shard"] = crcBad
	// Shard table not covering [0, M): bump shard 1's rowLo.
	gap := append([]byte(nil), valid...)
	tableOff := len(bcsrMagic) + 32
	le.PutUint64(gap[tableOff+16:], le.Uint64(gap[tableOff+16:])+1)
	cases["table gap"] = gap
	for _, cut := range []int{1, len(bcsrMagic) + 8, len(valid) / 2, len(valid) - 3} {
		cases[fmt.Sprintf("truncated at %d", cut)] = valid[:cut]
	}

	for name, mut := range cases {
		rbErr := readBinaryErr(mut)
		mpErr := mappedErr(mut)
		if rbErr == nil || mpErr == nil {
			t.Errorf("%s: accepted (ReadBinary err=%v, mapped err=%v)", name, rbErr, mpErr)
			continue
		}
		if rbErr.Error() != mpErr.Error() {
			t.Errorf("%s: error mismatch\n  ReadBinary: %v\n  mapped:     %v", name, rbErr, mpErr)
		}
	}

	// A bit flip anywhere — header, table, shard headers, payloads —
	// must be accepted or rejected exactly as ReadBinary does.
	for off := 0; off < len(valid); off += 23 {
		mut := append([]byte(nil), valid...)
		mut[off] ^= 0x10
		rbErr, mpErr := readBinaryErr(mut), mappedErr(mut)
		if (rbErr == nil) != (mpErr == nil) {
			t.Errorf("flip at %d: ReadBinary err=%v, mapped err=%v", off, rbErr, mpErr)
		}
	}

	// CRC-bad shard, touched lazily: open succeeds, the damaged shard
	// errors on first touch, other shards stay readable.
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
	} else if rb := readBinaryErr(crcBad); rb == nil || err.Error() != rb.Error() {
		t.Fatalf("lazy CRC error %q != ReadBinary error %q", err, rb)
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
// that promises more entries than the shards hold fails at open with
// ReadBinary's message.
func TestMappedTrailingNNZMismatch(t *testing.T) {
	valid := multiShardBCSR(t)
	mut := append([]byte(nil), valid...)
	le := binary.LittleEndian
	le.PutUint64(mut[len(bcsrMagic)+16:], le.Uint64(mut[len(bcsrMagic)+16:])+1)
	rbErr := readBinaryErr(mut)
	_, mpErr := openBinaryBytes(mut)
	if rbErr == nil || mpErr == nil {
		t.Fatalf("inflated nnz accepted (ReadBinary=%v, mapped=%v)", rbErr, mpErr)
	}
}

// TestReadChunkedKeepsScratch pins the repaired contract: a short read
// returns the bytes that did arrive plus a byte-accurate error.
func TestReadChunkedKeepsScratch(t *testing.T) {
	src := bytes.NewReader([]byte{1, 2, 3, 4, 5})
	dst, err := readChunked(src, make([]byte, 0, 64), 9)
	if err == nil {
		t.Fatal("short stream accepted")
	}
	if len(dst) != 5 || cap(dst) < 64 {
		t.Fatalf("scratch lost: len=%d cap=%d", len(dst), cap(dst))
	}
	for i, b := range dst {
		if b != byte(i+1) {
			t.Fatalf("partial bytes corrupted: %v", dst)
		}
	}
	want := "sparse: short read: want 9 bytes, got 5: unexpected EOF"
	if err.Error() != want {
		t.Fatalf("error %q, want %q", err, want)
	}
}
