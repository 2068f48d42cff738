package sparse

import (
	"bytes"
	"encoding/binary"
	"math/rand"
	"os"
	"path/filepath"
	"testing"
)

func TestBinaryRoundTrip(t *testing.T) {
	r := rand.New(rand.NewSource(3))
	for trial := 0; trial < 25; trial++ {
		a := randomCSR(r, 60, 500)
		for _, shardNNZ := range []int{1, 7, 64, DefaultShardNNZ} {
			var buf bytes.Buffer
			if err := WriteBinarySharded(&buf, a, shardNNZ); err != nil {
				t.Fatal(err)
			}
			b, err := readBCSR(buf.Bytes())
			if err != nil {
				t.Fatalf("trial %d shardNNZ=%d: %v", trial, shardNNZ, err)
			}
			if !Equal(a, b) {
				t.Fatalf("trial %d shardNNZ=%d: write ∘ read != id", trial, shardNNZ)
			}
		}
	}
}

func TestBinaryRoundTripEdgeShapes(t *testing.T) {
	shapes := []*CSR{
		NewCOO(1, 1, 0).ToCSR(),  // 1x1 empty
		NewCOO(5, 3, 0).ToCSR(),  // rows but no entries
		NewCOO(0, 0, 0).ToCSR(),  // fully degenerate
		NewCOO(0, 10, 0).ToCSR(), // zero rows, some cols
	}
	one := NewCOO(1, 1, 1)
	one.Add(0, 0, -2.5)
	shapes = append(shapes, one.ToCSR())
	for i, a := range shapes {
		var buf bytes.Buffer
		if err := WriteBinarySharded(&buf, a, DefaultShardNNZ); err != nil {
			t.Fatalf("shape %d: %v", i, err)
		}
		b, err := readBCSR(buf.Bytes())
		if err != nil {
			t.Fatalf("shape %d: %v", i, err)
		}
		if !Equal(a, b) {
			t.Fatalf("shape %d: round trip changed the matrix", i)
		}
	}
}

// validBCSR renders a small valid shard file for corruption tests.
func validBCSR(t *testing.T) []byte {
	t.Helper()
	r := rand.New(rand.NewSource(11))
	a := randomCSR(r, 20, 120)
	var buf bytes.Buffer
	if err := WriteBinarySharded(&buf, a, 30); err != nil {
		t.Fatal(err)
	}
	return buf.Bytes()
}

func TestBinaryRejectsCorrupt(t *testing.T) {
	valid := validBCSR(t)
	if _, err := readBCSR(valid); err != nil {
		t.Fatalf("baseline file must parse: %v", err)
	}

	// Truncation at every interesting boundary (and a sweep of prefixes):
	// always an error, never a panic or a short success.
	for _, cut := range []int{0, 1, 5, len(bcsrMagic), len(bcsrMagic) + 8, len(bcsrMagic) + 31, len(valid) / 2, len(valid) - 1} {
		if cut >= len(valid) {
			continue
		}
		if _, err := readBCSR(valid[:cut]); err == nil {
			t.Errorf("truncation at %d bytes accepted", cut)
		}
	}

	// Any single-bit flip in the payload region must be caught (CRC), and
	// flips in the header/table must fail validation. Flip a byte in every
	// 16-byte window to cover both regions without 8*len cases.
	for off := 0; off < len(valid); off += 16 {
		mut := append([]byte(nil), valid...)
		mut[off] ^= 0x40
		if bytes.Equal(mut, valid) {
			continue
		}
		a, err := readBCSR(mut)
		if err == nil {
			// A flip inside a float64's mantissa bits in the header-free
			// region cannot legitimately succeed: CRC covers all payloads.
			// The only bytes a flip may leave valid are the magic's? No —
			// magic mismatch errors too. Accepting is a corruption escape.
			t.Errorf("bit flip at offset %d accepted (matrix %dx%d)", off, a.M, a.N)
		}
	}
}

func TestBinaryRejectsHostileHeaders(t *testing.T) {
	le := binary.LittleEndian
	base := validBCSR(t)
	patch := func(off int, v uint64) []byte {
		mut := append([]byte(nil), base...)
		le.PutUint64(mut[off:], v)
		return mut
	}
	h := len(bcsrMagic)
	cases := map[string][]byte{
		"giant rows":        patch(h, 1<<40),
		"giant cols":        patch(h+8, 1<<40),
		"giant nnz":         patch(h+16, 1<<62),
		"zero shards":       patch(h+24, 0),
		"giant shard count": patch(h+24, 1<<50),
		"bad magic":         append([]byte("BPMFBCSR9\n"), base[h:]...),
	}
	for name, mut := range cases {
		if _, err := readBCSR(mut); err == nil {
			t.Errorf("%s accepted", name)
		}
	}
}

func TestConverterMatchesSequentialParse(t *testing.T) {
	r := rand.New(rand.NewSource(29))
	dir := t.TempDir()
	for trial := 0; trial < 8; trial++ {
		// Fixed-size dims so even after duplicate summing hundreds of
		// entries remain and ShardNNZ=50 yields several shards.
		c := NewCOO(30+trial, 25, 600)
		for k := 0; k < 600; k++ {
			c.Add(r.Intn(c.M), r.Intn(c.N), r.NormFloat64()*10)
		}
		a := c.ToCSR()
		mmPath := filepath.Join(dir, "m.mtx")
		bcsrPath := filepath.Join(dir, "m.bcsr")
		f, err := os.Create(mmPath)
		if err != nil {
			t.Fatal(err)
		}
		if err := WriteMatrixMarket(f, a); err != nil {
			t.Fatal(err)
		}
		f.Close()

		stats, err := Converter{ShardNNZ: 50, TmpDir: dir}.Convert(mmPath, bcsrPath)
		if err != nil {
			t.Fatal(err)
		}
		if stats.M != a.M || stats.N != a.N || stats.NNZ != int64(a.NNZ()) {
			t.Fatalf("stats %+v vs matrix %dx%d nnz %d", stats, a.M, a.N, a.NNZ())
		}
		if stats.Shards < 2 {
			t.Fatalf("expected multiple shards at ShardNNZ=50 with %d entries, got %d", a.NNZ(), stats.Shards)
		}
		got, err := Load(bcsrPath)
		if err != nil {
			t.Fatal(err)
		}
		if !Equal(a, got) {
			t.Fatalf("trial %d: convert → load differs from the source matrix", trial)
		}
		// No spill files may survive.
		leftovers, _ := filepath.Glob(filepath.Join(dir, "bcsr-spill-*"))
		if len(leftovers) != 0 {
			t.Fatalf("spill files left behind: %v", leftovers)
		}
	}
}

func TestLoadSniffsFormats(t *testing.T) {
	r := rand.New(rand.NewSource(41))
	a := randomCSR(r, 30, 200)
	dir := t.TempDir()

	mm := filepath.Join(dir, "a.mtx")
	f, err := os.Create(mm)
	if err != nil {
		t.Fatal(err)
	}
	if err := WriteMatrixMarket(f, a); err != nil {
		t.Fatal(err)
	}
	f.Close()

	bc := filepath.Join(dir, "a.bcsr")
	var buf bytes.Buffer
	if err := WriteBinarySharded(&buf, a, DefaultShardNNZ); err != nil {
		t.Fatal(err)
	}
	if err := os.WriteFile(bc, buf.Bytes(), 0o644); err != nil {
		t.Fatal(err)
	}

	for _, path := range []string{mm, bc} {
		got, err := Load(path)
		if err != nil {
			t.Fatalf("Load(%s): %v", path, err)
		}
		if !Equal(a, got) {
			t.Fatalf("Load(%s) differs from source", path)
		}
	}

	junk := filepath.Join(dir, "junk.bin")
	if err := os.WriteFile(junk, []byte{0xde, 0xad, 0xbe, 0xef}, 0o644); err != nil {
		t.Fatal(err)
	}
	if _, err := Load(junk); err == nil {
		t.Fatal("Load accepted an unrecognized format")
	}
	if _, err := Load(filepath.Join(dir, "missing")); err == nil {
		t.Fatal("Load of a missing file must error")
	}
}
