package sparse

import (
	"bytes"
	"encoding/binary"
	"math/rand"
	"runtime"
	"testing"
)

// load_test.go pins what Load gets from decoding .bcsr through the mapped
// reader: claims are checked against the file's real size before anything
// is allocated, and the decoded arrays are sized once.

// TestLoadHostileClaimsAllocateNothing: a header claiming 2^24 shards
// over a 100-byte body is refused by the size check before the table is
// allocated (the streaming reader grew towards the claim a chunk at a
// time), with either entry count — 2^60 is out of range by itself, 2^58
// reaches the table claim.
func TestLoadHostileClaimsAllocateNothing(t *testing.T) {
	for _, tc := range []struct {
		name string
		nnz  uint64
		want string
	}{
		{"2^60 entries", 1 << 60, "sparse: bcsr claims 1152921504606846976 entries"},
		{"2^58 entries", 1 << 58, "sparse: reading bcsr shard table: sparse: short read: want 268435456 bytes, got 100: unexpected EOF"},
	} {
		img := []byte(bcsrMagic)
		for _, v := range []uint64{1 << 24, 10, tc.nnz, 1 << 24} {
			img = binary.LittleEndian.AppendUint64(img, v)
		}
		path := writeTempBCSR(t, append(img, make([]byte, 100)...))

		var before, after runtime.MemStats
		runtime.ReadMemStats(&before)
		_, err := Load(path)
		runtime.ReadMemStats(&after)
		if err == nil || err.Error() != tc.want {
			t.Errorf("%s: Load returned %v, want %s", tc.name, err, tc.want)
		}
		if got := after.TotalAlloc - before.TotalAlloc; got >= 64<<10 {
			t.Errorf("%s: refusing the file allocated %d bytes, want under 64 KiB", tc.name, got)
		}
	}
}

// TestLoadSizesArraysOnce: on a multi-shard file Col and Val come out
// exactly as long as their backing arrays — one allocation each from the
// verified entry count, no append growth across shards.
func TestLoadSizesArraysOnce(t *testing.T) {
	a := randomCSR(rand.New(rand.NewSource(23)), 80, 3000)
	var buf bytes.Buffer
	if err := WriteBinarySharded(&buf, a, 100); err != nil {
		t.Fatal(err)
	}
	path := writeTempBCSR(t, buf.Bytes())
	mp, err := OpenBinary(path)
	if err != nil {
		t.Fatal(err)
	}
	shards := mp.Shards()
	mp.Close()
	if shards < 4 {
		t.Fatalf("corpus needs several shards, got %d", shards)
	}
	got, err := Load(path)
	if err != nil {
		t.Fatal(err)
	}
	if !Equal(a, got) {
		t.Fatal("Load differs from the source matrix")
	}
	if cap(got.Col) != len(got.Col) || cap(got.Val) != len(got.Val) {
		t.Fatalf("Col len %d cap %d, Val len %d cap %d: want exact capacity", len(got.Col), cap(got.Col), len(got.Val), cap(got.Val))
	}
}
