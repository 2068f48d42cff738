package sparse

import (
	"bytes"
	"encoding/binary"
	"hash/crc32"
	"math"
	"math/rand"
	"os"
	"path/filepath"
	"strings"
	"testing"
)

// layout_test.go pins the "written down once" layouts: the .bcsr file
// has one writer whichever entry point produced it, a shard payload has
// one rule set whichever reader meets it, and the entry record one
// codec.

// TestConverterWritesWhatWriteBinaryShardedWrites: the converter's tail
// and WriteBinarySharded are the same writer, so for a duplicate-free
// stream (nothing for the panels to fold) and the same shard target the
// two files are equal byte for byte — patched NNZ word included.
func TestConverterWritesWhatWriteBinaryShardedWrites(t *testing.T) {
	a := randomCSR(rand.New(rand.NewSource(5)), 37, 300)
	var es []Entry
	for i := 0; i < a.M; i++ {
		cols, vals := a.Row(i)
		for k, c := range cols {
			es = append(es, Entry{Row: int32(i), Col: c, Val: vals[k]})
		}
	}
	rand.New(rand.NewSource(6)).Shuffle(len(es), func(i, j int) { es[i], es[j] = es[j], es[i] })

	for _, shardNNZ := range []int{1, 40, 1 << 20} {
		var want bytes.Buffer
		if err := WriteBinarySharded(&want, a, shardNNZ); err != nil {
			t.Fatal(err)
		}
		dir := t.TempDir()
		out := filepath.Join(dir, "m.bcsr")
		if _, err := (Converter{ShardNNZ: shardNNZ, Dedup: DedupLast}).ConvertEntries(a.M, a.N, sliceStream(es), out); err != nil {
			t.Fatal(err)
		}
		got, err := os.ReadFile(out)
		if err != nil {
			t.Fatal(err)
		}
		if !bytes.Equal(got, want.Bytes()) {
			t.Fatalf("shardNNZ %d: converter wrote %d bytes, WriteBinarySharded %d, and they differ", shardNNZ, len(got), want.Len())
		}
		if left, _ := filepath.Glob(filepath.Join(dir, "*")); len(left) != 1 {
			t.Fatalf("shardNNZ %d: conversion left %v behind", shardNNZ, left)
		}
	}
}

// TestPanelRulesRejectResignedDamage breaks each structural rule of a
// shard payload in turn and re-signs the shard, so only checkPanel can
// object. Both entry points of the reader must, in the same words: the
// full decode (Matrix, what Load runs) and the in-place row accessors,
// which index the raw bytes and have nothing else between them and a
// hostile row pointer.
func TestPanelRulesRejectResignedDamage(t *testing.T) {
	valid := multiShardBCSR(t)
	mp, err := openBinaryBytes(valid)
	if err != nil {
		t.Fatal(err)
	}
	le := binary.LittleEndian
	const shard = 1
	rowLo := int(mp.lay.lo[shard])
	rows := int(mp.lay.hi[shard]) - rowLo
	snnz := mp.pNNZ[shard]
	colOff, valOff, end := panelSections(rows, snnz)
	at := mp.pOff[shard]

	for _, tc := range []struct {
		name, want string
		damage     func(p []byte)
	}{
		{"rowPtr does not start at 0", "starts at", func(p []byte) { le.PutUint64(p, 1) }},
		{"rowPtr not monotone", "not monotone", func(p []byte) { le.PutUint64(p[8:], 1<<40) }},
		{"rowPtr stops short", "ends at", func(p []byte) { le.PutUint64(p[rows*8:], le.Uint64(p[(rows-1)*8:])) }},
		{"column outside the matrix", "out of range", func(p []byte) { le.PutUint32(p[colOff:], 1<<30) }},
		{"columns out of order", "not strictly ascending", func(p []byte) {
			c := p[colOff:]
			a, b := le.Uint32(c), le.Uint32(c[4:])
			le.PutUint32(c, b)
			le.PutUint32(c[4:], a)
		}},
		{"repeated column", "not strictly ascending", func(p []byte) { copy(p[colOff+4:colOff+8], p[colOff:colOff+4]) }},
		{"NaN value", "non-finite", func(p []byte) { le.PutUint64(p[valOff:], math.Float64bits(math.NaN())) }},
		{"infinite value", "non-finite", func(p []byte) { le.PutUint64(p[end-8:], math.Float64bits(math.Inf(-1))) }},
	} {
		mut := append([]byte(nil), valid...)
		p := mut[at : at+end]
		tc.damage(p)
		le.PutUint64(mut[at-8:], uint64(crc32.ChecksumIEEE(p)))

		_, fullErr := readBCSR(mut)
		if fullErr == nil || !strings.Contains(fullErr.Error(), tc.want) || !strings.Contains(fullErr.Error(), "shard 1") {
			t.Errorf("%s: Matrix returned %v, want a shard 1 error mentioning %q", tc.name, fullErr, tc.want)
		}
		lazy, err := openBinaryBytes(mut)
		if err != nil {
			t.Errorf("%s: payload damage must wait for first touch, open failed: %v", tc.name, err)
			continue
		}
		if _, err := lazy.AppendRowCols(nil, rowLo); err == nil || fullErr == nil || err.Error() != fullErr.Error() {
			t.Errorf("%s: row accessor returned %v, Matrix %v", tc.name, err, fullErr)
		}
		if _, err := lazy.RowNNZ(0); err != nil {
			t.Errorf("%s: undamaged shard 0 unreadable: %v", tc.name, err)
		}
	}
}

// TestEntryRecordCodec: the record is (u32 row, u32 col, f64 bits),
// little-endian, 16 bytes; every Entry survives the round trip with its
// bits, and a record cut anywhere is refused rather than padded or
// dropped.
func TestEntryRecordCodec(t *testing.T) {
	got := AppendEntry([]byte{0xAA}, Entry{Row: 0x01020304, Col: 0x0A0B0C0D, Val: 1.5})
	want := []byte{0xAA, 4, 3, 2, 1, 0x0D, 0x0C, 0x0B, 0x0A, 0, 0, 0, 0, 0, 0, 0xF8, 0x3F}
	if !bytes.Equal(got, want) {
		t.Fatalf("record bytes % x, want % x", got, want)
	}

	entries := []Entry{
		{},
		{Row: 1, Col: 2, Val: 3.25},
		{Row: math.MaxInt32, Col: math.MaxInt32, Val: -math.MaxFloat64},
		{Row: -1, Col: math.MinInt32, Val: math.Copysign(0, -1)}, // what a hostile u32 decodes to
		{Row: 7, Col: 9, Val: math.Inf(1)},
		{Row: 7, Col: 9, Val: math.Float64frombits(0x7ff8_0000_dead_beef)}, // a NaN keeps its payload
	}
	var blob []byte
	for _, e := range entries {
		blob = AppendEntry(blob, e)
	}
	if len(blob) != len(entries)*EntryRecordLen {
		t.Fatalf("%d entries encoded to %d bytes", len(entries), len(blob))
	}
	for k, e := range entries {
		rec := blob[k*EntryRecordLen:]
		d, err := DecodeEntry(rec)
		if err != nil {
			t.Fatalf("entry %d: %v", k, err)
		}
		if d.Row != e.Row || d.Col != e.Col || math.Float64bits(d.Val) != math.Float64bits(e.Val) {
			t.Fatalf("entry %d: decoded %+v, want %+v", k, d, e)
		}
		if again := AppendEntry(nil, d); !bytes.Equal(again, rec[:EntryRecordLen]) {
			t.Fatalf("entry %d: re-encoded % x, want % x", k, again, rec[:EntryRecordLen])
		}
	}
	for cut := 0; cut < EntryRecordLen; cut++ {
		if e, err := DecodeEntry(blob[:cut]); err == nil {
			t.Fatalf("%d-byte record decoded to %+v", cut, e)
		}
	}
}
