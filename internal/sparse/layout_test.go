package sparse

import (
	"bytes"
	"crypto/sha256"
	"encoding/binary"
	"fmt"
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

// TestWriterBytesArePinned pins the writer's exact output for a small
// matrix with leading, inner and trailing empty rows, over several
// shards: the differential tests above compare the writer with itself,
// so only a fixed digest catches a byte that moves in the header, the
// shard table or a shard's framing.
func TestWriterBytesArePinned(t *testing.T) {
	c := NewCOO(7, 5, 8)
	for _, e := range []Entry{
		{1, 0, 1.5}, {1, 4, -2.25}, {2, 2, 3}, {4, 1, 0.125},
		{4, 3, -7}, {4, 4, 1e-300}, {5, 0, 42}, {5, 2, -0.5},
	} {
		c.Add(int(e.Row), int(e.Col), e.Val)
	}
	a := c.ToCSR()
	for _, tc := range []struct {
		shardNNZ int
		shards   int
		sha      string
	}{
		{2, 4, "0b333effc01940f201d2a371e727d0df2e2a91d1d4b7b6e62c4cf3d600a8fcc4"},
		{1 << 20, 1, "ece3c032b314061ada72ab43181323a61b5a88e239aa7efacd2c8282e0392eb6"},
	} {
		var buf bytes.Buffer
		if err := WriteBinarySharded(&buf, a, tc.shardNNZ); err != nil {
			t.Fatal(err)
		}
		mp, err := OpenBinaryBytes(buf.Bytes())
		if err != nil {
			t.Fatal(err)
		}
		if mp.Shards() != tc.shards {
			t.Fatalf("shardNNZ %d: %d shards, want %d", tc.shardNNZ, mp.Shards(), tc.shards)
		}
		if got := fmt.Sprintf("%x", sha256.Sum256(buf.Bytes())); got != tc.sha {
			t.Errorf("shardNNZ %d: %d bytes with SHA-256 %s, want %s", tc.shardNNZ, buf.Len(), got, tc.sha)
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
	mp, err := OpenBinaryBytes(valid)
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
		lazy, err := OpenBinaryBytes(mut)
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

// checkPanelByRule is checkPanel as one pass per rule, in rank order, each
// stopping at its first fault: the statement the one-walk check must equal
// on every payload, however many rules it breaks.
func checkPanelByRule(payload []byte, rows int, snnz int64, n int, rowBase int) error {
	le := binary.LittleEndian
	colOff, valOff, _ := panelSections(rows, snnz)
	ptr, cols, vals := payload[:colOff], payload[colOff:valOff], payload[valOff:]
	if first := int64(le.Uint64(ptr)); first != 0 {
		return fmt.Errorf("panel rowPtr starts at %d, want 0", first)
	}
	prev := int64(0)
	for r := 0; r <= rows; r++ {
		p := int64(le.Uint64(ptr[r*8:]))
		if p < prev || p > snnz {
			return fmt.Errorf("panel rowPtr not monotone in [0, %d]: row %d has %d after %d", snnz, r, p, prev)
		}
		prev = p
	}
	if prev != snnz {
		return fmt.Errorf("panel rowPtr ends at %d, want %d", prev, snnz)
	}
	for k := int64(0); k < snnz; k++ {
		if c := le.Uint32(cols[k*4:]); uint64(c) >= uint64(n) {
			return fmt.Errorf("column %d out of range [0, %d)", c, n)
		}
	}
	for r := 0; r < rows; r++ {
		s, e := int64(le.Uint64(ptr[r*8:])), int64(le.Uint64(ptr[(r+1)*8:]))
		for k := s + 1; k < e; k++ {
			if a, b := le.Uint32(cols[(k-1)*4:]), le.Uint32(cols[k*4:]); b <= a {
				return fmt.Errorf("row %d columns not strictly ascending (%d after %d)", rowBase+r, b, a)
			}
		}
	}
	for k := int64(0); k < snnz; k++ {
		if v := math.Float64frombits(le.Uint64(vals[k*8:])); math.IsNaN(v) || math.IsInf(v, 0) {
			return fmt.Errorf("entry %d has non-finite value %v", k, v)
		}
	}
	return nil
}

// TestCheckPanelMatchesRuleByRule: on payloads that break none, one or
// several of the rules, at random places and in any combination —
// repeated and descending columns, columns at and past n, NaN and ±Inf,
// a lying row pointer — checkPanel returns checkPanelByRule's error, word
// for word.
func TestCheckPanelMatchesRuleByRule(t *testing.T) {
	r := rand.New(rand.NewSource(49))
	le := binary.LittleEndian
	faults := map[string]int{}
	for trial := 0; trial < 4000; trial++ {
		rows, n := 1+r.Intn(6), 1+r.Intn(12)
		ptr := []int64{0}
		var cols []uint32
		for i := 0; i < rows; i++ {
			for c := 0; c < n; c++ {
				if r.Intn(3) == 0 {
					cols = append(cols, uint32(c))
				}
			}
			ptr = append(ptr, int64(len(cols)))
		}
		snnz := int64(len(cols))
		colOff, valOff, end := panelSections(rows, snnz)
		p := make([]byte, end)
		for i, v := range ptr {
			le.PutUint64(p[i*8:], uint64(v))
		}
		for k, c := range cols {
			le.PutUint32(p[colOff+int64(k)*4:], c)
			le.PutUint64(p[valOff+int64(k)*8:], math.Float64bits(r.NormFloat64()))
		}
		for f := r.Intn(5); f > 0 && snnz > 0; f-- {
			k := r.Int63n(snnz)
			switch r.Intn(6) {
			case 0: // a column repeated or descending
				le.PutUint32(p[colOff+k*4:], uint32(r.Intn(n)))
			case 1: // a column at or past n
				le.PutUint32(p[colOff+k*4:], uint32(n+r.Intn(3)))
			case 2:
				le.PutUint64(p[valOff+k*8:], math.Float64bits([]float64{math.NaN(), math.Inf(1), math.Inf(-1)}[r.Intn(3)]))
			case 3: // a finite value with every exponent bit but one
				le.PutUint64(p[valOff+k*8:], 0x7fe0000000000001|uint64(r.Intn(2))<<63)
			case 4:
				if r.Intn(4) == 0 {
					le.PutUint64(p[r.Intn(rows+1)*8:], uint64(r.Int63n(snnz+2)))
				}
			}
		}
		rowBase := r.Intn(100)
		got, want := checkPanel(p, rows, snnz, n, rowBase), checkPanelByRule(p, rows, snnz, n, rowBase)
		if fmt.Sprint(got) != fmt.Sprint(want) {
			t.Fatalf("trial %d: checkPanel returned %v, rule by rule %v", trial, got, want)
		}
		if want != nil {
			faults[strings.Fields(want.Error())[2]]++
		} else {
			faults["none"]++
		}
	}
	t.Logf("first faults by kind: %v", faults)
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
