package feed

import (
	"fmt"
	"math"
	"os"
	"path/filepath"
	"strings"
	"testing"

	"repro/internal/sparse"
)

func entries(triples ...[3]float64) []sparse.Entry {
	es := make([]sparse.Entry, len(triples))
	for i, t := range triples {
		es[i] = sparse.Entry{Row: int32(t[0]), Col: int32(t[1]), Val: t[2]}
	}
	return es
}

func scanAll(t *testing.T, l *Log) []sparse.Entry {
	t.Helper()
	var got []sparse.Entry
	if err := l.Scan(func(e sparse.Entry) error { got = append(got, e); return nil }); err != nil {
		t.Fatal(err)
	}
	return got
}

func TestLogRoundTrip(t *testing.T) {
	path := filepath.Join(t.TempDir(), "ratings.log")
	l, err := OpenLog(path, 5)
	if err != nil {
		t.Fatal(err)
	}
	b1 := entries([3]float64{0, 1, 4.5}, [3]float64{2, 0, 3})
	b2 := entries([3]float64{7, 4, 1.5}) // user past any base M: allowed
	if err := l.Append(b1); err != nil {
		t.Fatal(err)
	}
	if err := l.Append(b2); err != nil {
		t.Fatal(err)
	}
	if l.Records() != 3 {
		t.Fatalf("records = %d, want 3", l.Records())
	}
	got := scanAll(t, l)
	want := append(append([]sparse.Entry(nil), b1...), b2...)
	if len(got) != len(want) {
		t.Fatalf("scan returned %d entries, want %d", len(got), len(want))
	}
	for i := range want {
		if got[i] != want[i] {
			t.Fatalf("entry %d = %+v, want %+v", i, got[i], want[i])
		}
	}
	if err := l.Close(); err != nil {
		t.Fatal(err)
	}

	// Reopen: everything still there, appends continue.
	l, err = OpenLog(path, 5)
	if err != nil {
		t.Fatal(err)
	}
	defer l.Close()
	if l.Records() != 3 || l.RecoveredBytes() != 0 {
		t.Fatalf("reopen: records %d recovered %d", l.Records(), l.RecoveredBytes())
	}
	if err := l.Append(entries([3]float64{1, 1, 2})); err != nil {
		t.Fatal(err)
	}
	if got := scanAll(t, l); len(got) != 4 || got[3].Val != 2 {
		t.Fatalf("post-reopen scan: %+v", got)
	}
}

func TestLogAppendRejects(t *testing.T) {
	l, err := OpenLog(filepath.Join(t.TempDir(), "r.log"), 3)
	if err != nil {
		t.Fatal(err)
	}
	defer l.Close()
	cases := map[string][]sparse.Entry{
		"negative user": entries([3]float64{-1, 0, 1}),
		"item range":    entries([3]float64{0, 3, 1}),
		"non-finite":    {{Row: 0, Col: 0, Val: math.Inf(1)}},
	}
	for name, es := range cases {
		if err := l.Append(es); err == nil {
			t.Errorf("%s accepted", name)
		}
	}
	if l.Records() != 0 {
		t.Fatalf("rejected batches must write nothing, records = %d", l.Records())
	}
	if err := l.Append(nil); err != nil {
		t.Fatalf("empty batch: %v", err)
	}
}

// buildLogFile writes a clean two-frame log (2 + 1 records) and returns
// its bytes. Frame 1 spans [18, 58), frame 2 spans [58, 82).
func buildLogFile(t testing.TB, dir string) []byte {
	t.Helper()
	path := filepath.Join(dir, "clean.log")
	l, err := OpenLog(path, 9)
	if err != nil {
		t.Fatal(err)
	}
	if err := l.Append(entries([3]float64{0, 1, 4}, [3]float64{3, 2, 2})); err != nil {
		t.Fatal(err)
	}
	if err := l.Append(entries([3]float64{5, 8, 1})); err != nil {
		t.Fatal(err)
	}
	if err := l.Close(); err != nil {
		t.Fatal(err)
	}
	data, err := os.ReadFile(path)
	if err != nil {
		t.Fatal(err)
	}
	// 18-byte header + (8 + 2*16) + (8 + 1*16)
	if len(data) != 82 {
		t.Fatalf("clean log is %d bytes, expected 82", len(data))
	}
	return data
}

// TestLogTornTailRecovery: every possible crash point inside the final
// frame — a lone partial frame header, a full header with missing
// payload, payload one byte short — recovers to the acknowledged
// prefix, byte-accurately reporting what was dropped.
func TestLogTornTailRecovery(t *testing.T) {
	dir := t.TempDir()
	data := buildLogFile(t, dir)
	for _, cut := range []int{58 + 3, 58 + 8, 82 - 1} {
		name := fmt.Sprintf("cut@%d", cut)
		path := filepath.Join(dir, name+".log")
		if err := os.WriteFile(path, data[:cut], 0o644); err != nil {
			t.Fatal(err)
		}
		l, err := OpenLog(path, 9)
		if err != nil {
			t.Fatalf("%s: %v", name, err)
		}
		if l.Records() != 2 {
			t.Errorf("%s: records = %d, want the 2 acknowledged ones", name, l.Records())
		}
		if want := int64(cut - 58); l.RecoveredBytes() != want {
			t.Errorf("%s: recovered %d bytes, want %d", name, l.RecoveredBytes(), want)
		}
		if fi, _ := os.Stat(path); fi.Size() != 58 {
			t.Errorf("%s: file is %d bytes after recovery, want 58", name, fi.Size())
		}
		// The log must be fully usable after recovery.
		if err := l.Append(entries([3]float64{1, 1, 7})); err != nil {
			t.Fatalf("%s: append after recovery: %v", name, err)
		}
		if got := scanAll(t, l); len(got) != 3 || got[2].Val != 7 {
			t.Errorf("%s: post-recovery scan %+v", name, got)
		}
		l.Close()
	}
}

// TestLogCorpusRejects: complete-but-wrong logs are refused with
// byte-accurate errors, mirroring the .bcsr corpus style.
func TestLogCorpusRejects(t *testing.T) {
	dir := t.TempDir()
	data := buildLogFile(t, dir)
	flip := func(off int) []byte {
		mut := append([]byte(nil), data...)
		mut[off] ^= 0x01
		return mut
	}
	zeroCount := append([]byte(nil), data[:58]...)
	zeroCount = append(zeroCount, make([]byte, 8)...) // complete frame header declaring 0 records

	cases := map[string]struct {
		bytes []byte
		want  string
	}{
		"truncated header":  {data[:5], "log header truncated (5 of 18 bytes)"},
		"bad magic":         {flip(0), "not a rating log"},
		"crc-bad frame 1":   {flip(18 + 8), "frame at offset 18: payload CRC mismatch"},
		"crc-bad frame 2":   {flip(58 + 8 + 15), "frame at offset 58: payload CRC mismatch"},
		"zero-record frame": {zeroCount, "frame at offset 58 declares 0 records"},
	}
	for name, tc := range cases {
		path := filepath.Join(dir, strings.ReplaceAll(name, " ", "-")+".log")
		if err := os.WriteFile(path, tc.bytes, 0o644); err != nil {
			t.Fatal(err)
		}
		_, err := OpenLog(path, 9)
		if err == nil || !strings.Contains(err.Error(), tc.want) {
			t.Errorf("%s: error %v does not mention %q", name, err, tc.want)
		}
	}

	// Catalog-width mismatch on reopen.
	path := filepath.Join(dir, "dims.log")
	if err := os.WriteFile(path, data, 0o644); err != nil {
		t.Fatal(err)
	}
	_, err := OpenLog(path, 4)
	if err == nil || !strings.Contains(err.Error(), "log has 9 items, expected 4") {
		t.Errorf("catalog mismatch: %v", err)
	}
}

func TestLogEmptyFileInitializes(t *testing.T) {
	path := filepath.Join(t.TempDir(), "empty.log")
	if err := os.WriteFile(path, nil, 0o644); err != nil {
		t.Fatal(err)
	}
	l, err := OpenLog(path, 2)
	if err != nil {
		t.Fatal(err)
	}
	defer l.Close()
	if l.Records() != 0 || l.RecoveredBytes() != 0 {
		t.Fatalf("empty file: records %d recovered %d", l.Records(), l.RecoveredBytes())
	}
	if fi, _ := os.Stat(path); fi.Size() != 18 {
		t.Fatalf("header not written: %d bytes", fi.Size())
	}
}

// TestLogFreshPathHeaderOnly: OpenLog over a path that does not exist
// creates the file (and syncs its directory entry) holding exactly the
// header for the catalog width asked for.
func TestLogFreshPathHeaderOnly(t *testing.T) {
	path := filepath.Join(t.TempDir(), "fresh.log")
	l, err := OpenLog(path, 7)
	if err != nil {
		t.Fatal(err)
	}
	if err := l.Close(); err != nil {
		t.Fatal(err)
	}
	got, err := os.ReadFile(path)
	if err != nil {
		t.Fatal(err)
	}
	want := append([]byte(logMagic), 7, 0, 0, 0, 0, 0, 0, 0)
	if string(got) != string(want) {
		t.Fatalf("fresh log holds %q, want the header %q", got, want)
	}
}

func TestLogTruncateResets(t *testing.T) {
	path := filepath.Join(t.TempDir(), "t.log")
	l, err := OpenLog(path, 3)
	if err != nil {
		t.Fatal(err)
	}
	defer l.Close()
	if err := l.Append(entries([3]float64{0, 0, 1})); err != nil {
		t.Fatal(err)
	}
	if err := l.Truncate(); err != nil {
		t.Fatal(err)
	}
	if l.Records() != 0 {
		t.Fatalf("records = %d after truncate", l.Records())
	}
	if err := l.Append(entries([3]float64{1, 2, 3})); err != nil {
		t.Fatal(err)
	}
	if got := scanAll(t, l); len(got) != 1 || got[0].Val != 3 {
		t.Fatalf("post-truncate scan %+v", got)
	}
}

func TestCompactLastWriteWins(t *testing.T) {
	dir := t.TempDir()
	l, err := OpenLog(filepath.Join(dir, "c.log"), 4)
	if err != nil {
		t.Fatal(err)
	}
	defer l.Close()
	if err := l.Append(entries(
		[3]float64{0, 1, 3},
		[3]float64{2, 0, 2},
		[3]float64{0, 1, 5}, // re-rated within the log: 5 must win
	)); err != nil {
		t.Fatal(err)
	}
	if err := l.Append(entries([3]float64{6, 3, 1})); err != nil { // new user 6
		t.Fatal(err)
	}
	out := filepath.Join(dir, "delta.bcsr")
	stats, err := l.Compact(out, 3, 2)
	if err != nil {
		t.Fatal(err)
	}
	if stats.M != 7 || stats.N != 4 || stats.NNZ != 3 {
		t.Fatalf("stats %+v, want 7x4 with 3 entries", stats)
	}
	got, err := sparse.Load(out)
	if err != nil {
		t.Fatal(err)
	}
	want := csrOf(7, 4,
		[3]float64{0, 1, 5},
		[3]float64{2, 0, 2},
		[3]float64{6, 3, 1})
	if !sparse.Equal(want, got) {
		t.Fatal("compacted delta shard differs from last-write-wins expectation")
	}
	// Compaction leaves the log intact; Truncate is the caller's move.
	if l.Records() != 4 {
		t.Fatalf("compact consumed the log: records = %d", l.Records())
	}
}

func TestCompactEmptyLogRejected(t *testing.T) {
	l, err := OpenLog(filepath.Join(t.TempDir(), "e.log"), 2)
	if err != nil {
		t.Fatal(err)
	}
	defer l.Close()
	if _, err := l.Compact(filepath.Join(t.TempDir(), "x.bcsr"), 1, 0); err == nil {
		t.Fatal("compacting an empty log must fail")
	}
}

// csrOf builds a CSR from (row, col, val) triples.
func csrOf(m, n int, triples ...[3]float64) *sparse.CSR {
	c := sparse.NewCOO(m, n, len(triples))
	for _, tr := range triples {
		c.Add(int(tr[0]), int(tr[1]), tr[2])
	}
	return c.ToCSR()
}
