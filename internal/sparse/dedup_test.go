package sparse

import (
	"bytes"
	"crypto/sha256"
	"fmt"
	"math/rand"
	"os"
	"path/filepath"
	"slices"
	"sort"
	"testing"
)

// dedupLastReference is the DedupLast panel build the converter ran
// before the dedup moved into toCSR's row scatter: one reflective stable
// sort of the panel's entries by (row, col), keeping the last of equal
// pairs, then the summing build, which meets no duplicates after it.
func dedupLastReference(m, n int, entries []Entry) *CSR {
	es := slices.Clone(entries)
	sort.SliceStable(es, func(i, j int) bool {
		if es[i].Row != es[j].Row {
			return es[i].Row < es[j].Row
		}
		return es[i].Col < es[j].Col
	})
	w := 0
	for k := range es {
		if w > 0 && es[w-1].Row == es[k].Row && es[w-1].Col == es[k].Col {
			es[w-1] = es[k]
			continue
		}
		es[w] = es[k]
		w++
	}
	return (&COO{M: m, N: n, Entries: es[:w]}).ToCSR()
}

// referenceDedupLastBytes is the .bcsr file the converter wrote for a
// DedupLast conversion of es through dedupLastReference: the panels are
// cut from the pre-dedup row counts, as convertCounted cuts them.
func referenceDedupLastBytes(t *testing.T, m, n, shardNNZ int, es []Entry) []byte {
	t.Helper()
	rowNNZ := make([]int64, m)
	for _, e := range es {
		rowNNZ[e.Row]++
	}
	lo, hi := panelBounds(rowNNZ, shardNNZ)
	panels := make([]*CSR, len(lo))
	total := int64(0)
	for s := range lo {
		var pe []Entry
		for _, e := range es {
			if int(e.Row) >= lo[s] && int(e.Row) < hi[s] {
				e.Row -= int32(lo[s])
				pe = append(pe, e)
			}
		}
		panels[s] = dedupLastReference(hi[s]-lo[s], n, pe)
		total += int64(panels[s].NNZ())
	}
	var buf bytes.Buffer
	if _, err := writeShards(&buf, m, n, total, lo, hi, func(s int) (*CSR, int, int, error) {
		return panels[s], 0, panels[s].M, nil
	}); err != nil {
		t.Fatal(err)
	}
	return buf.Bytes()
}

// rerateStream is nnz entries over an m x n matrix with few columns, so
// most pairs are rated several times, in no order.
func rerateStream(r *rand.Rand, m, n, nnz int) []Entry {
	es := make([]Entry, nnz)
	for k := range es {
		v := r.NormFloat64()
		if r.Intn(8) == 0 {
			v = float64(r.Intn(5)) // repeated values: a wrong pick can hide behind an equal one
		}
		es[k] = Entry{Row: int32(r.Intn(m)), Col: int32(r.Intn(n)), Val: v}
	}
	return es
}

func convertBytes(t *testing.T, cv Converter, m, n int, es []Entry) []byte {
	t.Helper()
	out := filepath.Join(t.TempDir(), "d.bcsr")
	if _, err := cv.ConvertEntries(m, n, sliceStream(es), out); err != nil {
		t.Fatal(err)
	}
	b, err := os.ReadFile(out)
	if err != nil {
		t.Fatal(err)
	}
	return b
}

// TestConverterDedupLastMatchesGlobalStableSort: a DedupLast conversion
// writes the bytes of the global stable sort it replaced, for random
// streams with heavy re-rates, shard targets from one entry (every row
// its own panel) to one panel, and a row of 6 000 entries over 2 000
// columns — the long-row path, where the per-row key sort does the work.
func TestConverterDedupLastMatchesGlobalStableSort(t *testing.T) {
	r := rand.New(rand.NewSource(48))
	for trial := 0; trial < 40; trial++ {
		m, n := 1+r.Intn(40), 1+r.Intn(12)
		es := rerateStream(r, m, n, r.Intn(800))
		if trial%8 == 0 {
			n = 2000
			long := rerateStream(r, 1, n, 6000)
			for k := range long {
				long[k].Row = int32(r.Intn(m))
				if k%4 != 0 {
					long[k].Row = 0
				}
			}
			es = append(es, long...)
		}
		if len(es) == 0 {
			continue
		}
		shardNNZ := []int{1, 7, 64, 1 << 20}[r.Intn(4)]
		want := referenceDedupLastBytes(t, m, n, shardNNZ, es)
		got := convertBytes(t, Converter{ShardNNZ: shardNNZ, Dedup: DedupLast}, m, n, es)
		if !bytes.Equal(got, want) {
			t.Fatalf("trial %d (%d x %d, %d entries, shardNNZ %d): DedupLast bytes differ from the global stable sort's", trial, m, n, len(es), shardNNZ)
		}
	}
}

// TestConverterBytesPinned pins a conversion of one fixed re-rated
// stream under each policy to the digest the global-sort converter
// wrote: DedupSum's bytes (what set-up's conversions produce) must not
// move with DedupLast's build, and DedupLast's must not move at all.
func TestConverterBytesPinned(t *testing.T) {
	es := rerateStream(rand.New(rand.NewSource(7)), 30, 9, 700)
	for _, tc := range []struct {
		dedup DedupPolicy
		sha   string
	}{
		{DedupSum, "d9c7499b72bbd838b3dbc918ed21198d69ea60df132cfc43ea3b0f0d98346b06"},
		{DedupLast, "662a9bbfcaa2186a7340adcfc7c8b55c8857c18894b423c79a4ff6dd85383f41"},
	} {
		b := convertBytes(t, Converter{ShardNNZ: 50, Dedup: tc.dedup}, 30, 9, es)
		if got := fmt.Sprintf("%x", sha256.Sum256(b)); got != tc.sha {
			t.Errorf("policy %d: sha256 %s, want %s", tc.dedup, got, tc.sha)
		}
	}
}
