package sparse

import (
	"fmt"
	"math"
	"math/rand"
	"runtime"
	"slices"
	"strings"
	"testing"
)

// csrOf builds a CSR from (row, col, val) triples via the canonical COO
// path.
func csrOf(m, n int, triples ...[3]float64) *CSR {
	c := NewCOO(m, n, len(triples))
	for _, t := range triples {
		c.Add(int(t[0]), int(t[1]), t[2])
	}
	return c.ToCSR()
}

func TestMergeLastWinsOverlay(t *testing.T) {
	base := csrOf(3, 4,
		[3]float64{0, 0, 1}, [3]float64{0, 2, 2},
		[3]float64{1, 1, 3},
		[3]float64{2, 3, 4})
	delta := csrOf(5, 4,
		[3]float64{0, 2, 9}, // re-rates (0,2): must replace 2, not sum to 11
		[3]float64{1, 0, 5}, // new pair in an existing row
		[3]float64{4, 1, 7}) // new user past base.M; row 3 stays empty

	got, err := MergeLastWins(base, delta)
	if err != nil {
		t.Fatal(err)
	}
	want := csrOf(5, 4,
		[3]float64{0, 0, 1}, [3]float64{0, 2, 9},
		[3]float64{1, 0, 5}, [3]float64{1, 1, 3},
		[3]float64{2, 3, 4},
		[3]float64{4, 1, 7})
	if !Equal(want, got) {
		t.Fatalf("merged matrix differs from expected overlay")
	}
	// The base must be untouched and unaliased.
	if v := base.Val[1]; v != 2 {
		t.Fatalf("base mutated: (0,2) now %g", v)
	}
	got.Val[0] = 99
	if base.Val[0] != 1 {
		t.Fatal("merge result aliases base storage")
	}
}

func TestMergeLastWinsLaterDeltaWins(t *testing.T) {
	base := csrOf(2, 2, [3]float64{0, 0, 1})
	d1 := csrOf(2, 2, [3]float64{0, 0, 2}, [3]float64{1, 1, 8})
	d2 := csrOf(2, 2, [3]float64{0, 0, 3})

	got, err := MergeLastWins(base, d1, d2)
	if err != nil {
		t.Fatal(err)
	}
	want := csrOf(2, 2, [3]float64{0, 0, 3}, [3]float64{1, 1, 8})
	if !Equal(want, got) {
		t.Fatalf("latest delta must win: got (0,0)=%g", got.Val[0])
	}
}

// TestMergeLastWinsIncremental pins the associativity the continuous
// trainer relies on: folding deltas in one cycle at a time equals
// merging them all at once.
func TestMergeLastWinsIncremental(t *testing.T) {
	r := rand.New(rand.NewSource(7))
	base := randomCSR(r, 12, 120)
	var deltas []*CSR
	for d := 0; d < 4; d++ {
		c := NewCOO(12+2*d, base.N, 30)
		for k := 0; k < 30; k++ {
			c.Add(r.Intn(c.M), r.Intn(c.N), r.NormFloat64())
		}
		deltas = append(deltas, c.ToCSR())
	}
	atOnce, err := MergeLastWins(base, deltas...)
	if err != nil {
		t.Fatal(err)
	}
	stepwise := base
	for _, d := range deltas {
		if stepwise, err = MergeLastWins(stepwise, d); err != nil {
			t.Fatal(err)
		}
	}
	if !Equal(atOnce, stepwise) {
		t.Fatal("incremental merge differs from all-at-once merge")
	}
}

func TestMergeLastWinsRejects(t *testing.T) {
	base := csrOf(2, 3, [3]float64{0, 0, 1})
	if _, err := MergeLastWins(nil, base); err == nil {
		t.Fatal("nil base accepted")
	}
	if _, err := MergeLastWins(base, nil); err == nil {
		t.Fatal("nil delta accepted")
	}
	wide := csrOf(2, 4, [3]float64{0, 0, 1})
	_, err := MergeLastWins(base, wide)
	if err == nil || !strings.Contains(err.Error(), "columns") {
		t.Fatalf("column mismatch not rejected: %v", err)
	}
}

func TestMergeLastWinsNoDeltasCopies(t *testing.T) {
	base := csrOf(2, 2, [3]float64{1, 1, 5})
	got, err := MergeLastWins(base)
	if err != nil {
		t.Fatal(err)
	}
	if !Equal(base, got) {
		t.Fatal("zero-delta merge changed the matrix")
	}
	got.Val[0] = -1
	if base.Val[0] != 5 {
		t.Fatal("zero-delta merge aliases base storage")
	}
}

// overlayPairwise is the reference merge of one base and one delta: row
// by row, where both hold a (row, col) pair, b (the newer) wins. Folding
// it over the deltas one at a time is the merge MergeLastWins does in
// one pass.
func overlayPairwise(a, b *CSR) *CSR {
	m := max(a.M, b.M)
	out := &CSR{M: m, N: a.N, RowPtr: make([]int64, m+1)}
	for i := 0; i < m; i++ {
		var ac, bc []int32
		var av, bv []float64
		if i < a.M {
			ac, av = a.Row(i)
		}
		if i < b.M {
			bc, bv = b.Row(i)
		}
		p, q := 0, 0
		for p < len(ac) || q < len(bc) {
			switch {
			case q == len(bc) || (p < len(ac) && ac[p] < bc[q]):
				out.Col, out.Val = append(out.Col, ac[p]), append(out.Val, av[p])
				p++
			case p == len(ac) || bc[q] < ac[p]:
				out.Col, out.Val = append(out.Col, bc[q]), append(out.Val, bv[q])
				q++
			default:
				out.Col, out.Val = append(out.Col, bc[q]), append(out.Val, bv[q])
				p++
				q++
			}
		}
		out.RowPtr[i+1] = int64(len(out.Col))
	}
	return out
}

// randomDelta is an m x n matrix (m may be 0) with up to m·n/2 random
// entries over few columns, so rows of several deltas collide.
func randomDelta(r *rand.Rand, m, n int) *CSR {
	c := NewCOO(m, n, 0)
	if m > 0 {
		for k := r.Intn(m*n/2 + 1); k > 0; k-- {
			c.Add(r.Intn(m), r.Intn(n), r.NormFloat64())
		}
	}
	return c.ToCSR()
}

// wideDelta is an m x n matrix with nnz random entries; when wide > 0
// its row 0 also holds wide random columns — one row far wider than the
// rest.
func wideDelta(r *rand.Rand, m, n, nnz, wide int) *CSR {
	c := NewCOO(m, n, nnz+wide)
	for k := 0; k < nnz; k++ {
		c.Add(r.Intn(m), r.Intn(n), r.NormFloat64())
	}
	for k := 0; k < wide; k++ {
		c.Add(0, r.Intn(n), r.NormFloat64())
	}
	return c.ToCSR()
}

// TestMergeLastWinsMatchesPairwise: the one-pass merge equals the
// pairwise overlay folded over the deltas oldest first. Narrow
// catalogues (1–9 columns, so rows of several deltas collide) take k =
// 0…7, 21 and 64 deltas shorter than, as tall as and taller than the
// base, empty ones (no rows, or rows without entries) and an empty base
// among them. A 2 000-column catalogue takes rows with few entries —
// whose bit words outnumber their entries, so they are sorted — and
// deltas whose row 0 holds some 1 500 columns, read back from the bits.
// Base rows of ~140 entries under deltas of one or two entries a row,
// half of them re-rating a base cell, take the path that copies the
// base's runs between delta columns.
func TestMergeLastWinsMatchesPairwise(t *testing.T) {
	r := rand.New(rand.NewSource(47))
	seen := map[string]bool{}
	check := func(trial int, base *CSR, deltas []*CSR) {
		t.Helper()
		want := overlayPairwise(base, NewCOO(0, base.N, 0).ToCSR())
		for _, d := range deltas {
			want = overlayPairwise(want, d)
		}
		got, err := MergeLastWins(base, deltas...)
		if err != nil {
			t.Fatal(err)
		}
		if !Equal(got, want) {
			t.Fatalf("trial %d (%d x %d base, %d deltas): one-pass merge differs from the pairwise fold", trial, base.M, base.N, len(deltas))
		}
	}
	for trial := 0; trial < 460; trial++ {
		m, n := r.Intn(12), 1+r.Intn(9)
		base := randomDelta(r, m, n)
		k := r.Intn(8)
		if trial >= 400 {
			k = []int{21, 64}[trial%2]
		}
		deltas := make([]*CSR, k)
		for i := range deltas {
			deltas[i] = randomDelta(r, r.Intn(m+5), n)
			if r.Intn(6) == 0 {
				deltas[i] = NewCOO(r.Intn(m+5), n, 0).ToCSR()
			}
			seen["taller"] = seen["taller"] || deltas[i].M > m
			seen["empty"] = seen["empty"] || deltas[i].NNZ() == 0
		}
		seen[fmt.Sprint("k=", len(deltas))] = true
		check(trial, base, deltas)
	}
	for trial := 0; trial < 20; trial++ {
		const n = 2000
		m := 1 + r.Intn(30)
		base := wideDelta(r, m, n, r.Intn(20*m), 0)
		deltas := make([]*CSR, 2+r.Intn(20))
		for i := range deltas {
			wide := 0
			if r.Intn(3) == 0 {
				wide = 1500
			}
			deltas[i] = wideDelta(r, 1+r.Intn(m+5), n, r.Intn(3*m), wide)
		}
		check(trial, base, deltas)
	}
	for trial := 0; trial < 20; trial++ {
		const n = 400
		m := 1 + r.Intn(10)
		base := wideDelta(r, m, n, 150*m, 0)
		deltas := make([]*CSR, 1+r.Intn(3))
		for i := range deltas {
			c := NewCOO(m+r.Intn(3), n, 0)
			for row := 0; row < m; row++ {
				if cols, _ := base.Row(row); len(cols) > 0 && r.Intn(2) == 0 {
					c.Add(row, int(cols[r.Intn(len(cols))]), r.NormFloat64()) // re-rates a base cell
				}
				if r.Intn(2) == 0 {
					c.Add(row, r.Intn(n), r.NormFloat64())
				}
			}
			deltas[i] = c.ToCSR()
		}
		check(trial, base, deltas)
	}
	for _, c := range []string{"taller", "empty", "k=0", "k=1", "k=7", "k=21", "k=64"} {
		if !seen[c] {
			t.Errorf("no trial covered %s", c)
		}
	}
}

// TestMergeLastWinsAllocsFlatInDeltas: the merge allocates the result and
// its scratch once, so the count does not grow with the number of deltas,
// even where every row collects entries from every delta.
func TestMergeLastWinsAllocsFlatInDeltas(t *testing.T) {
	r := rand.New(rand.NewSource(5))
	base := randomDelta(r, 40, 30)
	allocs := map[int]float64{}
	for _, k := range []int{0, 1, 2, 8, 32} {
		deltas := make([]*CSR, k)
		for i := range deltas {
			deltas[i] = randomDelta(r, 45, 30)
		}
		allocs[k] = testing.AllocsPerRun(20, func() {
			if _, err := MergeLastWins(base, deltas...); err != nil {
				t.Fatal(err)
			}
		})
	}
	for _, k := range []int{0, 1, 8, 32} {
		if allocs[k] > allocs[2] {
			t.Errorf("%d deltas: %v allocations, 2 deltas: %v", k, allocs[k], allocs[2])
		}
	}
	if allocs[32] != allocs[2] {
		t.Errorf("allocations grow with the delta count: %v", allocs)
	}
	t.Logf("allocations by delta count: %v", allocs)
}

// refreshShaped is a base the shape of refresh-loop's last round (3 882
// users x 681 items, ~490k ratings) and k delta shards of 10 000 entries
// each as a round appends them: a fifth re-rate base cells, twenty belong
// to users past the base, the rest fall anywhere.
func refreshShaped(k int) (*CSR, []*CSR) {
	r := rand.New(rand.NewSource(23))
	const m, n = 3882, 681
	bc := NewCOO(m, n, 500_000)
	for e := 0; e < 500_000; e++ {
		bc.Add(r.Intn(m), r.Intn(n), float64(1+r.Intn(5)))
	}
	base := bc.ToCSR()
	deltas := make([]*CSR, k)
	for d := range deltas {
		rows := m + 20*(d+1)
		c := NewCOO(rows, n, 10_000)
		for e := 0; e < 10_000; e++ {
			switch {
			case e < 20:
				c.Add(rows-20+e, r.Intn(n), 3)
			case e < 2_000:
				u := r.Intn(m)
				cols, _ := base.Row(u)
				c.Add(u, int(cols[r.Intn(len(cols))]), float64(1+r.Intn(5)))
			default:
				c.Add(r.Intn(rows), r.Intn(n), float64(1+r.Intn(5)))
			}
		}
		deltas[d] = c.ToCSR()
	}
	return base, deltas
}

// BenchmarkMergeLastWins times one merge of a refresh-shaped base with 1,
// 10 and 21 delta shards — the trainer's first cycle at those shard
// counts.
func BenchmarkMergeLastWins(b *testing.B) {
	for _, k := range []int{1, 10, 21} {
		base, deltas := refreshShaped(k)
		b.Run(fmt.Sprint("k=", k), func(b *testing.B) {
			for b.Loop() {
				if _, err := MergeLastWins(base, deltas...); err != nil {
					b.Fatal(err)
				}
			}
		})
	}
}

// sameBits reports whether a and b are the same matrix byte for byte:
// dimensions, RowPtr, Col and the bits of Val.
func sameBits(a, b *CSR) bool {
	if a.M != b.M || a.N != b.N || !slices.Equal(a.RowPtr, b.RowPtr) || !slices.Equal(a.Col, b.Col) || len(a.Val) != len(b.Val) {
		return false
	}
	for k, v := range a.Val {
		if math.Float64bits(v) != math.Float64bits(b.Val[k]) {
			return false
		}
	}
	return true
}

// randomRows is an m x n matrix of about nnz random entries in rows
// [0, m), of which share land in row hot (share 0: none singled out).
func randomRows(r *rand.Rand, m, n, nnz, hot int, share float64) *CSR {
	c := NewCOO(m, n, nnz)
	for k := 0; k < nnz && m > 0; k++ {
		row := r.Intn(m)
		if r.Float64() < share {
			row = hot
		}
		c.Add(row, r.Intn(n), float64(1+r.Intn(5))+r.Float64())
	}
	return c.ToCSR()
}

// TestTwoRangesMatchSerial: MergeLastWins and Transpose on two row ranges
// write the serial result byte for byte, at GOMAXPROCS 1 (serial), 2 and
// 4. The inputs are above the two-range cutoff: k = 0, 1, 2 and 21 deltas
// taller than the base; one row holding most of the entries; bases of 0
// and 1 rows; a 50 000-column catalogue whose multi-delta rows take the
// sort path.
func TestTwoRangesMatchSerial(t *testing.T) {
	defer runtime.GOMAXPROCS(runtime.GOMAXPROCS(0))
	r := rand.New(rand.NewSource(83))
	type tc struct {
		name   string
		base   *CSR
		deltas []*CSR
	}
	var cases []tc
	for _, k := range []int{0, 1, 2, 21} {
		base := randomRows(r, 400, 700, 2*twoRangeMin, 0, 0)
		deltas := make([]*CSR, k)
		for i := range deltas {
			deltas[i] = randomRows(r, 400+5*(i+1), 700, 2*twoRangeMin/min(k, 8), 0, 0)
		}
		cases = append(cases, tc{fmt.Sprint("k=", k), base, deltas})
	}
	// A one-row base is over the cutoff only if the row is wider than it.
	const wide, oneRow = 50_000, 4 * twoRangeMin
	cases = append(cases,
		tc{"one row holds most entries", randomRows(r, 300, wide, 2*twoRangeMin, 137, 0.8),
			[]*CSR{randomRows(r, 310, wide, 2*twoRangeMin, 137, 0.8), randomRows(r, 300, wide, 500, 0, 0)}},
		tc{"m=0", NewCOO(0, 40, 0).ToCSR(), []*CSR{NewCOO(0, 40, 0).ToCSR(), NewCOO(0, 40, 0).ToCSR()}},
		tc{"m=1", randomRows(r, 1, oneRow, 2*twoRangeMin, 0, 0),
			[]*CSR{randomRows(r, 1, oneRow, twoRangeMin, 0, 0), randomRows(r, 1, oneRow, twoRangeMin, 0, 0)}},
		tc{"m=1 under taller deltas", randomRows(r, 1, oneRow, 2*twoRangeMin, 0, 0),
			[]*CSR{randomRows(r, 3, oneRow, 2*twoRangeMin, 0, 0)}},
		tc{"50 000 columns", randomRows(r, 3000, wide, 2*twoRangeMin, 0, 0),
			[]*CSR{randomRows(r, 3000, wide, 12_000, 0, 0), randomRows(r, 3010, wide, 12_000, 0, 0), randomRows(r, 3020, wide, 12_000, 0, 0)}},
	)
	for _, c := range cases {
		var serialMerge, serialT, serialMT *CSR
		for _, procs := range []int{1, 2, 4} {
			runtime.GOMAXPROCS(procs)
			merged, err := MergeLastWins(c.base, c.deltas...)
			if err != nil {
				t.Fatal(err)
			}
			baseT, mergedT := c.base.Transpose(), merged.Transpose()
			if procs == 1 {
				serialMerge, serialT, serialMT = merged, baseT, mergedT
				continue
			}
			if c.base.M > 0 && !twoRanges(c.base.NNZ()) {
				t.Fatalf("%s: %d base entries at GOMAXPROCS %d stay serial", c.name, c.base.NNZ(), procs)
			}
			if !sameBits(merged, serialMerge) {
				t.Errorf("%s: MergeLastWins at GOMAXPROCS %d differs from the serial merge", c.name, procs)
			}
			if !sameBits(baseT, serialT) || !sameBits(mergedT, serialMT) {
				t.Errorf("%s: Transpose at GOMAXPROCS %d differs from the serial transpose", c.name, procs)
			}
		}
	}
}
