package rank

import (
	"container/heap"
	"fmt"
	"testing"

	"repro/internal/la"
	"repro/internal/rng"
)

// TestScoreBatchIntoMatchesIndependentScoreInto is the batch-core
// acceptance property: scoring B users in one panel-blocked GEMM pass
// must be bit-identical to B independent single-user ScoreInto calls,
// for batch sizes and catalog sizes that straddle every panel boundary.
func TestScoreBatchIntoMatchesIndependentScoreInto(t *testing.T) {
	stream := rng.New(17)
	for _, rows := range []int{1, 63, 64, 65, 128, 500} {
		for _, batch := range []int{1, 2, 3, 4, 5, 9, 16, 64} {
			k := 1 + stream.Intn(48)
			v := la.NewMatrix(rows, k)
			stream.FillNorm(v.Data)
			users := la.NewMatrix(batch, k)
			stream.FillNorm(users.Data)
			out := la.NewMatrix(batch, rows)
			ScoreBatchInto(v, users, out)
			ref := make([]float64, rows)
			for b := 0; b < batch; b++ {
				ScoreInto(v, users.Row(b), ref)
				for j := 0; j < rows; j++ {
					if out.Row(b)[j] != ref[j] {
						t.Fatalf("rows=%d batch=%d: user %d item %d: batched %v != single %v",
							rows, batch, b, j, out.Row(b)[j], ref[j])
					}
				}
			}
		}
	}
}

func TestScoreBatchIntoAllocsNothing(t *testing.T) {
	v := la.NewMatrix(200, 16)
	users := la.NewMatrix(8, 16)
	out := la.NewMatrix(8, 200)
	stream := rng.New(3)
	stream.FillNorm(v.Data)
	stream.FillNorm(users.Data)
	if n := testing.AllocsPerRun(10, func() { ScoreBatchInto(v, users, out) }); n != 0 {
		t.Fatalf("ScoreBatchInto allocates %v times per run, want 0", n)
	}
}

func TestScoreBatchIntoDimensionMismatchPanics(t *testing.T) {
	cases := []func(){
		// users width != v width
		func() { ScoreBatchInto(la.NewMatrix(4, 3), la.NewMatrix(2, 2), la.NewMatrix(2, 4)) },
		// out rows != batch rows
		func() { ScoreBatchInto(la.NewMatrix(4, 3), la.NewMatrix(2, 3), la.NewMatrix(3, 4)) },
		// out cols != catalog rows
		func() { ScoreBatchInto(la.NewMatrix(4, 3), la.NewMatrix(2, 3), la.NewMatrix(2, 5)) },
	}
	for i, fn := range cases {
		func() {
			defer func() {
				if recover() == nil {
					t.Fatalf("case %d: expected dimension-mismatch panic", i)
				}
			}()
			fn()
		}()
	}
}

// heapRef is the reference top-N: container/heap over the item type,
// exactly the accumulator TopN's typed sift loops replaced.
type heapRef []Item

func (h heapRef) Len() int           { return len(h) }
func (h heapRef) Less(i, j int) bool { return h[i].Score < h[j].Score }
func (h heapRef) Swap(i, j int)      { h[i], h[j] = h[j], h[i] }
func (h *heapRef) Push(x any)        { *h = append(*h, x.(Item)) }
func (h *heapRef) Pop() any {
	old := *h
	x := old[len(old)-1]
	*h = old[:len(old)-1]
	return x
}

// recommendRef ranks one user the slow way: la.Dot per item, offered in
// ascending index order past the exclusions into the container/heap
// reference.
func recommendRef(v *la.Matrix, u la.Vector, excl []int32, n int) []Item {
	skip := map[int]bool{}
	for _, e := range excl {
		skip[int(e)] = true
	}
	n = min(n, v.Rows)
	var h heapRef
	for j := 0; j < v.Rows; j++ {
		if skip[j] || n <= 0 {
			continue
		}
		if s := la.Dot(v.Row(j), u); len(h) < n {
			heap.Push(&h, Item{Index: j, Score: s})
		} else if s > h[0].Score {
			h[0] = Item{Index: j, Score: s}
			heap.Fix(&h, 0)
		}
	}
	var out []Item
	for len(h) > 0 {
		out = append([]Item{heap.Pop(&h).(Item)}, out...)
	}
	return out
}

// exclusionCases are the exclusion-list shapes of the kernel table.
var exclusionCases = []struct {
	name string
	list func(items int) []int32
}{
	{"none", func(int) []int32 { return nil }},
	{"all", func(items int) []int32 {
		l := make([]int32, items)
		for i := range l {
			l[i] = int32(i)
		}
		return l
	}},
	{"odd", func(items int) []int32 {
		var l []int32
		for i := 1; i < items; i += 2 {
			l = append(l, int32(i))
		}
		return l
	}},
	{"panel-edges", func(items int) []int32 {
		var l []int32
		for _, i := range []int{0, scorePanel - 1, scorePanel, 2*scorePanel - 1, items - 1} {
			if i < items && (len(l) == 0 || int(l[len(l)-1]) < i) {
				l = append(l, int32(i))
			}
		}
		return l
	}},
}

// TestRecommendBitIdenticalToDotAndHeap is the fused core's acceptance
// table: for batch sizes from one to nine, latent widths on both sides
// of la.Dot's four-wide unroll, catalogs that are not a multiple of the
// panel, every exclusion shape, n from 0 to beyond the catalog, and
// factors on a coarse grid (so scores tie often), every query's list
// equals la.Dot scoring plus container/heap selection for that user
// alone — item for item, bit for bit — and equals TopNScoresExcluding
// over the same scores.
func TestRecommendBitIdenticalToDotAndHeap(t *testing.T) {
	stream := rng.New(71)
	for _, items := range []int{1, 63, 65, 130} {
		for _, k := range []int{1, 3, 4, 31, 32, 33} {
			v := la.NewMatrix(items, k)
			for i := range v.Data {
				v.Data[i] = float64(stream.Intn(5) - 2)
			}
			for _, batch := range []int{1, 2, 3, 4, 5, 8, 9} {
				qs := make([]Query, batch)
				for b := range qs {
					u := la.NewVector(k)
					if b%2 == 0 {
						stream.FillNorm(u)
					} else {
						for i := range u {
							u[i] = float64(stream.Intn(3) - 1)
						}
					}
					ec := exclusionCases[(b+k)%len(exclusionCases)]
					qs[b] = Query{U: u, Excl: ec.list(items), N: []int{0, 1, 10, items + 7}[(b+items)%4]}
				}
				Recommend(v, qs)
				scores := make([]float64, items)
				for b, q := range qs {
					label := fmt.Sprintf("items=%d k=%d batch=%d user=%d n=%d", items, k, batch, b, q.N)
					for j := range scores {
						scores[j] = la.Dot(v.Row(j), q.U)
					}
					sameList(t, label+" vs dot+heap", q.Items, recommendRef(v, q.U, q.Excl, q.N))
					sameList(t, label+" vs TopNScoresExcluding", q.Items, TopNScoresExcluding(scores, q.Excl, q.N))
				}
			}
		}
	}
}

func sameList(t *testing.T, label string, got, want []Item) {
	t.Helper()
	if len(got) != len(want) {
		t.Fatalf("%s: %d items, want %d", label, len(got), len(want))
	}
	for i := range want {
		if got[i] != want[i] {
			t.Fatalf("%s: rank %d: %+v != %+v", label, i, got[i], want[i])
		}
	}
}

// TestRecommendReusesQueries: a query slice ranked twice carries nothing
// over from the first pass.
func TestRecommendReusesQueries(t *testing.T) {
	stream := rng.New(73)
	v := la.NewMatrix(150, 8)
	stream.FillNorm(v.Data)
	qs := make([]Query, 5)
	for b := range qs {
		qs[b] = Query{U: la.NewVector(8), Excl: []int32{3, 70, 149}, N: 7}
		stream.FillNorm(qs[b].U)
	}
	Recommend(v, qs)
	first := make([][]Item, len(qs))
	for b := range qs {
		first[b] = qs[b].Items
	}
	Recommend(v, qs)
	for b := range qs {
		sameList(t, fmt.Sprintf("user %d second pass", b), qs[b].Items, first[b])
	}
}

// TestRecommendAllocatesOnlyResultLists pins the scoring pass at zero
// allocations beyond one list per query that keeps anything.
func TestRecommendAllocatesOnlyResultLists(t *testing.T) {
	stream := rng.New(3)
	v := la.NewMatrix(200, 16)
	stream.FillNorm(v.Data)
	qs := make([]Query, 9)
	for b := range qs {
		qs[b] = Query{U: la.NewVector(16), Excl: []int32{5, 64}, N: 10}
		stream.FillNorm(qs[b].U)
	}
	qs[8].N = 0 // keeps nothing, allocates nothing
	if n := testing.AllocsPerRun(10, func() { Recommend(v, qs) }); n != 8 {
		t.Fatalf("Recommend allocates %v times per run, want the 8 result lists", n)
	}
}

func TestRecommendDimensionMismatchPanics(t *testing.T) {
	defer func() {
		if recover() == nil {
			t.Fatal("expected panic on a factor row of the wrong width")
		}
	}()
	Recommend(la.NewMatrix(4, 3), []Query{{U: la.NewVector(2), N: 1}})
}

// BenchmarkRecommendFused times the fused pass over a serving-sized
// catalog (50 000 items, K = 32: V is larger than L2) for one request
// and for flushes of four and eight.
func BenchmarkRecommendFused(b *testing.B) {
	stream := rng.New(7)
	v := la.NewMatrix(50000, 32)
	stream.FillNorm(v.Data)
	for _, batch := range []int{1, 4, 8} {
		qs := make([]Query, batch)
		for i := range qs {
			qs[i] = Query{U: la.NewVector(32), Excl: []int32{10, 20000, 49999}, N: 10}
			stream.FillNorm(qs[i].U)
		}
		b.Run(fmt.Sprintf("B=%d", batch), func(b *testing.B) {
			b.ReportAllocs()
			for b.Loop() {
				Recommend(v, qs)
			}
			b.ReportMetric(float64(b.Elapsed().Nanoseconds())/float64(b.N)/float64(batch*v.Rows), "ns/user·item")
		})
	}
}
