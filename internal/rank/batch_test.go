package rank

import (
	"container/heap"
	"fmt"
	"math"
	"testing"

	"repro/internal/la"
	"repro/internal/rng"
)

// TestScoreBatchIntoMatchesIndependentScoreInto is the batch-core
// acceptance property: scoring B users in one panel-blocked GEMM pass
// must be bit-identical to an independent la.Dot per user and item, for
// batch sizes and catalog sizes that straddle every panel boundary.
func TestScoreBatchIntoMatchesIndependentScoreInto(t *testing.T) {
	stream := rng.New(17)
	for _, rows := range []int{1, 7, 63, 64, 65, 128, 255, 256, 257, 500, 1000} {
		for _, batch := range []int{1, 2, 3, 4, 5, 9, 16, 64} {
			k := 1 + stream.Intn(48)
			v := la.NewMatrix(rows, k)
			stream.FillNorm(v.Data)
			users := la.NewMatrix(batch, k)
			stream.FillNorm(users.Data)
			out := la.NewMatrix(batch, rows)
			ScoreBatchInto(v, users, out)
			for b := 0; b < batch; b++ {
				for j := 0; j < rows; j++ {
					if want := la.Dot(users.Row(b), v.Row(j)); out.Row(b)[j] != want {
						t.Fatalf("rows=%d batch=%d: user %d item %d: batched %v != Dot %v",
							rows, batch, b, j, out.Row(b)[j], want)
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
// table: for latent widths on both sides of la.Dot's four-wide unroll,
// catalogs that are not a multiple of the panel, every exclusion shape, n
// from 0 to beyond the catalog, and factors on a coarse grid (so scores
// tie often), every user's list equals la.Dot scoring plus
// container/heap selection for that user — item for item, bit for bit —
// and equals TopNScoresExcluding over the same scores.
func TestRecommendBitIdenticalToDotAndHeap(t *testing.T) {
	stream := rng.New(71)
	for _, items := range []int{1, 63, 65, 130} {
		for _, k := range []int{1, 3, 4, 31, 32, 33} {
			v := la.NewMatrix(items, k)
			for i := range v.Data {
				v.Data[i] = float64(stream.Intn(5) - 2)
			}
			c := NewCatalog(v)
			scores := make([]float64, items)
			for b := 0; b < 32; b++ {
				u := la.NewVector(k)
				if b%2 == 0 {
					stream.FillNorm(u)
				} else {
					for i := range u {
						u[i] = float64(stream.Intn(3) - 1)
					}
				}
				excl := exclusionCases[(b+k)%len(exclusionCases)].list(items)
				n := []int{0, 1, 10, items + 7}[(b+items)%4]
				label := fmt.Sprintf("items=%d k=%d user=%d n=%d", items, k, b, n)
				for j := range scores {
					scores[j] = la.Dot(v.Row(j), u)
				}
				got := Recommend(c, u, excl, n)
				sameList(t, label+" vs dot+heap", got, recommendRef(v, u, excl, n))
				sameList(t, label+" vs TopNScoresExcluding", got, TopNScoresExcluding(scores, excl, n))
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

// TestScoresIgnoreStaleOutput: a score is la.Dot's whatever the scratch or
// output slot held before. Recommend reuses one 64-slot scratch across
// panels, so item 3's +Inf sits in slot 3 when item 67 is scored there;
// ScoreBatchInto writes into a caller's buffer, here full of NaN.
func TestScoresIgnoreStaleOutput(t *testing.T) {
	const items, k = 130, 4
	stream := rng.New(79)
	v := la.NewMatrix(items, k)
	stream.FillNorm(v.Data)
	copy(v.Row(3), []float64{math.Inf(1), 0, 0, 0})
	copy(v.Row(67), []float64{2, 0, 0, 0})
	u := la.Vector{1, 0, 0, 0}

	got := Recommend(NewCatalog(v), u, nil, items)
	scores := make([]float64, items)
	for j := range scores {
		scores[j] = la.Dot(v.Row(j), u)
	}
	sameList(t, "Recommend vs TopNScoresExcluding", got, TopNScoresExcluding(scores, nil, items))
	for _, it := range got {
		if it.Index == 67 && it.Score != 2 {
			t.Fatalf("item 67 scored %v after item 3's +Inf, want 2", it.Score)
		}
	}

	users := la.NewMatrix(2, k)
	stream.FillNorm(users.Data)
	out := la.NewMatrix(2, items)
	for i := range out.Data {
		out.Data[i] = math.NaN()
	}
	ScoreBatchInto(v, users, out)
	for b := 0; b < users.Rows; b++ {
		for j := 0; j < items; j++ {
			if got, want := out.Row(b)[j], la.Dot(v.Row(j), users.Row(b)); got != want {
				t.Fatalf("user %d item %d: ScoreBatchInto into a NaN buffer gave %v, want %v", b, j, got, want)
			}
		}
	}
}

// TestRecommendAllocatesOnlyResultLists pins a ranking at one
// allocation, the list it returns, and n = 0 at none.
func TestRecommendAllocatesOnlyResultLists(t *testing.T) {
	stream := rng.New(3)
	v := la.NewMatrix(200, 16)
	stream.FillNorm(v.Data)
	u := la.NewVector(16)
	stream.FillNorm(u)
	excl := []int32{5, 64}
	c := NewCatalog(v)
	for _, tc := range []struct{ n, want int }{{10, 1}, {0, 0}} {
		if got := testing.AllocsPerRun(10, func() { Recommend(c, u, excl, tc.n) }); got != float64(tc.want) {
			t.Fatalf("Recommend with n=%d allocates %v times per run, want %d", tc.n, got, tc.want)
		}
	}
}

func TestRecommendDimensionMismatchPanics(t *testing.T) {
	defer func() {
		if recover() == nil {
			t.Fatal("expected panic on a factor row of the wrong width")
		}
	}()
	Recommend(NewCatalog(la.NewMatrix(4, 3)), la.NewVector(2), nil, 1)
}

// BenchmarkRecommendFused times one ranking over a serving-sized catalog
// (50 000 items, K = 32: V is larger than L2).
func BenchmarkRecommendFused(b *testing.B) {
	stream := rng.New(7)
	v := la.NewMatrix(50000, 32)
	stream.FillNorm(v.Data)
	c := NewCatalog(v)
	u := la.NewVector(32)
	stream.FillNorm(u)
	excl := []int32{10, 20000, 49999}
	b.ReportAllocs()
	for b.Loop() {
		Recommend(c, u, excl, 10)
	}
	b.ReportMetric(float64(b.Elapsed().Nanoseconds())/float64(b.N)/float64(v.Rows), "ns/item")
}

// BenchmarkNewCatalog times the catalog build every server start and
// every reload pays, at the serving shape (50 000 items, K = 32).
func BenchmarkNewCatalog(b *testing.B) {
	stream := rng.New(7)
	v := la.NewMatrix(50000, 32)
	stream.FillNorm(v.Data)
	b.ReportAllocs()
	for b.Loop() {
		NewCatalog(v)
	}
}
