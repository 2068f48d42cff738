package rank

import (
	"math"
	"sort"
	"testing"

	"repro/internal/rng"
)

// bruteTopN is the reference: filter exclusions, stable-sort by
// descending score, take n.
func bruteTopN(scores []float64, excl []int32, n int) []Item {
	skip := map[int]bool{}
	for _, e := range excl {
		skip[int(e)] = true
	}
	var all []Item
	for i, s := range scores {
		if !skip[i] {
			all = append(all, Item{Index: i, Score: s})
		}
	}
	sort.SliceStable(all, func(a, b int) bool { return all[a].Score > all[b].Score })
	if len(all) > n {
		all = all[:n]
	}
	return all
}

func TestTopNScoresExcludingMatchesBruteForce(t *testing.T) {
	stream := rng.New(11)
	for trial := 0; trial < 50; trial++ {
		m := 1 + stream.Intn(400)
		scores := make([]float64, m)
		for i := range scores {
			// Coarse grid so score ties occur regularly.
			scores[i] = float64(stream.Intn(7))
		}
		var excl []int32
		for i := 0; i < m; i++ {
			if stream.Float64() < 0.3 {
				excl = append(excl, int32(i))
			}
		}
		n := stream.Intn(m + 5)
		got := TopNScoresExcluding(scores, excl, n)
		want := bruteTopN(scores, excl, n)
		if len(got) != len(want) {
			t.Fatalf("trial %d: got %d items, want %d", trial, len(got), len(want))
		}
		for i := range got {
			if got[i].Score != want[i].Score {
				t.Fatalf("trial %d rank %d: score %v != %v", trial, i, got[i].Score, want[i].Score)
			}
			if excludedIn(excl, got[i].Index) {
				t.Fatalf("trial %d: excluded index %d returned", trial, got[i].Index)
			}
		}
		if !sort.SliceIsSorted(got, func(a, b int) bool { return got[a].Score > got[b].Score }) {
			t.Fatalf("trial %d: output not sorted descending", trial)
		}
	}
}

func excludedIn(excl []int32, idx int) bool {
	for _, e := range excl {
		if int(e) == idx {
			return true
		}
	}
	return false
}

func TestTopNHugeNDoesNotAllocateOrPanic(t *testing.T) {
	// n is request-controlled: math.MaxInt must neither panic
	// (makeslice: cap out of range) nor pre-allocate.
	scores := []float64{3, 1, 2}
	got := TopNScoresExcluding(scores, nil, math.MaxInt)
	if len(got) != 3 || got[0].Index != 0 {
		t.Fatalf("huge n: got %v", got)
	}
	got = TopNScoresExcluding(scores, []int32{1}, 1<<40)
	if len(got) != 2 {
		t.Fatalf("huge n with exclusion: got %v", got)
	}
	many := make([]float64, 5000)
	for i := range many {
		many[i] = float64(i)
	}
	if items := TopNScoresExcluding(many, nil, math.MaxInt); len(items) != 5000 || items[0].Index != 4999 {
		t.Fatalf("huge n over a catalog beyond the pre-allocation cap: %d items", len(items))
	}
}

func TestTopNEdgeCases(t *testing.T) {
	if got := TopNScoresExcluding(nil, nil, 5); got != nil {
		t.Fatalf("empty scores must give nil, got %v", got)
	}
	if got := TopNScoresExcluding([]float64{1, 2}, nil, 0); got != nil {
		t.Fatalf("n=0 must give nil, got %v", got)
	}
	if got := TopNScoresExcluding([]float64{1, 2}, []int32{0, 1}, 3); got != nil {
		t.Fatalf("everything excluded must give nil, got %v", got)
	}
	got := TopNScoresExcluding([]float64{3, 1, 2}, nil, 10)
	if len(got) != 3 || got[0].Index != 0 || got[1].Index != 2 || got[2].Index != 1 {
		t.Fatalf("n beyond catalog: got %v", got)
	}
}
