package bpmf

import (
	"math"
	"sort"
	"sync"
	"testing"

	"repro/internal/core"
	"repro/internal/la"
	"repro/internal/rank"
	"repro/internal/rng"
)

// cloneCoreResult deep-copies the factor matrices of a result.
func cloneCoreResult(r *Result) *core.Result {
	c := *r.res
	c.U = r.res.U.Clone()
	c.V = r.res.V.Clone()
	return &c
}

func TestRecommendExcludesSeenAndSorts(t *testing.T) {
	m, n, ratings := syntheticRatings(t, 80)
	data, err := DataFromRatings(m, n, ratings, 0.2, 7)
	if err != nil {
		t.Fatal(err)
	}
	res, err := Train(data, quickConfig(WorkSteal))
	if err != nil {
		t.Fatal(err)
	}
	user := 0
	top := res.Recommend(user, 10)
	if len(top) != 10 {
		t.Fatalf("got %d recommendations", len(top))
	}
	if !sort.SliceIsSorted(top, func(a, b int) bool { return top[a].Score > top[b].Score }) {
		t.Fatal("recommendations not sorted by score")
	}
	seen := map[int]bool{}
	for _, r := range ratings {
		if r.User == user {
			seen[r.Item] = true
		}
	}
	// The test split moves some ratings out of training, so check against
	// the training matrix via prediction consistency: no training item of
	// this user may appear.
	cols, _ := data.prob.R.Row(user)
	trainSeen := map[int]bool{}
	for _, c := range cols {
		trainSeen[int(c)] = true
	}
	for _, s := range top {
		if trainSeen[s.Item] {
			t.Fatalf("recommended already-rated item %d", s.Item)
		}
		if p := res.Predict(user, s.Item); p != s.Score {
			t.Fatalf("score %v != Predict %v", s.Score, p)
		}
	}
}

// TestRecommendTopNMatchesFullSort pins Recommend, for every user of a
// 180-item catalog (two full 64-row scoring panels and a partial one), to
// the reference ranking: rank.TopNScoresExcluding over la.Dot scores, the
// stable full sort of rank's brute-force test. Items and scores must be
// equal, which also pins the order of ties.
func TestRecommendTopNMatchesFullSort(t *testing.T) {
	m, n, ratings := syntheticRatings(t, 81)
	data, err := DataFromRatings(m, n, ratings, 0, 7)
	if err != nil {
		t.Fatal(err)
	}
	cfg := quickConfig(Sequential)
	res, err := Train(data, cfg)
	if err != nil {
		t.Fatal(err)
	}
	u, v := res.res.U, res.res.V
	scores := make([]float64, v.Rows)
	for user := 0; user < u.Rows; user++ {
		for j := range scores {
			scores[j] = la.Dot(u.Row(user), v.Row(j))
		}
		excl, _ := data.prob.R.Row(user)
		for _, top := range []int{1, 10, n} {
			got := res.Recommend(user, top)
			want := rank.TopNScoresExcluding(scores, excl, top)
			if len(got) != len(want) {
				t.Fatalf("user %d n=%d: %d items, reference %d", user, top, len(got), len(want))
			}
			for i := range want {
				if got[i].Item != want[i].Index || math.Float64bits(got[i].Score) != math.Float64bits(want[i].Score) {
					t.Fatalf("user %d n=%d rank %d: %v, reference %v", user, top, i, got[i], want[i])
				}
			}
		}
	}
}

// TestRecommendConcurrentOnOneResult: goroutines that rank on one fresh
// Result at once race to build its catalog, and every list equals the
// reference. Train itself builds no catalog. Run under -race.
func TestRecommendConcurrentOnOneResult(t *testing.T) {
	m, n, ratings := syntheticRatings(t, 85)
	data, err := DataFromRatings(m, n, ratings, 0.2, 7)
	if err != nil {
		t.Fatal(err)
	}
	res, err := Train(data, quickConfig(Sequential))
	if err != nil {
		t.Fatal(err)
	}
	if res.cat != nil {
		t.Fatal("Train built the ranking catalog")
	}
	u, v := res.res.U, res.res.V
	const workers = 8
	got := make([][][]Scored, workers)
	start := make(chan struct{})
	var wg sync.WaitGroup
	for w := range got {
		wg.Add(1)
		go func() {
			defer wg.Done()
			<-start
			for user := w; user < u.Rows; user += workers {
				got[w] = append(got[w], res.Recommend(user, 10))
			}
		}()
	}
	close(start)
	wg.Wait()
	scores := make([]float64, v.Rows)
	for w := range got {
		for i, list := range got[w] {
			user := w + i*workers
			for j := range scores {
				scores[j] = la.Dot(u.Row(user), v.Row(j))
			}
			excl, _ := data.prob.R.Row(user)
			want := rank.TopNScoresExcluding(scores, excl, 10)
			if len(list) != len(want) {
				t.Fatalf("user %d: %d items, reference %d", user, len(list), len(want))
			}
			for r := range want {
				if list[r].Item != want[r].Index || math.Float64bits(list[r].Score) != math.Float64bits(want[r].Score) {
					t.Fatalf("user %d rank %d: %v, reference %v", user, r, list[r], want[r])
				}
			}
		}
	}
}

func TestRecommendEdgeCases(t *testing.T) {
	m, n, ratings := syntheticRatings(t, 82)
	data, _ := DataFromRatings(m, n, ratings, 0, 7)
	res, err := Train(data, quickConfig(Sequential))
	if err != nil {
		t.Fatal(err)
	}
	if res.Recommend(0, 0) != nil {
		t.Fatal("n=0 must return nil")
	}
	huge := res.Recommend(0, n*10) // more than available items
	if len(huge) >= n {
		t.Fatalf("cannot recommend %d items from %d minus seen", len(huge), n)
	}
}

func TestEvaluateRankingBeatsRandom(t *testing.T) {
	m, n, ratings := syntheticRatings(t, 83)
	data, err := DataFromRatings(m, n, ratings, 0.25, 7)
	if err != nil {
		t.Fatal(err)
	}
	cfg := quickConfig(WorkSteal)
	cfg.Iters = 12
	cfg.Burnin = 6
	res, err := Train(data, cfg)
	if err != nil {
		t.Fatal(err)
	}
	// Relevance = top quartile of the rating scale on this synthetic data.
	var vals []float64
	for _, r := range ratings {
		vals = append(vals, r.Value)
	}
	sort.Float64s(vals)
	thr := vals[len(vals)*3/4]

	rep := res.EvaluateRanking(10, thr)
	if rep.Users == 0 {
		t.Fatal("no users evaluated")
	}
	if rep.NDCGAtK < 0 || rep.NDCGAtK > 1 || rep.PrecisionAtK < 0 || rep.PrecisionAtK > 1 {
		t.Fatalf("metrics out of range: %+v", rep)
	}

	// Random-factor baseline must do notably worse on recall@10.
	rndRes := cloneResultWithRandomFactors(res)
	baseline := rndRes.EvaluateRanking(10, thr)
	if !(rep.RecallAtK > baseline.RecallAtK+0.02) {
		t.Fatalf("model recall@10 %.3f not better than random %.3f",
			rep.RecallAtK, baseline.RecallAtK)
	}
}

// cloneResultWithRandomFactors replaces the factors with noise, keeping
// the data reference (a null-model baseline).
func cloneResultWithRandomFactors(r *Result) *Result {
	clone := &Result{res: cloneCoreResult(r), data: r.data}
	stream := rng.New(999)
	stream.FillNorm(clone.res.U.Data)
	stream.FillNorm(clone.res.V.Data)
	return clone
}

func TestEvaluateRankingNoRelevant(t *testing.T) {
	m, n, ratings := syntheticRatings(t, 84)
	data, _ := DataFromRatings(m, n, ratings, 0.2, 7)
	res, err := Train(data, quickConfig(Sequential))
	if err != nil {
		t.Fatal(err)
	}
	rep := res.EvaluateRanking(10, math.Inf(1)) // nothing is relevant
	if rep.Users != 0 || rep.NDCGAtK != 0 {
		t.Fatalf("expected empty report, got %+v", rep)
	}
	if (&Result{res: res.res}).EvaluateRanking(10, 0).Users != 0 {
		t.Fatal("nil data must give empty report")
	}
}
