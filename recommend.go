package bpmf

import (
	"math"
	"sort"

	"repro/internal/rank"
)

// Scored is one recommendation: an item and its predicted rating.
type Scored struct {
	Item  int
	Score float64
}

// Recommend returns the user's top-n unseen items by predicted rating
// (items the user rated in the training data are excluded — the standard
// recommender-system protocol the paper's introduction describes). It
// returns nil if user is out of range or n <= 0, and fewer than n items
// when the user has fewer than n unrated items. It is one rank.Recommend
// call, the serving layer's: exact integer sums over an int8 copy of the
// catalog skip the items an error bound proves cannot make the list, and
// the rest get their la.Dot score in a bounded min-heap, so the list
// equals rank.TopNScoresExcluding over the la.Dot score of every item —
// same scores, same order of ties. The first call builds the catalog's
// int8 copy (an eighth of V's bytes), once per Result; it is safe for
// concurrent use.
func (r *Result) Recommend(user, n int) []Scored {
	if n <= 0 || user < 0 || user >= r.res.U.Rows {
		return nil
	}
	var excl []int32
	if r.data != nil {
		excl, _ = r.data.prob.R.Row(user)
	}
	items := rank.Recommend(r.catalog(), r.res.U.Row(user), excl, n)
	if len(items) == 0 {
		return nil
	}
	out := make([]Scored, len(items))
	for i, it := range items {
		out[i] = Scored{Item: it.Index, Score: it.Score}
	}
	return out
}

// catalog returns the ranking catalog of the final V, building it on
// first use.
func (r *Result) catalog() *rank.Catalog {
	r.catOnce.Do(func() { r.cat = rank.NewCatalog(r.res.V) })
	return r.cat
}

// RankingReport holds averaged top-k ranking quality over the held-out
// test set.
type RankingReport struct {
	// Users is the number of users with at least one relevant held-out
	// item and at least one recommendable item that entered the average.
	Users int
	// PrecisionAtK / RecallAtK / NDCGAtK are means over those users.
	PrecisionAtK, RecallAtK, NDCGAtK float64
}

// EvaluateRanking scores the model as a top-k recommender against the
// held-out ratings: an item is *relevant* for a user if its held-out
// rating is >= relevanceThreshold. Returns averaged precision@k,
// recall@k and NDCG@k over users with at least one relevant held-out
// item. Users with nothing recommendable (every item rated in training)
// are skipped; for users with fewer than k recommendable items the
// metrics are computed over the list actually recommended, so a short
// catalog does not deflate precision@k or NDCG@k.
func (r *Result) EvaluateRanking(k int, relevanceThreshold float64) RankingReport {
	if r.data == nil || k <= 0 {
		return RankingReport{}
	}
	// Collect each user's relevant held-out items.
	relevant := map[int]map[int]bool{}
	for _, e := range r.data.prob.Test {
		if e.Val >= relevanceThreshold {
			u := int(e.Row)
			if relevant[u] == nil {
				relevant[u] = map[int]bool{}
			}
			relevant[u][int(e.Col)] = true
		}
	}
	users := make([]int, 0, len(relevant))
	for u := range relevant {
		users = append(users, u)
	}
	sort.Ints(users)

	var rep RankingReport
	for _, u := range users {
		rel := relevant[u]
		top := r.Recommend(u, k)
		if len(top) == 0 {
			// Nothing recommendable for this user; precision is undefined.
			continue
		}
		hits := 0
		dcg := 0.0
		for rank, s := range top {
			if rel[s.Item] {
				hits++
				dcg += 1 / math.Log2(float64(rank)+2)
			}
		}
		// The ideal ranker can place at most min(|relevant|, |returned|)
		// hits in the list it was able to produce.
		idealHits := len(rel)
		if idealHits > len(top) {
			idealHits = len(top)
		}
		idcg := 0.0
		for rank := 0; rank < idealHits; rank++ {
			idcg += 1 / math.Log2(float64(rank)+2)
		}
		rep.Users++
		rep.PrecisionAtK += float64(hits) / float64(len(top))
		rep.RecallAtK += float64(hits) / float64(len(rel))
		if idcg > 0 {
			rep.NDCGAtK += dcg / idcg
		}
	}
	if rep.Users > 0 {
		rep.PrecisionAtK /= float64(rep.Users)
		rep.RecallAtK /= float64(rep.Users)
		rep.NDCGAtK /= float64(rep.Users)
	}
	return rep
}
