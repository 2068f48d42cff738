package rank

import (
	"fmt"
	"math"
	"math/rand"
	"testing"

	"repro/internal/la"
)

// Tests of Recommend's float32 filter. Every list is compared with
// TopNScoresExcluding over la.Dot, the unfiltered heap history, so a
// filter that dropped an item the heap would have taken, or took one out
// of turn, changes the list, its scores or the order of its ties.

// filterKinds are the catalogs and users the filter is tried on, each
// built to put an edge of the skip rule in reach.
var filterKinds = []struct {
	name string
	fill func(r *rand.Rand, v *la.Matrix, us []la.Vector)
}{
	// Normal deviates: the common case, where nearly every item is ruled
	// out once the heap is full.
	{"normal", func(r *rand.Rand, v *la.Matrix, us []la.Vector) {
		fillNorm(r, v.Data, 1)
		for _, u := range us {
			fillNorm(r, u, 1)
		}
	}},
	// Small integers: scores tie exactly, at θ among others.
	{"ties", func(r *rand.Rand, v *la.Matrix, us []la.Vector) {
		for i := range v.Data {
			v.Data[i] = float64(r.Intn(5) - 2)
		}
		for _, u := range us {
			for i := range u {
				u[i] = float64(r.Intn(3) - 1)
			}
		}
	}},
	// One base row, each item nudged from it by a few ulps in float64:
	// the float32 copies of the rows are equal, their exact scores are
	// not, so every item sits within float32 rounding of θ.
	{"ulps", func(r *rand.Rand, v *la.Matrix, us []la.Vector) {
		base := make([]float64, v.Cols)
		fillNorm(r, base, 1)
		for j := 0; j < v.Rows; j++ {
			row := v.Row(j)
			copy(row, base)
			for c := range row {
				for s := r.Intn(4); s > 0; s-- {
					row[c] = math.Nextafter(row[c], math.Inf(2*r.Intn(2)-1))
				}
			}
		}
		for _, u := range us {
			fillNorm(r, u, 1)
		}
	}},
	// Values past float32's range at both ends, in V and in the users:
	// products that overflow to ±Inf (so a float32 score of −Inf can hide a
	// large exact one), and ones that vanish to zero or a subnormal.
	{"range", func(r *rand.Rand, v *la.Matrix, us []la.Vector) {
		wild := []float64{1e20, 1e39, -1e39, 1e-40, 1e-300, 0}
		fillNorm(r, v.Data, 1)
		for j := 0; j < v.Rows; j++ {
			v.Data[j*v.Cols] = wild[r.Intn(len(wild))]
			if r.Intn(8) == 0 {
				v.Data[j*v.Cols+r.Intn(v.Cols)] = wild[r.Intn(len(wild))]
			}
		}
		for b, u := range us {
			fillNorm(r, u, 1)
			if b%2 == 0 {
				u[0] = wild[r.Intn(len(wild))]
			}
		}
	}},
	// NaN and ±Inf in V (every user then rescored everything) or in one
	// user (that user alone).
	{"nonfinite", func(r *rand.Rand, v *la.Matrix, us []la.Vector) {
		bad := []float64{math.NaN(), math.Inf(1), math.Inf(-1)}
		fillNorm(r, v.Data, 1)
		if r.Intn(2) == 0 {
			v.Data[r.Intn(len(v.Data))] = bad[r.Intn(len(bad))]
		}
		for b, u := range us {
			fillNorm(r, u, 1)
			if b%3 == 1 {
				u[r.Intn(len(u))] = bad[r.Intn(len(bad))]
			}
		}
	}},
}

func fillNorm(r *rand.Rand, x []float64, scale float64) {
	for i := range x {
		x[i] = scale * r.NormFloat64()
	}
}

// filterExclusions is every third item plus the first and last, or none.
func filterExclusions(items int, on bool) []int32 {
	if !on {
		return nil
	}
	l := []int32{0}
	for j := 3; j < items-1; j += 3 {
		l = append(l, int32(j))
	}
	if items > 1 {
		l = append(l, int32(items-1))
	}
	return l
}

// dotScores returns la.Dot(u, v_j) for every item j.
func dotScores(v *la.Matrix, u la.Vector) []float64 {
	scores := make([]float64, v.Rows)
	for j := range scores {
		scores[j] = la.Dot(u, v.Row(j))
	}
	return scores
}

// checkAgainstReference ranks u over c and compares the list with
// TopNScoresExcluding over scores, the user's la.Dot scores, bit for bit.
func checkAgainstReference(t testing.TB, label string, c *Catalog, u la.Vector, excl []int32, n int, scores []float64) {
	t.Helper()
	got, want := Recommend(c, u, excl, n), TopNScoresExcluding(scores, excl, n)
	if len(got) != len(want) {
		t.Fatalf("%s n=%d: %d items, want %d", label, n, len(got), len(want))
	}
	for i := range want {
		g, w := got[i], want[i]
		if g.Index != w.Index || math.Float64bits(g.Score) != math.Float64bits(w.Score) {
			t.Fatalf("%s n=%d: rank %d is %+v, want %+v", label, n, i, g, w)
		}
	}
}

// TestFilterMatchesUnfilteredHeap is the adversarial table: every kind of
// catalog, K ∈ {1, 3, 7, 8, 9, 32, 33, 64} × N ∈ {1, 7, 8, 9, 31, 32, 33,
// 63, 64, 65, 1000} × n ∈ {0, 1, 10, N, N+5}, with and without
// exclusions, 64 users each.
func TestFilterMatchesUnfilteredHeap(t *testing.T) {
	r := rand.New(rand.NewSource(38))
	for _, kind := range filterKinds {
		for _, k := range []int{1, 3, 7, 8, 9, 32, 33, 64} {
			for _, items := range []int{1, 7, 8, 9, 31, 32, 33, 63, 64, 65, 1000} {
				v := la.NewMatrix(items, k)
				us := make([]la.Vector, 64)
				for b := range us {
					us[b] = la.NewVector(k)
				}
				kind.fill(r, v, us)
				c := NewCatalog(v)
				scores := make([][]float64, len(us))
				for b, u := range us {
					scores[b] = dotScores(v, u)
				}
				for _, n := range []int{0, 1, 10, items, items + 5} {
					for _, excl := range []bool{false, true} {
						for b, u := range us {
							label := fmt.Sprintf("%s K=%d N=%d excl=%v user %d", kind.name, k, items, excl, b)
							checkAgainstReference(t, label, c, u, filterExclusions(items, excl), n, scores[b])
						}
					}
				}
			}
		}
	}
}

// FuzzRecommendMatchesReference draws the catalog kind, shape, n, the
// exclusions and the number of users from the fuzzer; plain `go test`
// runs the seeds.
func FuzzRecommendMatchesReference(f *testing.F) {
	f.Add(int64(1), uint8(32), uint16(5000), uint16(10), uint8(0), uint8(1), false)
	f.Add(int64(2), uint8(7), uint16(300), uint16(3), uint8(2), uint8(9), true)
	f.Add(int64(3), uint8(33), uint16(700), uint16(20), uint8(3), uint8(4), false)
	f.Add(int64(4), uint8(1), uint16(65), uint16(66), uint8(4), uint8(2), true)
	f.Add(int64(5), uint8(64), uint16(129), uint16(1), uint8(1), uint8(64), true)
	f.Fuzz(func(t *testing.T, seed int64, k uint8, items, n uint16, kind, users uint8, excl bool) {
		kk, nn, bb := 1+int(k)%64, 1+int(items)%5000, 1+int(users)%64
		r := rand.New(rand.NewSource(seed))
		v := la.NewMatrix(nn, kk)
		us := make([]la.Vector, bb)
		for b := range us {
			us[b] = la.NewVector(kk)
		}
		fk := filterKinds[int(kind)%len(filterKinds)]
		fk.fill(r, v, us)
		c := NewCatalog(v)
		for b, u := range us {
			label := fmt.Sprintf("%s K=%d N=%d excl=%v user %d", fk.name, kk, nn, excl, b)
			checkAgainstReference(t, label, c, u, filterExclusions(nn, excl), int(n), dotScores(v, u))
		}
	})
}

// TestFilterBoundHolds is the property the skip rule rests on: for every
// item whose float32 score t is finite, |t − la.Dot(u, v_j)| ≤ M/2, on
// random catalogs of K = 1…64 at scales from float32's subnormals to
// 10¹⁸ (where the products stay in float32's range).
func TestFilterBoundHolds(t *testing.T) {
	r := rand.New(rand.NewSource(39))
	worst := 0.0
	for trial := 0; trial < 400; trial++ {
		k := 1 + r.Intn(64)
		items := 8 * (1 + r.Intn(8))
		v := la.NewMatrix(items, k)
		u := la.NewVector(k)
		fillNorm(r, v.Data, math.Pow(10, float64(r.Intn(64)-45)))
		fillNorm(r, u, math.Pow(10, float64(r.Intn(64)-45)))
		c := NewCatalog(v)
		m := scoreBound(u, c.vmax)
		ts := make([]float32, items)
		la.BlockDot32(c.blocks, u, ts, m, math.NaN())
		for j, tj := range ts {
			s := la.Dot(u, v.Row(j))
			if math.IsInf(float64(tj), 0) || math.IsNaN(float64(tj)) {
				continue
			}
			if d := math.Abs(float64(tj) - s); !(d <= m/2) {
				t.Fatalf("trial %d K=%d item %d: |t − s| = |%g − %g| = %g > M/2 = %g", trial, k, j, tj, s, d, m/2)
			} else if m > 0 {
				worst = max(worst, d/(m/2))
			}
		}
	}
	t.Logf("largest |t − s| seen: %.3g of M/2", worst)
}

// TestScoreBoundNonFinite: a NaN or an infinity in u or V, or norms that
// overflow, make M non-finite, so nothing is ruled out.
func TestScoreBoundNonFinite(t *testing.T) {
	for _, tc := range []struct {
		u    la.Vector
		vmax float64
	}{
		{la.Vector{1, math.NaN()}, 1},
		{la.Vector{math.Inf(-1), 0}, 1},
		{la.Vector{1e200, 1e200}, 1},
		{la.Vector{1, 2}, math.NaN()},
		{la.Vector{1, 2}, math.Inf(1)},
	} {
		if m := scoreBound(tc.u, tc.vmax); !math.IsNaN(m) && !math.IsInf(m, 1) {
			t.Errorf("scoreBound(%v, %v) = %v, want NaN or +Inf", tc.u, tc.vmax, m)
		}
	}
	v := la.NewMatrix(3, 2)
	v.Data[3] = math.NaN()
	if c := NewCatalog(v); !math.IsNaN(c.vmax) {
		t.Errorf("a NaN in V gives vmax %v, want NaN", c.vmax)
	}
}
