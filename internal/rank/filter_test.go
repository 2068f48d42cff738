package rank

import (
	"fmt"
	"math"
	"math/rand"
	"testing"

	"repro/internal/la"
)

// Tests of Recommend's int8 filter. Every list is compared with
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
	// the int8 copies of the rows are equal, their exact scores are not,
	// so every item sits within quantisation error of θ, on the side the
	// base row's rounding puts it.
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
	// Values far apart in V and in the users: one large entry sets the
	// scale, so the other entries of its row or user quantise to zero, and
	// tiny ones vanish below the scale.
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
	// NaN and ±Inf in V (no int8 copy: every user then scores everything)
	// or in one user (that user alone).
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
	// Sums at the ends of int32: bytes at ±127 against query values at
	// the edge of the query range. The users share one sign pattern σ,
	// a few columns flipped for each; the first 64 items are −127·σ in
	// every column but at most one, the rest flip a random share of
	// columns. So the heap's root after the first panel sits at a sum
	// near −R·127·K, where from K = 517 the threshold falls below −2³¹,
	// and later items beat it. Even users are ±R, odd ones ±32767, which
	// the query's scale must bring back into R.
	{"extremes", func(r *rand.Rand, v *la.Matrix, us []la.Vector) {
		sigma := make([]float64, v.Cols)
		for c := range sigma {
			sigma[c] = float64(2*r.Intn(2) - 1)
		}
		for j := 0; j < v.Rows; j++ {
			row := v.Row(j)
			flips := r.Intn(2)
			if j >= 64 {
				flips = r.Intn(v.Cols + 1)
			}
			for c := range row {
				row[c] = -127 * sigma[c]
			}
			for _, c := range r.Perm(v.Cols)[:flips] {
				row[c] = 127 * sigma[c]
			}
		}
		for b, u := range us {
			m := float64(la.QueryRange(v.Cols))
			if b%2 == 1 {
				m = 32767
			}
			for c := range u {
				u[c] = m * sigma[c]
			}
			for f := r.Intn(3); f > 0 && b > 0; f-- {
				c := r.Intn(v.Cols)
				u[c] = -u[c]
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

// filterShapes are the adversarial table's widths and catalog sizes:
// both sides of a block of 8 and of a panel of 64 items, odd widths (a
// padded column pair), and the widths where the query range binds.
var filterShapes = []struct {
	ks, items []int
	users     int
}{
	{[]int{1, 3, 7, 8, 9, 32, 33, 64}, []int{1, 7, 8, 9, 31, 32, 33, 63, 64, 65, 1000}, 64},
	{[]int{517, 1024}, []int{9, 65, 300}, 16},
}

// TestFilterMatchesUnfilteredHeap is the adversarial table: every kind of
// catalog at every shape of filterShapes × n ∈ {0, 1, 10, N, N+5}, with
// and without exclusions.
func TestFilterMatchesUnfilteredHeap(t *testing.T) {
	r := rand.New(rand.NewSource(38))
	for _, kind := range filterKinds {
		for _, shape := range filterShapes {
			for _, k := range shape.ks {
				for _, items := range shape.items {
					v := la.NewMatrix(items, k)
					us := make([]la.Vector, shape.users)
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

// sums returns D_j for every item of c against the query x, through
// la.BlockDot8 panel by panel.
func sums(c *Catalog, x []int16) []int32 {
	items := c.v.Rows
	d := make([]int32, (items+scorePanel-1)/scorePanel*scorePanel)
	for lo := 0; lo < items; lo += scorePanel {
		w := (min(lo+scorePanel, items) - lo + la.Block8 - 1) &^ (la.Block8 - 1)
		la.BlockDot8(c.blocks[lo*len(x):(lo+w)*len(x)], x, d[lo:lo+w], math.MinInt32)
	}
	return d[:items]
}

// TestFilterBoundHolds is the property the skip rule rests on: for every
// item, |la.Dot(u, v_j) − s_u·s·D_j| < (s_u·s/4)·E, on random catalogs
// and users at scales from 10⁻³⁰⁰ to 10³⁰⁰ each, K = 1…64, 517 and 1024
// (the query range binds from 517). Where s_u·s leaves the bound's range
// the rule must be off instead.
func TestFilterBoundHolds(t *testing.T) {
	r := rand.New(rand.NewSource(39))
	worst, on, off := 0.0, 0, 0
	for trial := 0; trial < 600; trial++ {
		k := 1 + r.Intn(64)
		if trial%8 == 7 {
			k = []int{517, 1024}[r.Intn(2)]
		}
		items := 8 * (1 + r.Intn(8))
		v := la.NewMatrix(items, k)
		u := la.NewVector(k)
		fillNorm(r, v.Data, math.Pow(10, float64(r.Intn(601)-300)))
		fillNorm(r, u, math.Pow(10, float64(r.Intn(601)-300)))
		c := NewCatalog(v)
		x := make([]int16, 2*la.Pairs(k))
		b, ok := c.bound(u, x)
		ue, _, _ := la.PackQuery16(u, make([]int16, len(x)))
		if e := ue + c.exp; e < minScaleExp || e > maxScaleExp {
			if ok {
				t.Fatalf("trial %d: s_u·s = 2^%d, outside the bound's range, yet the rule is on", trial, e)
			}
			off++
			continue
		}
		if !ok {
			t.Fatalf("trial %d K=%d: the rule is off at s_u·s = 2^%d", trial, k, ue+c.exp)
		}
		on++
		scale := math.Ldexp(1, ue+c.exp)
		for j, dj := range sums(c, x) {
			s := la.Dot(u, v.Row(j))
			lim := scale / 4 * float64(b.e)
			if d := math.Abs(s - scale*float64(dj)); !(d < lim) {
				t.Fatalf("trial %d K=%d item %d: |s − s_u·s·D| = |%g − %g| = %g, not below (s_u·s/4)·E = %g", trial, k, j, s, scale*float64(dj), d, lim)
			} else {
				worst = max(worst, d/lim)
			}
		}
	}
	if on == 0 || off == 0 {
		t.Fatalf("%d trials in the bound's range, %d outside: both must occur", on, off)
	}
	t.Logf("%d trials in range, %d outside; largest |s − s_u·s·D| seen: %.3g of (s_u·s/4)·E", on, off, worst)
}

// TestFilterNonFinite: a NaN or an infinity in u, or s_u·s outside the
// bound's range, turns the rule off for that query; a NaN or an infinity
// in V builds no int8 copy, and the rule is off for every query. Each
// ranking still matches the unfiltered heap.
func TestFilterNonFinite(t *testing.T) {
	nan, inf := math.NaN(), math.Inf(1)
	for _, tc := range []struct {
		name   string
		vs, us float64 // scales of V and u
		bad    float64 // put into u or V, per where
		where  string  // "u", "V" or "" (nothing bad)
		on     bool
	}{
		{"finite", 1, 1, 0, "", true},
		{"NaN in u", 1, 1, nan, "u", false},
		{"+Inf in u", 1, 1, inf, "u", false},
		{"-Inf in u", 1, 1, -inf, "u", false},
		{"NaN in V", 1, 1, nan, "V", false},
		{"+Inf in V", 1, 1, inf, "V", false},
		{"-Inf in V", 1, 1, -inf, "V", false},
		{"s_u·s below 2⁻¹⁰²²", 1e-200, 1e-200, 0, "", false},
		{"s_u·s above 2⁹⁹⁰", 1e155, 1e155, 0, "", false},
		{"s_u·s near 2⁻¹⁰²²", 1e-150, 1e-150, 0, "", true},
		{"s_u·s near 2⁹⁹⁰", 1e145, 1e145, 0, "", true},
	} {
		r := rand.New(rand.NewSource(40))
		v := la.NewMatrix(300, 5)
		fillNorm(r, v.Data, tc.vs)
		u := la.NewVector(5)
		fillNorm(r, u, tc.us)
		switch tc.where {
		case "V":
			v.Data[r.Intn(len(v.Data))] = tc.bad
		case "u":
			u[2] = tc.bad
		}
		c := NewCatalog(v)
		if (c.blocks == nil) != (tc.where == "V") {
			t.Errorf("%s: int8 copy built: %v", tc.name, c.blocks != nil)
		}
		if _, on := c.bound(u, make([]int16, 6)); on != tc.on {
			t.Errorf("%s: rule on %v, want %v", tc.name, on, tc.on)
		}
		for _, n := range []int{1, 10, 299} {
			checkAgainstReference(t, tc.name, c, u, nil, n, dotScores(v, u))
		}
	}
	// The threshold's own guards: NaN and −Inf skip nothing, +Inf every
	// sum, and the clamps into int32 hold at both ends.
	b := bound{shift: 2, e: 5}
	for _, tc := range []struct {
		theta float64
		want  int32
	}{
		{nan, math.MinInt32}, {-inf, math.MinInt32}, {inf, math.MaxInt32},
		{-1e300, math.MinInt32}, {1e300, math.MaxInt32},
		{-0x1p31, math.MinInt32}, {0x1p31, math.MaxInt32 - 1}, {0x1p32, math.MaxInt32},
		{0, -2}, {1.25, -1}, {1.5, 0}, {2.25, 0}, {2.5, 1},
	} {
		if got := b.threshold(tc.theta); got != tc.want {
			t.Errorf("threshold(%v) with shift 2, E = 5: %d, want %d", tc.theta, got, tc.want)
		}
	}
}
