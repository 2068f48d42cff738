package partition

import (
	"fmt"
	"math"
	"math/rand"
	"sort"
	"testing"
	"testing/quick"

	"repro/internal/datagen"
	"repro/internal/sparse"
)

func TestCostModel(t *testing.T) {
	m := CostModel{Fixed: 2, PerRating: 0.5}
	if m.Cost(0) != 2 || m.Cost(10) != 7 {
		t.Fatal("cost model arithmetic wrong")
	}
	w := m.Weights([]int{0, 10})
	if w[0] != 2 || w[1] != 7 {
		t.Fatal("weights wrong")
	}
}

// bruteForceCCP finds the optimal bottleneck by exhaustive search.
func bruteForceCCP(weights []float64, parts int) float64 {
	n := len(weights)
	best := math.Inf(1)
	var rec func(start, partsLeft int, worst float64)
	rec = func(start, partsLeft int, worst float64) {
		if partsLeft == 1 {
			var s float64
			for i := start; i < n; i++ {
				s += weights[i]
			}
			if s > worst {
				worst = s
			}
			if worst < best {
				best = worst
			}
			return
		}
		var s float64
		for end := start; end <= n; end++ {
			w := worst
			if s > w {
				w = s
			}
			if w >= best {
				break
			}
			rec(end, partsLeft-1, w)
			if end < n {
				s += weights[end]
			}
		}
	}
	rec(0, parts, 0)
	return best
}

func TestChainsOnChainsOptimal(t *testing.T) {
	r := rand.New(rand.NewSource(7))
	for trial := 0; trial < 50; trial++ {
		n := 1 + r.Intn(12)
		parts := 1 + r.Intn(4)
		w := make([]float64, n)
		for i := range w {
			w[i] = float64(1 + r.Intn(20))
		}
		bounds := ChainsOnChains(w, parts)
		got := Bottleneck(w, bounds)
		want := bruteForceCCP(w, min(parts, n))
		if got > want*(1+1e-9)+1e-9 {
			t.Fatalf("trial %d: CCP bottleneck %v, optimal %v (weights %v parts %d)",
				trial, got, want, w, parts)
		}
	}
}

func TestChainsOnChainsBoundsShape(t *testing.T) {
	f := func(seed int64, np uint8) bool {
		r := rand.New(rand.NewSource(seed))
		n := 1 + r.Intn(50)
		parts := int(np%8) + 1
		w := make([]float64, n)
		for i := range w {
			w[i] = r.Float64() * 10
		}
		b := ChainsOnChains(w, parts)
		if len(b) != parts+1 {
			return false
		}
		if b[0] != 0 || b[len(b)-1] != n {
			return false
		}
		for i := 1; i < len(b); i++ {
			if b[i] < b[i-1] {
				return false
			}
		}
		return true
	}
	if err := quick.Check(f, &quick.Config{MaxCount: 50}); err != nil {
		t.Fatal(err)
	}
}

func TestChainsOnChainsSkewBeatsEqualCount(t *testing.T) {
	// One huge item plus many small ones: CCP must isolate the heavy item.
	w := make([]float64, 100)
	for i := range w {
		w[i] = 1
	}
	w[0] = 500
	ccp := Bottleneck(w, ChainsOnChains(w, 4))
	eq := Bottleneck(w, EqualCount(100, 4))
	if !(ccp < eq) {
		t.Fatalf("CCP bottleneck %v not better than equal-count %v", ccp, eq)
	}
	if ccp > 510 {
		t.Fatalf("CCP bottleneck %v should be ~500", ccp)
	}
}

func TestChainsOnChainsEdgeCases(t *testing.T) {
	if b := ChainsOnChains(nil, 3); b[len(b)-1] != 0 {
		t.Fatal("empty weights must give empty bounds")
	}
	b := ChainsOnChains([]float64{5}, 4) // more parts than items
	if b[0] != 0 || b[len(b)-1] != 1 {
		t.Fatalf("single item bounds %v", b)
	}
}

// owner returns the interval index owning position i in bounds — the
// binary-search reference the brute-force CommVolume check is built on.
func owner(bounds []int, i int) int {
	p := sort.SearchInts(bounds, i+1) - 1
	if p < 0 || p+1 >= len(bounds) || i < bounds[p] || i >= bounds[p+1] {
		panic(fmt.Sprintf("partition: position %d outside bounds %v", i, bounds))
	}
	return p
}

func TestOwner(t *testing.T) {
	bounds := []int{0, 3, 3, 7, 10}
	cases := map[int]int{0: 0, 2: 0, 3: 2, 6: 2, 7: 3, 9: 3}
	for pos, want := range cases {
		if got := owner(bounds, pos); got != want {
			t.Fatalf("owner(%d) = %d, want %d", pos, got, want)
		}
	}
}

// bandSum measures total "bandwidth" of the matrix: sum over entries of
// |scaled row pos - scaled col pos| (a profile proxy the RCM ordering
// should reduce on clustered data).
func bandSum(r *sparse.CSR) float64 {
	var s float64
	for i := 0; i < r.M; i++ {
		cols, _ := r.Row(i)
		ri := float64(i) / float64(r.M)
		for _, c := range cols {
			s += math.Abs(ri - float64(c)/float64(r.N))
		}
	}
	return s
}

func TestRCMPermsValidAndReduceBandwidth(t *testing.T) {
	// Block-diagonal-ish matrix scrambled by a random permutation: RCM
	// must recover most of the clustering.
	r := rand.New(rand.NewSource(5))
	m, n, blocks := 120, 90, 3
	coo := sparse.NewCOO(m, n, 0)
	for b := 0; b < blocks; b++ {
		for k := 0; k < 300; k++ {
			i := b*(m/blocks) + r.Intn(m/blocks)
			j := b*(n/blocks) + r.Intn(n/blocks)
			coo.Add(i, j, 1)
		}
	}
	a := coo.ToCSR()
	// Scramble.
	rp := make([]int32, m)
	cp := make([]int32, n)
	for i := range rp {
		rp[i] = int32(i)
	}
	for j := range cp {
		cp[j] = int32(j)
	}
	r.Shuffle(m, func(a, b int) { rp[a], rp[b] = rp[b], rp[a] })
	r.Shuffle(n, func(a, b int) { cp[a], cp[b] = cp[b], cp[a] })
	scrambled := a.Permute(rp, cp)

	rowPerm, colPerm := RCMPerms(scrambled)
	// Permutations must be valid (Permute panics otherwise).
	ordered := scrambled.Permute(rowPerm, colPerm)
	if ordered.NNZ() != scrambled.NNZ() {
		t.Fatal("RCM permutation lost entries")
	}
	if bandSum(ordered) > 0.8*bandSum(scrambled) {
		t.Fatalf("RCM did not reduce bandwidth: %v -> %v",
			bandSum(scrambled), bandSum(ordered))
	}
}

func TestCommVolumeBruteForce(t *testing.T) {
	r := rand.New(rand.NewSource(9))
	m, n, p := 30, 20, 3
	coo := sparse.NewCOO(m, n, 0)
	for k := 0; k < 150; k++ {
		coo.Add(r.Intn(m), r.Intn(n), 1)
	}
	a := coo.ToCSR()
	rowB := EqualCount(m, p)
	colB := EqualCount(n, p)
	total, _ := CommVolume(a, rowB, colB)

	// Brute force: count distinct non-self destination ranks per item.
	var want int64
	for i := 0; i < m; i++ {
		dsts := map[int]bool{}
		cols, _ := a.Row(i)
		for _, c := range cols {
			o := owner(colB, int(c))
			if o != owner(rowB, i) {
				dsts[o] = true
			}
		}
		want += int64(len(dsts))
	}
	at := a.Transpose()
	for j := 0; j < n; j++ {
		dsts := map[int]bool{}
		rows, _ := at.Row(j)
		for _, rr := range rows {
			o := owner(rowB, int(rr))
			if o != owner(colB, j) {
				dsts[o] = true
			}
		}
		want += int64(len(dsts))
	}
	if total != want {
		t.Fatalf("CommVolume = %d, brute force %d", total, want)
	}
}

func TestReorderingReducesCommVolume(t *testing.T) {
	// On clustered data, RCM + contiguous partitioning must beat the
	// scrambled ordering (the Section IV-B claim).
	ds := datagen.Generate(datagen.Spec{
		Name: "clusters", Rows: 200, Cols: 120, NNZ: 2400,
		TrueRank: 4, NoiseSD: 0.3, ZipfS: 0.3, Seed: 11,
	})
	p := 4
	plain := Build(ds.R, Options{Ranks: p, Reorder: false})
	reord := Build(ds.R, Options{Ranks: p, Reorder: true})
	vPlain, _ := CommVolume(plain.R, plain.RowBounds, plain.ColBounds)
	vReord, _ := CommVolume(reord.R, reord.RowBounds, reord.ColBounds)
	// The synthetic generator scatters labels randomly, so RCM has little
	// cluster structure to exploit; at minimum it must not blow traffic up.
	if vReord > vPlain*11/10 {
		t.Fatalf("reordering increased comm volume: %d -> %d", vPlain, vReord)
	}
}

func TestBuildPlanShape(t *testing.T) {
	ds := datagen.Generate(datagen.Tiny(3))
	plan := Build(ds.R, Options{Ranks: 3, Reorder: true})
	if len(plan.RowBounds) != 4 || len(plan.ColBounds) != 4 {
		t.Fatalf("bounds %v %v", plan.RowBounds, plan.ColBounds)
	}
	if plan.RowBounds[3] != ds.R.M || plan.ColBounds[3] != ds.R.N {
		t.Fatal("bounds must cover the matrix")
	}
	if !plan.Reordered || plan.RowPerm == nil {
		t.Fatal("reorder flag/perms not set")
	}
	if plan.R.NNZ() != ds.R.NNZ() {
		t.Fatal("plan lost entries")
	}
	// Balance: with the cost model, no rank should have more than ~2.2x
	// the average load (CCP guarantees near-optimal bottleneck; Zipf skew
	// on a tiny matrix allows some slack).
	w := DefaultCostModel().Weights(plan.R.RowDegrees())
	var total float64
	for _, x := range w {
		total += x
	}
	if b := Bottleneck(w, plan.RowBounds); b > 2.2*total/3+DefaultCostModel().Cost(plan.maxRowDeg()) {
		t.Fatalf("row bottleneck %v too imbalanced (total %v)", b, total)
	}
}

func (p *Plan) maxRowDeg() int {
	max := 0
	for _, d := range p.R.RowDegrees() {
		if d > max {
			max = d
		}
	}
	return max
}

func min(a, b int) int {
	if a < b {
		return a
	}
	return b
}
