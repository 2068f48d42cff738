package core

import (
	"math"
	"testing"

	"repro/internal/datagen"
	"repro/internal/la"
	"repro/internal/rng"
	"repro/internal/sched"
	"repro/internal/sparse"
)

func TestConfigValidate(t *testing.T) {
	good := DefaultConfig()
	if err := good.Validate(); err != nil {
		t.Fatalf("default config invalid: %v", err)
	}
	cases := []func(*Config){
		func(c *Config) { c.K = 0 },
		func(c *Config) { c.Alpha = 0 },
		func(c *Config) { c.Iters = 0 },
		func(c *Config) { c.Burnin = c.Iters },
		func(c *Config) { c.ParallelGrain = 0 },
		func(c *Config) { c.RankOneMax = -1 },
		func(c *Config) { c.KernelThreshold = c.RankOneMax },
	}
	for i, mutate := range cases {
		c := DefaultConfig()
		mutate(&c)
		if err := c.Validate(); err == nil {
			t.Fatalf("case %d: expected validation error", i)
		}
	}
}

func TestSelectKernel(t *testing.T) {
	c := DefaultConfig() // RankOneMax 24, threshold 1000
	if c.SelectKernel(0) != KernelRankOne || c.SelectKernel(24) != KernelRankOne {
		t.Fatal("small items must use the rank-one kernel")
	}
	if c.SelectKernel(25) != KernelCholesky || c.SelectKernel(999) != KernelCholesky {
		t.Fatal("medium items must use the serial Cholesky kernel")
	}
	if c.SelectKernel(1000) != KernelParallelCholesky || c.SelectKernel(1e6) != KernelParallelCholesky {
		t.Fatal("heavy items must use the parallel Cholesky kernel")
	}
}

func TestKernelNames(t *testing.T) {
	if KernelRankOne.String() != "rankupdate" ||
		KernelCholesky.String() != "serial_chol" ||
		KernelParallelCholesky.String() != "parallel_chol" {
		t.Fatal("kernel names must match Figure 2's legend")
	}
}

// momentsNaive computes moments by definition for comparison.
func momentsNaive(x *la.Matrix) (n float64, sum la.Vector, sumsq *la.Matrix) {
	k := x.Cols
	sum = la.NewVector(k)
	sumsq = la.NewMatrix(k, k)
	for i := 0; i < x.Rows; i++ {
		row := x.Row(i)
		n++
		la.Axpy(1, row, sum)
		la.SyrLower(1, row, sumsq)
	}
	return
}

func TestMomentsGroupedMatchesNaive(t *testing.T) {
	r := rng.New(3)
	k := 5
	x := la.NewMatrix(37, k)
	r.FillNorm(x.Data)
	want := NewMoments(k)
	want.AccumulateRows(x, 0, 37)
	for _, groups := range [][]int{nil, {0, 37}, {0, 10, 20, 37}, {0, 1, 36, 37}} {
		g := GroupBoundaries(groups, 37)
		got := MomentsGrouped(x, g, k, nil)
		if got.N != want.N {
			t.Fatalf("groups %v: N = %v", groups, got.N)
		}
		for i := range got.Sum {
			if math.Abs(got.Sum[i]-want.Sum[i]) > 1e-12 {
				t.Fatalf("groups %v: Sum[%d] differs", groups, i)
			}
		}
		if la.MaxAbsDiff(got.SumSq, want.SumSq) > 1e-12 {
			t.Fatalf("groups %v: SumSq differs", groups)
		}
	}
}

func TestMomentsGroupedDeterministicAcrossParallelism(t *testing.T) {
	// Group partials computed in parallel must combine to bit-identical
	// totals because combination order is fixed.
	r := rng.New(8)
	k := 4
	x := la.NewMatrix(1000, k)
	r.FillNorm(x.Data)
	groups := []int{0, 100, 350, 720, 1000}
	seq := MomentsGrouped(x, groups, k, nil)
	pool := sched.NewPool(4)
	defer pool.Close()
	par := MomentsGrouped(x, groups, k, func(n int, run func(g int)) {
		pool.ParallelFor(0, n, 1, func(_ *sched.Worker, lo, hi int) {
			for g := lo; g < hi; g++ {
				run(g)
			}
		})
	})
	if seq.N != par.N || la.MaxAbsDiff(seq.SumSq, par.SumSq) != 0 {
		t.Fatal("grouped moments not deterministic under parallel execution")
	}
	for i := range seq.Sum {
		if seq.Sum[i] != par.Sum[i] {
			t.Fatal("grouped moment sums not bit-identical")
		}
	}
}

func TestGroupBoundariesValidation(t *testing.T) {
	if got := GroupBoundaries(nil, 10); len(got) != 2 || got[0] != 0 || got[1] != 10 {
		t.Fatalf("nil boundaries: %v", got)
	}
	for _, bad := range [][]int{{1, 10}, {0, 5}, {0, 7, 3, 10}} {
		func() {
			defer func() {
				if recover() == nil {
					t.Fatalf("boundaries %v must panic", bad)
				}
			}()
			GroupBoundaries(bad, 10)
		}()
	}
}

func TestSampleHyperPosteriorConcentrates(t *testing.T) {
	// With many rows drawn from N(mu*, I), the sampled hyper mean must be
	// near mu* and the precision near identity.
	k := 4
	n := 20000
	r := rng.New(17)
	truth := la.Vector{1, -2, 0.5, 3}
	x := la.NewMatrix(n, k)
	for i := 0; i < n; i++ {
		row := x.Row(i)
		r.FillNorm(row)
		la.Axpy(1, truth, row)
	}
	m := NewMoments(k)
	m.AccumulateRows(x, 0, n)
	prior := DefaultNWPrior(k)
	h := NewHyper(k)
	SampleHyper(prior, m, rng.New(55), h)
	for i := range truth {
		if math.Abs(h.Mu[i]-truth[i]) > 0.05 {
			t.Fatalf("hyper mean[%d] = %v, want ~%v", i, h.Mu[i], truth[i])
		}
	}
	// Precision should be close to identity (covariance was I).
	for i := 0; i < k; i++ {
		if math.Abs(h.Lambda.At(i, i)-1) > 0.1 {
			t.Fatalf("hyper precision diag[%d] = %v, want ~1", i, h.Lambda.At(i, i))
		}
	}
	// LambdaMu cache must equal Λ·μ.
	want := la.NewVector(k)
	la.SymvLower(h.Lambda, h.Mu, want)
	for i := range want {
		if h.LambdaMu[i] != want[i] {
			t.Fatal("LambdaMu cache inconsistent")
		}
	}
}

func TestSampleHyperEmptyMomentsFallsBackToPrior(t *testing.T) {
	k := 3
	prior := DefaultNWPrior(k)
	h := NewHyper(k)
	m := NewMoments(k)
	SampleHyper(prior, m, rng.New(2), h) // must not panic
	// Sampled precision must be SPD.
	l := la.NewMatrix(k, k)
	if err := la.Cholesky(h.Lambda, l); err != nil {
		t.Fatalf("prior-only hyper draw not SPD: %v", err)
	}
}

func TestSampleHyperDeterministic(t *testing.T) {
	k := 4
	r := rng.New(9)
	x := la.NewMatrix(100, k)
	r.FillNorm(x.Data)
	m := NewMoments(k)
	m.AccumulateRows(x, 0, 100)
	prior := DefaultNWPrior(k)
	h1, h2 := NewHyper(k), NewHyper(k)
	SampleHyper(prior, m, HyperStream(7, 3, SideU), h1)
	SampleHyper(prior, m, HyperStream(7, 3, SideU), h2)
	if la.MaxAbsDiff(h1.Lambda, h2.Lambda) != 0 {
		t.Fatal("hyper draw not deterministic for equal streams")
	}
	for i := range h1.Mu {
		if h1.Mu[i] != h2.Mu[i] {
			t.Fatal("hyper mean draw not deterministic")
		}
	}
	SampleHyper(prior, m, HyperStream(7, 4, SideU), h2)
	if la.MaxAbsDiff(h1.Lambda, h2.Lambda) == 0 {
		t.Fatal("different iterations must draw different hypers")
	}
}

// buildItemProblem creates a small update problem: nnz partner rows and
// ratings consistent with a known factor.
func buildItemProblem(nnz, k int, seed uint64) (cols []int32, vals []float64, other *la.Matrix) {
	r := rng.New(seed)
	nOther := nnz + 10
	other = la.NewMatrix(nOther, k)
	r.FillNorm(other.Data)
	truth := la.NewVector(k)
	r.FillNorm(truth)
	cols = make([]int32, nnz)
	vals = make([]float64, nnz)
	perm := make([]int, nOther)
	for i := range perm {
		perm[i] = i
	}
	for i := 0; i < nnz; i++ {
		j := i + r.Intn(nOther-i)
		perm[i], perm[j] = perm[j], perm[i]
		cols[i] = int32(perm[i])
		vals[i] = la.Dot(other.Row(perm[i]), truth) + 0.1*r.Norm()
	}
	return
}

// updateWith runs UpdateItem with the given kernel and returns the result.
func updateWith(kern Kernel, cfg *Config, cols []int32, vals []float64,
	other *la.Matrix, hyper *Hyper, pool *sched.Pool) la.Vector {
	ws := NewWorkspace(cfg.K)
	out := la.NewVector(cfg.K)
	stream := ItemStream(cfg.Seed, 0, SideU, 0)
	UpdateItem(ws, kern, cfg, cols, vals, other, hyper, stream, pool, nil, out)
	return out
}

func TestKernelsAgree(t *testing.T) {
	// All three kernels sample from the same posterior with the same
	// stream; results must agree to numerical tolerance (they differ only
	// in summation grouping and factorization path).
	cfg := DefaultConfig()
	cfg.K = 8
	pool := sched.NewPool(2)
	defer pool.Close()
	hyper := NewHyper(cfg.K)
	for _, nnz := range []int{1, 5, 30, 200, 1500} {
		cols, vals, other := buildItemProblem(nnz, cfg.K, uint64(nnz))
		r1 := updateWith(KernelRankOne, &cfg, cols, vals, other, hyper, nil)
		r2 := updateWith(KernelCholesky, &cfg, cols, vals, other, hyper, nil)
		r3 := updateWith(KernelParallelCholesky, &cfg, cols, vals, other, hyper, pool)
		for i := range r1 {
			if math.Abs(r1[i]-r2[i]) > 1e-6*(1+math.Abs(r2[i])) {
				t.Fatalf("nnz=%d: rank-one vs serial chol differ at %d: %v vs %v",
					nnz, i, r1[i], r2[i])
			}
			if math.Abs(r3[i]-r2[i]) > 1e-6*(1+math.Abs(r2[i])) {
				t.Fatalf("nnz=%d: parallel vs serial chol differ at %d: %v vs %v",
					nnz, i, r3[i], r2[i])
			}
		}
	}
}

func TestParallelKernelDeterministicAcrossPoolSizes(t *testing.T) {
	cfg := DefaultConfig()
	cfg.K = 8
	hyper := NewHyper(cfg.K)
	cols, vals, other := buildItemProblem(3000, cfg.K, 5)
	var ref la.Vector
	for _, workers := range []int{1, 3, 6} {
		pool := sched.NewPool(workers)
		got := updateWith(KernelParallelCholesky, &cfg, cols, vals, other, hyper, pool)
		pool.Close()
		if ref == nil {
			ref = got
			continue
		}
		for i := range got {
			if got[i] != ref[i] {
				t.Fatalf("parallel kernel differs across pool sizes at %d", i)
			}
		}
	}
	// The nil-pool (inline) execution of the same kernel must match
	// bit-for-bit: both the chunked accumulation and the blocked
	// factorization are schedule-independent task DAGs.
	got := updateWith(KernelParallelCholesky, &cfg, cols, vals, other, hyper, nil)
	for i := range got {
		if got[i] != ref[i] {
			t.Fatalf("nil-pool parallel kernel deviates at %d: %v vs %v", i, got[i], ref[i])
		}
	}
}

func TestUpdateItemPosteriorMean(t *testing.T) {
	// With huge alpha and many ratings, the posterior mean must recover
	// the least-squares solution; sampled noise is tiny.
	cfg := DefaultConfig()
	cfg.K = 4
	cfg.Alpha = 1e6
	hyper := NewHyper(cfg.K)
	r := rng.New(31)
	truth := la.Vector{0.5, -1, 2, 0.25}
	nnz := 500
	other := la.NewMatrix(nnz, cfg.K)
	r.FillNorm(other.Data)
	cols := make([]int32, nnz)
	vals := make([]float64, nnz)
	for i := 0; i < nnz; i++ {
		cols[i] = int32(i)
		vals[i] = la.Dot(other.Row(i), truth)
	}
	got := updateWith(KernelCholesky, &cfg, cols, vals, other, hyper, nil)
	for i := range truth {
		if math.Abs(got[i]-truth[i]) > 1e-2 {
			t.Fatalf("posterior mean[%d] = %v, want %v", i, got[i], truth[i])
		}
	}
}

func TestUpdateItemNoRatings(t *testing.T) {
	// An item with zero ratings must sample from the hyper prior without
	// panicking.
	cfg := DefaultConfig()
	cfg.K = 6
	hyper := NewHyper(cfg.K)
	other := la.NewMatrix(1, cfg.K)
	out := updateWith(KernelRankOne, &cfg, nil, nil, other, hyper, nil)
	for _, v := range out {
		if math.IsNaN(v) {
			t.Fatal("NaN sample for ratingless item")
		}
	}
}

func TestInitFactorsDeterministic(t *testing.T) {
	a := InitFactors(42, SideU, 50, 8)
	b := InitFactors(42, SideU, 50, 8)
	if la.MaxAbsDiff(a, b) != 0 {
		t.Fatal("InitFactors not deterministic")
	}
	c := InitFactors(42, SideV, 50, 8)
	if la.MaxAbsDiff(a, c) == 0 {
		t.Fatal("sides must have distinct init")
	}
	// Row i's init must not depend on the matrix height (partitionable).
	d := InitFactors(42, SideU, 100, 8)
	for i := 0; i < 50; i++ {
		for j := 0; j < 8; j++ {
			if a.At(i, j) != d.At(i, j) {
				t.Fatal("row init depends on matrix height")
			}
		}
	}
}

func tinyProblem(t *testing.T, seed uint64) *Problem {
	t.Helper()
	ds := datagen.Generate(datagen.Tiny(seed))
	train, test := sparse.SplitTrainTest(ds.R, 0.2, seed)
	return NewProblem(train, test)
}

func TestSamplerRunsAndImprovesRMSE(t *testing.T) {
	ds := datagen.Generate(datagen.Small(3))
	train, test := sparse.SplitTrainTest(ds.R, 0.2, 3)
	prob := NewProblem(train, test)
	cfg := DefaultConfig()
	cfg.K = 8
	cfg.Iters = 12
	cfg.Burnin = 6
	s, err := NewSampler(cfg, prob)
	if err != nil {
		t.Fatal(err)
	}
	res := s.Run()
	if len(res.AvgRMSE) != cfg.Iters {
		t.Fatalf("got %d RMSE entries", len(res.AvgRMSE))
	}
	first, last := res.SampleRMSE[0], res.FinalRMSE()
	if !(last < first) {
		t.Fatalf("RMSE did not improve: %v -> %v", first, last)
	}
	// The planted noise floor is 0.4; posterior-mean RMSE should approach
	// it (generously bounded here).
	if last > 0.8 {
		t.Fatalf("final RMSE %v far above noise floor 0.4", last)
	}
	if res.ItemUpdates != int64(cfg.Iters)*int64(train.M+train.N) {
		t.Fatalf("ItemUpdates = %d", res.ItemUpdates)
	}
}

func TestSamplerDeterministic(t *testing.T) {
	prob := tinyProblem(t, 5)
	cfg := DefaultConfig()
	cfg.K = 4
	cfg.Iters = 4
	cfg.Burnin = 2
	run := func() *Result {
		s, err := NewSampler(cfg, prob)
		if err != nil {
			t.Fatal(err)
		}
		return s.Run()
	}
	r1, r2 := run(), run()
	if la.MaxAbsDiff(r1.U, r2.U) != 0 || la.MaxAbsDiff(r1.V, r2.V) != 0 {
		t.Fatal("sequential sampler not bit-deterministic")
	}
	for i := range r1.AvgRMSE {
		if r1.AvgRMSE[i] != r2.AvgRMSE[i] {
			t.Fatal("RMSE trace not deterministic")
		}
	}
}

func TestSamplerSeedChangesResult(t *testing.T) {
	prob := tinyProblem(t, 5)
	cfg := DefaultConfig()
	cfg.K = 4
	cfg.Iters = 2
	cfg.Burnin = 1
	s1, _ := NewSampler(cfg, prob)
	cfg.Seed = 43
	s2, _ := NewSampler(cfg, prob)
	r1, r2 := s1.Run(), s2.Run()
	if la.MaxAbsDiff(r1.U, r2.U) == 0 {
		t.Fatal("different seeds gave identical chains")
	}
}

func TestSamplerMomentGroupingChangesBitsOnly(t *testing.T) {
	// Different moment groupings give different FP rounding, hence
	// different chains, but statistically equivalent results. Check RMSE
	// stays in the same ballpark.
	prob := tinyProblem(t, 11)
	cfg := DefaultConfig()
	cfg.K = 4
	cfg.Iters = 6
	cfg.Burnin = 3
	s1, _ := NewSampler(cfg, prob)
	r1 := s1.Run()
	m, n := prob.Dims()
	cfg.MomentGroupsU = []int{0, m / 2, m}
	cfg.MomentGroupsV = []int{0, n / 3, n}
	s2, _ := NewSampler(cfg, prob)
	r2 := s2.Run()
	if math.Abs(r1.FinalRMSE()-r2.FinalRMSE()) > 0.3 {
		t.Fatalf("grouping changed RMSE too much: %v vs %v",
			r1.FinalRMSE(), r2.FinalRMSE())
	}
}

func TestPredictorClamp(t *testing.T) {
	test := []sparse.Entry{{Row: 0, Col: 0, Val: 5}}
	u := la.NewMatrixFrom([][]float64{{10}})
	v := la.NewMatrixFrom([][]float64{{10}})
	p := NewPredictor(test, 0.5, 5)
	sr, _ := p.Update(u, v, false)
	// Prediction 100 clamps to 5 → zero error.
	if sr != 0 {
		t.Fatalf("clamped RMSE = %v, want 0", sr)
	}
	if sr, _ := NewPredictor(test, 0, 0).Update(u, v, false); sr != 95 {
		t.Fatalf("unclamped RMSE = %v, want 95", sr)
	}
}

func TestPredictorAveragingBeatsLastSample(t *testing.T) {
	// Averaging a noisy unbiased predictor must reduce RMSE vs one sample.
	r := rng.New(5)
	test := make([]sparse.Entry, 200)
	for i := range test {
		test[i] = sparse.Entry{Row: int32(i), Col: 0, Val: 1}
	}
	v := la.NewMatrixFrom([][]float64{{1}})
	p := NewPredictor(test, 0, 0)
	var lastSample float64
	for s := 0; s < 30; s++ {
		u := la.NewMatrix(200, 1)
		for i := 0; i < 200; i++ {
			u.Set(i, 0, 1+0.5*r.Norm())
		}
		sr, _ := p.Update(u, v, true)
		lastSample = sr
	}
	_, avg := p.Update(la.NewMatrixFrom(rowsOf(200, 1.0)), v, false)
	if !(avg < lastSample) {
		t.Fatalf("averaged RMSE %v not below sample RMSE %v", avg, lastSample)
	}
}

func rowsOf(n int, v float64) [][]float64 {
	rows := make([][]float64, n)
	for i := range rows {
		rows[i] = []float64{v}
	}
	return rows
}

func TestPredictorEmptyTestSet(t *testing.T) {
	p := NewPredictor(nil, 0, 0)
	sr, ar := p.Update(la.NewMatrix(1, 1), la.NewMatrix(1, 1), true)
	if !math.IsNaN(sr) || !math.IsNaN(ar) {
		t.Fatal("empty test set must report NaN RMSE")
	}
}

func TestResultString(t *testing.T) {
	r := &Result{Iters: 3, ItemUpdates: 10, AvgRMSE: []float64{1, 0.9}}
	if r.String() == "" {
		t.Fatal("empty summary")
	}
	if (&Result{}).FinalRMSE() != 0 {
		t.Fatal("FinalRMSE on empty result must be 0")
	}
}
