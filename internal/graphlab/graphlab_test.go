package graphlab

import (
	"testing"

	"repro/internal/core"
	"repro/internal/datagen"
	"repro/internal/la"
	"repro/internal/order"
	"repro/internal/rng"
	"repro/internal/sparse"
)

func problem(t *testing.T, spec datagen.Spec) *core.Problem {
	t.Helper()
	ds := datagen.Generate(spec)
	train, test := sparse.SplitTrainTest(ds.R, 0.2, spec.Seed)
	return core.NewProblem(train, test)
}

func testConfig() core.Config {
	cfg := core.DefaultConfig()
	cfg.K = 6
	cfg.Iters = 4
	cfg.Burnin = 2
	cfg.RankOneMax = 4
	cfg.KernelThreshold = 20
	cfg.ParallelGrain = 7
	return cfg
}

func TestGraphConstruction(t *testing.T) {
	prob := problem(t, datagen.Tiny(2))
	g := NewGraph(prob)
	if g.NumUsers != prob.R.M || g.NumMovies != prob.R.N {
		t.Fatal("vertex count wrong")
	}
	// User edges come from R, movie edges from the transpose.
	cols, _ := g.Edges(core.SideU, 0)
	wcols, _ := prob.R.Row(0)
	if len(cols) != len(wcols) {
		t.Fatal("user edge list mismatch")
	}
	mcols, _ := g.Edges(core.SideV, 0)
	wmcols, _ := prob.Rt.Row(0)
	if len(mcols) != len(wmcols) {
		t.Fatal("movie edge list mismatch")
	}
}

func TestGraphLabMatchesSequentialBitwise(t *testing.T) {
	// "All versions reach the same level of prediction accuracy" — here
	// exactly, because the vertex program delegates to the same kernels
	// with the same keyed streams.
	prob := problem(t, datagen.Small(9))
	cfg := testConfig()
	seq, err := core.NewSampler(cfg, prob)
	if err != nil {
		t.Fatal(err)
	}
	want := seq.Run()
	for _, threads := range []int{1, 3} {
		got, err := Run(cfg, prob, threads)
		if err != nil {
			t.Fatal(err)
		}
		if la.MaxAbsDiff(got.U, want.U) != 0 || la.MaxAbsDiff(got.V, want.V) != 0 {
			t.Fatalf("threads=%d: GraphLab chain differs from sequential", threads)
		}
		for i := range want.AvgRMSE {
			if got.AvgRMSE[i] != want.AvgRMSE[i] {
				t.Fatalf("threads=%d: RMSE trace differs at %d", threads, i)
			}
		}
	}
}

// TestActivationOrderIsChainInvariant drives the engine over random
// vertex activation orders: any permutation must reproduce the sequential
// chain and RMSE trace bit for bit (the ordering freedom the locality
// schedule exploits).
func TestActivationOrderIsChainInvariant(t *testing.T) {
	prob := problem(t, datagen.Small(13))
	cfg := testConfig()
	seq, err := core.NewSampler(cfg, prob)
	if err != nil {
		t.Fatal(err)
	}
	want := seq.Run()
	m, n := prob.Dims()
	r := rng.New(55)
	perm := func(size int) []int32 {
		p := make([]int32, size)
		for i := range p {
			p[i] = int32(i)
		}
		for i := size - 1; i > 0; i-- {
			j := r.Intn(i + 1)
			p[i], p[j] = p[j], p[i]
		}
		return p
	}
	for trial := 0; trial < 3; trial++ {
		sch := &order.Schedule{U: perm(m), V: perm(n)}
		got, err := RunScheduled(cfg, prob, 2, sch)
		if err != nil {
			t.Fatal(err)
		}
		if la.MaxAbsDiff(got.U, want.U) != 0 || la.MaxAbsDiff(got.V, want.V) != 0 {
			t.Fatalf("trial %d: random activation order changed the chain", trial)
		}
		for i := range want.AvgRMSE {
			if got.AvgRMSE[i] != want.AvgRMSE[i] || got.SampleRMSE[i] != want.SampleRMSE[i] {
				t.Fatalf("trial %d: RMSE trace not bit-identical at iter %d", trial, i)
			}
		}
	}
}

func TestRunValidatesConfig(t *testing.T) {
	prob := problem(t, datagen.Tiny(1))
	cfg := testConfig()
	cfg.Alpha = -1
	if _, err := Run(cfg, prob, 2); err == nil {
		t.Fatal("expected validation error")
	}
}

func TestKernelCountsReported(t *testing.T) {
	prob := problem(t, datagen.Small(9))
	cfg := testConfig()
	cfg.Iters = 2
	cfg.Burnin = 1
	res, err := Run(cfg, prob, 2)
	if err != nil {
		t.Fatal(err)
	}
	var total int64
	for _, c := range res.KernelCounts {
		total += c
	}
	m, n := prob.Dims()
	if total != int64(cfg.Iters)*int64(m+n) {
		t.Fatalf("kernel counts %v don't cover all updates", res.KernelCounts)
	}
}
