package mc

import (
	"math"
	"testing"

	"repro/internal/core"
	"repro/internal/datagen"
	"repro/internal/la"
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
	cfg.Iters = 5
	cfg.Burnin = 2
	// Force all three kernels to participate on small data.
	cfg.RankOneMax = 4
	cfg.KernelThreshold = 20
	cfg.ParallelGrain = 7
	return cfg
}

func TestWorkStealMatchesSequentialBitwise(t *testing.T) {
	prob := problem(t, datagen.Small(9))
	cfg := testConfig()
	seq, err := core.NewSampler(cfg, prob)
	if err != nil {
		t.Fatal(err)
	}
	want := seq.Run()
	for _, threads := range []int{1, 2, 4} {
		got, err := Run(WorkSteal, cfg, prob, threads)
		if err != nil {
			t.Fatal(err)
		}
		if la.MaxAbsDiff(got.U, want.U) != 0 || la.MaxAbsDiff(got.V, want.V) != 0 {
			t.Fatalf("threads=%d: work-steal chain differs from sequential", threads)
		}
		for i := range want.AvgRMSE {
			if math.Abs(got.AvgRMSE[i]-want.AvgRMSE[i]) > 1e-12 {
				t.Fatalf("threads=%d: RMSE trace differs at iter %d", threads, i)
			}
		}
	}
}

func TestStaticMatchesSequentialBitwise(t *testing.T) {
	prob := problem(t, datagen.Small(10))
	cfg := testConfig()
	seq, err := core.NewSampler(cfg, prob)
	if err != nil {
		t.Fatal(err)
	}
	want := seq.Run()
	for _, threads := range []int{1, 3, 8} {
		got, err := Run(Static, cfg, prob, threads)
		if err != nil {
			t.Fatal(err)
		}
		if la.MaxAbsDiff(got.U, want.U) != 0 || la.MaxAbsDiff(got.V, want.V) != 0 {
			t.Fatalf("threads=%d: static chain differs from sequential", threads)
		}
	}
}

func TestEnginesMatchEachOther(t *testing.T) {
	prob := problem(t, datagen.Tiny(4))
	cfg := testConfig()
	cfg.Iters = 3
	a, err := Run(WorkSteal, cfg, prob, 4)
	if err != nil {
		t.Fatal(err)
	}
	b, err := Run(Static, cfg, prob, 2)
	if err != nil {
		t.Fatal(err)
	}
	if la.MaxAbsDiff(a.U, b.U) != 0 || la.MaxAbsDiff(a.V, b.V) != 0 {
		t.Fatal("work-steal and static chains differ")
	}
}

func TestKernelCountsAccumulate(t *testing.T) {
	prob := problem(t, datagen.Small(9))
	cfg := testConfig()
	cfg.Iters = 2
	cfg.Burnin = 1
	res, err := Run(WorkSteal, cfg, prob, 2)
	if err != nil {
		t.Fatal(err)
	}
	var total int64
	for _, c := range res.KernelCounts {
		total += c
	}
	m, n := prob.Dims()
	if total != int64(cfg.Iters)*int64(m+n) {
		t.Fatalf("kernel counts %v don't sum to item updates", res.KernelCounts)
	}
	// The Zipf skew must exercise all three kernels with these thresholds.
	for k, c := range res.KernelCounts {
		if c == 0 {
			t.Fatalf("kernel %v never used; thresholds not exercising hybrid path", core.Kernel(k))
		}
	}
}

// TestScheduledOrderIsChainInvariant: both engines at several thread
// counts walk the sampler's lane order and reproduce the sequential
// sampler's chain bit for bit — factors AND the full RMSE trace, which
// runs through the same fixed evaluation chunk tree everywhere. That any
// permutation of a phase samples the same bits is pinned on UpdateRange
// itself (core.TestUpdateRangeMatchesScalarReference's permuted and split
// sweeps).
func TestScheduledOrderIsChainInvariant(t *testing.T) {
	prob := problem(t, datagen.Small(17))
	cfg := testConfig()
	seq, err := core.NewSampler(cfg, prob)
	if err != nil {
		t.Fatal(err)
	}
	want := seq.Run()
	for _, engine := range []Engine{WorkSteal, Static} {
		for _, threads := range []int{1, 3} {
			got, err := Run(engine, cfg, prob, threads)
			if err != nil {
				t.Fatal(err)
			}
			if la.MaxAbsDiff(got.U, want.U) != 0 || la.MaxAbsDiff(got.V, want.V) != 0 {
				t.Fatalf("%v threads=%d: chain differs from sequential", engine, threads)
			}
			for i := range want.AvgRMSE {
				if got.AvgRMSE[i] != want.AvgRMSE[i] || got.SampleRMSE[i] != want.SampleRMSE[i] {
					t.Fatalf("%v threads=%d: RMSE trace not bit-identical at iter %d", engine, threads, i)
				}
			}
		}
	}
}

// TestRMSETraceBitIdenticalToSequential tightens the old 1e-12 tolerance:
// with the shared evaluation chunk tree the parallel engines' RMSE traces
// equal the sequential sampler's exactly.
func TestRMSETraceBitIdenticalToSequential(t *testing.T) {
	prob := problem(t, datagen.Small(21))
	cfg := testConfig()
	seq, err := core.NewSampler(cfg, prob)
	if err != nil {
		t.Fatal(err)
	}
	want := seq.Run()
	got, err := Run(WorkSteal, cfg, prob, 4)
	if err != nil {
		t.Fatal(err)
	}
	for i := range want.AvgRMSE {
		if got.AvgRMSE[i] != want.AvgRMSE[i] || got.SampleRMSE[i] != want.SampleRMSE[i] {
			t.Fatalf("RMSE trace differs at iter %d: %v vs %v", i, got.AvgRMSE[i], want.AvgRMSE[i])
		}
	}
}

func TestRunValidatesConfig(t *testing.T) {
	prob := problem(t, datagen.Tiny(1))
	cfg := testConfig()
	cfg.K = 0
	if _, err := Run(WorkSteal, cfg, prob, 2); err == nil {
		t.Fatal("expected config validation error")
	}
}

func TestRMSEImproves(t *testing.T) {
	prob := problem(t, datagen.Small(33))
	cfg := core.DefaultConfig()
	cfg.K = 8
	cfg.Iters = 10
	cfg.Burnin = 5
	res, err := Run(WorkSteal, cfg, prob, 4)
	if err != nil {
		t.Fatal(err)
	}
	if !(res.FinalRMSE() < res.SampleRMSE[0]) {
		t.Fatalf("RMSE did not improve: %v -> %v", res.SampleRMSE[0], res.FinalRMSE())
	}
	if res.UpdatesPerSec() <= 0 {
		t.Fatal("throughput must be positive")
	}
}

func TestEngineNames(t *testing.T) {
	if WorkSteal.String() != "TBB" || Static.String() != "OpenMP" {
		t.Fatal("engine names must match Figure 3's legend")
	}
}

func TestMomentGroupsRespected(t *testing.T) {
	// Engines configured with explicit moment groups must still match the
	// sequential sampler configured identically.
	prob := problem(t, datagen.Tiny(8))
	cfg := testConfig()
	m, n := prob.Dims()
	cfg.MomentGroupsU = []int{0, m / 3, m}
	cfg.MomentGroupsV = []int{0, n / 2, n}
	seq, err := core.NewSampler(cfg, prob)
	if err != nil {
		t.Fatal(err)
	}
	want := seq.Run()
	got, err := Run(WorkSteal, cfg, prob, 3)
	if err != nil {
		t.Fatal(err)
	}
	if la.MaxAbsDiff(got.U, want.U) != 0 {
		t.Fatal("grouped-moment chains differ")
	}
}
