package dist

import (
	"math"
	"testing"

	"repro/internal/core"
	"repro/internal/datagen"
	"repro/internal/la"
	"repro/internal/sparse"
)

func problem(t *testing.T, seed uint64) *core.Problem {
	t.Helper()
	ds := datagen.Generate(datagen.Small(seed))
	train, test := sparse.SplitTrainTest(ds.R, 0.2, seed)
	return core.NewProblem(train, test)
}

// sourceOf is SourceOf for a test that cannot go on without it.
func sourceOf(t *testing.T, prob *core.Problem) Source {
	t.Helper()
	src, err := SourceOf(prob)
	if err != nil {
		t.Fatal(err)
	}
	return src
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

// sequentialRef runs the sequential sampler with the partition's moment
// grouping, which must reproduce the distributed chain bit-for-bit.
func sequentialRef(t *testing.T, cfg core.Config, prob *core.Problem, ranks int) *core.Result {
	t.Helper()
	plan, _ := BuildPlan(prob, Options{Ranks: ranks})
	cfg.MomentGroupsU, cfg.MomentGroupsV = MomentGroupsOf(plan)
	s, err := core.NewSampler(cfg, prob)
	if err != nil {
		t.Fatal(err)
	}
	return s.Run()
}

func TestDistributedMatchesSequentialBitwise(t *testing.T) {
	prob := problem(t, 9)
	cfg := testConfig()
	for _, ranks := range []int{1, 2, 4} {
		want := sequentialRef(t, cfg, prob, ranks)
		got, stats, err := RunInProc(cfg, prob, Options{Ranks: ranks})
		if err != nil {
			t.Fatal(err)
		}
		if la.MaxAbsDiff(got.U, want.U) != 0 || la.MaxAbsDiff(got.V, want.V) != 0 {
			t.Fatalf("ranks=%d: distributed chain differs from sequential reference", ranks)
		}
		if got.KernelCounts != want.KernelCounts {
			t.Fatalf("ranks=%d: kernel counts %v != %v", ranks, got.KernelCounts, want.KernelCounts)
		}
		if len(stats) != ranks {
			t.Fatalf("ranks=%d: got %d stats", ranks, len(stats))
		}
		if ranks > 1 {
			var sent, recv int64
			for _, s := range stats {
				sent += s.ItemsSent
				recv += s.GhostsRecv
			}
			if sent == 0 || sent != recv {
				t.Fatalf("ranks=%d: ghost accounting broken: sent %d recv %d", ranks, sent, recv)
			}
		}
		for i := range want.AvgRMSE {
			if math.Abs(got.AvgRMSE[i]-want.AvgRMSE[i]) > 1e-12 {
				t.Fatalf("ranks=%d: RMSE trace differs at iter %d: %v vs %v",
					ranks, i, got.AvgRMSE[i], want.AvgRMSE[i])
			}
		}
	}
}

func TestDistributedThreadsPerRankBitIdentical(t *testing.T) {
	prob := problem(t, 10)
	cfg := testConfig()
	base, _, err := RunInProc(cfg, prob, Options{Ranks: 2})
	if err != nil {
		t.Fatal(err)
	}
	threaded, _, err := RunInProc(cfg, prob, Options{Ranks: 2, ThreadsPerRank: 3})
	if err != nil {
		t.Fatal(err)
	}
	if la.MaxAbsDiff(base.U, threaded.U) != 0 || la.MaxAbsDiff(base.V, threaded.V) != 0 {
		t.Fatal("per-rank threading changed the chain")
	}
	// The threaded rank evaluates chunk-parallel on its pool, the serial
	// rank inline — same fixed chunk tree, so the traces must match bit
	// for bit, not just within tolerance.
	for i := range base.AvgRMSE {
		if base.AvgRMSE[i] != threaded.AvgRMSE[i] || base.SampleRMSE[i] != threaded.SampleRMSE[i] {
			t.Fatalf("RMSE trace not bit-identical at iter %d", i)
		}
	}
}

func TestDistributedBufferSizeBitIdentical(t *testing.T) {
	prob := problem(t, 12)
	cfg := testConfig()
	var ref *core.Result
	for _, buf := range []int{-1, 256, DefaultBufferSize} {
		res, _, err := RunInProc(cfg, prob, Options{Ranks: 2, BufferSize: buf})
		if err != nil {
			t.Fatal(err)
		}
		if ref == nil {
			ref = res
			continue
		}
		if la.MaxAbsDiff(res.U, ref.U) != 0 {
			t.Fatalf("buffer size %d changed the chain", buf)
		}
	}
}

func TestDistributedIntervalsMatchSequential(t *testing.T) {
	prob := problem(t, 15)
	cfg := testConfig()
	want := sequentialRef(t, cfg, prob, 2)
	got, _, err := RunInProc(cfg, prob, Options{Ranks: 2})
	if err != nil {
		t.Fatal(err)
	}
	if len(got.Intervals) != len(want.Intervals) {
		t.Fatalf("interval count %d != %d", len(got.Intervals), len(want.Intervals))
	}
	for i := range want.Intervals {
		w, g := want.Intervals[i], got.Intervals[i]
		if w.Row != g.Row || w.Col != g.Col || w.Mean != g.Mean || w.Std != g.Std {
			t.Fatalf("interval %d differs: %+v vs %+v", i, w, g)
		}
	}
}

func TestNewNodeValidation(t *testing.T) {
	prob := problem(t, 17)
	bad := testConfig()
	bad.K = 0
	if _, _, err := RunInProc(bad, prob, Options{Ranks: 2}); err == nil {
		t.Fatal("expected config validation error")
	}
}
