package graphlab

import (
	"math"
	"testing"

	"repro/internal/core"
	"repro/internal/datagen"
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

// TestGraphLabMatchesSequentialBitwise: "all versions reach the same level
// of prediction accuracy" — here exactly, because the vertex program
// delegates to the same kernels with the same keyed streams, one workspace
// per engine thread.
func TestGraphLabMatchesSequentialBitwise(t *testing.T) {
	checkMatchesSequential(t, 9)
}

// TestActivationOrderIsChainInvariant: the engine activates each
// superstep's vertices in vertex-id order, not the sequential sampler's
// lane order, and still reproduces the sequential chain and RMSE trace bit
// for bit at every thread count. That any activation order samples the
// same bits is pinned on UpdateRange itself
// (core.TestUpdateRangeMatchesScalarReference).
func TestActivationOrderIsChainInvariant(t *testing.T) {
	checkMatchesSequential(t, 13)
}

// checkMatchesSequential runs the GraphLab engine on datagen.Small(seed) at
// 1, 2 and 3 threads and at more threads than the smaller side has vertices
// (StaticFor's cap), and requires U, V, SampleRMSE and AvgRMSE to equal the
// sequential sampler's bit for bit.
func checkMatchesSequential(t *testing.T, seed uint64) {
	t.Helper()
	prob := problem(t, datagen.Small(seed))
	cfg := testConfig()
	seq, err := core.NewSampler(cfg, prob)
	if err != nil {
		t.Fatal(err)
	}
	want := seq.Run()
	m, n := prob.Dims()
	for _, threads := range []int{1, 2, 3, min(m, n) + 1} {
		got, err := Run(cfg, prob, threads)
		if err != nil {
			t.Fatal(err)
		}
		for _, c := range []struct {
			name      string
			got, want []float64
		}{
			{"U", got.U.Data, want.U.Data},
			{"V", got.V.Data, want.V.Data},
			{"SampleRMSE", got.SampleRMSE, want.SampleRMSE},
			{"AvgRMSE", got.AvgRMSE, want.AvgRMSE},
		} {
			if len(c.got) != len(c.want) {
				t.Fatalf("seed=%d threads=%d: %s has %d values, sequential %d", seed, threads, c.name, len(c.got), len(c.want))
			}
			for i := range c.want {
				if math.Float64bits(c.got[i]) != math.Float64bits(c.want[i]) {
					t.Fatalf("seed=%d threads=%d: %s[%d] = %v, sequential %v", seed, threads, c.name, i, c.got[i], c.want[i])
				}
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
