package dist

import (
	"math"
	"testing"

	"repro/internal/core"
	"repro/internal/datagen"
	"repro/internal/la"
	"repro/internal/order"
	"repro/internal/sparse"
)

func problem(t *testing.T, seed uint64) *core.Problem {
	t.Helper()
	ds := datagen.Generate(datagen.Small(seed))
	train, test := sparse.SplitTrainTest(ds.R, 0.2, seed)
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

// TestDistributedScheduleIsChainInvariant drives the ranks over arbitrary
// processing orders (the identity schedule and the default locality one):
// the per-rank walk order must not change a sampled bit or the trace.
func TestDistributedScheduleIsChainInvariant(t *testing.T) {
	prob := problem(t, 12)
	cfg := testConfig()
	def, _, err := RunInProc(cfg, prob, Options{Ranks: 3})
	if err != nil {
		t.Fatal(err)
	}
	m, n := prob.Dims()
	identity := &order.Schedule{U: make([]int32, m), V: make([]int32, n)}
	for i := range identity.U {
		identity.U[i] = int32(i)
	}
	for j := range identity.V {
		identity.V[j] = int32(j)
	}
	for name, sch := range map[string]*order.Schedule{
		"identity": identity,
		"reversed": {U: reversed(m), V: reversed(n)},
	} {
		got, _, err := RunInProc(cfg, prob, Options{Ranks: 3, Schedule: sch})
		if err != nil {
			t.Fatal(err)
		}
		if la.MaxAbsDiff(got.U, def.U) != 0 || la.MaxAbsDiff(got.V, def.V) != 0 {
			t.Fatalf("schedule %q changed the chain", name)
		}
		for i := range def.AvgRMSE {
			if got.AvgRMSE[i] != def.AvgRMSE[i] {
				t.Fatalf("schedule %q changed the RMSE trace at iter %d", name, i)
			}
		}
	}
}

func TestDistributedRejectsBadSchedule(t *testing.T) {
	prob := problem(t, 14)
	cfg := testConfig()
	m, _ := prob.Dims()
	bad := &order.Schedule{U: reversed(m - 1)} // wrong length
	if _, _, err := RunInProc(cfg, prob, Options{Ranks: 2, Schedule: bad}); err == nil {
		t.Fatal("truncated schedule must be rejected, not deadlock the ranks")
	}
}

func reversed(n int) []int32 {
	p := make([]int32, n)
	for i := range p {
		p[i] = int32(n - 1 - i)
	}
	return p
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

func TestDistributedReorderMapsBack(t *testing.T) {
	prob := problem(t, 14)
	cfg := testConfig()
	cfg.Iters, cfg.Burnin = 8, 4
	res, _, err := RunInProc(cfg, prob, Options{Ranks: 4, Reorder: true})
	if err != nil {
		t.Fatal(err)
	}
	// Factors must be back in original index space: training-set RMSE with
	// the returned factors should be near the planted noise floor, and the
	// intervals must reference original test coordinates.
	var se, n float64
	for i := 0; i < prob.R.M; i++ {
		cols, vals := prob.R.Row(i)
		for p, c := range cols {
			d := la.Dot(res.U.Row(i), res.V.Row(int(c))) - vals[p]
			se += d * d
			n++
		}
	}
	if rmse := math.Sqrt(se / n); rmse > 0.8 {
		t.Fatalf("training RMSE %v too high — factors likely left in permuted space", rmse)
	}
	if len(res.Intervals) != len(prob.Test) {
		t.Fatalf("got %d intervals, want %d", len(res.Intervals), len(prob.Test))
	}
	for t2, iv := range res.Intervals {
		e := prob.Test[t2]
		if iv.Row != e.Row || iv.Col != e.Col || iv.Actual != e.Val {
			t.Fatalf("interval %d not in original test order: (%d,%d) vs (%d,%d)",
				t2, iv.Row, iv.Col, e.Row, e.Col)
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

func TestBuildPlanRemapsTestUnderReorder(t *testing.T) {
	prob := problem(t, 16)
	plan, test := BuildPlan(prob, Options{Ranks: 2, Reorder: true})
	if !plan.Reordered {
		t.Fatal("plan not reordered")
	}
	if len(test) != len(prob.Test) {
		t.Fatal("test set length changed")
	}
	for i, e := range prob.Test {
		m := test[i]
		if plan.RowPerm[m.Row] != e.Row || plan.ColPerm[m.Col] != e.Col || m.Val != e.Val {
			t.Fatalf("test entry %d not remapped consistently", i)
		}
	}
	gu, gv := MomentGroupsOf(plan)
	if gu[0] != 0 || gu[len(gu)-1] != prob.R.M || gv[0] != 0 || gv[len(gv)-1] != prob.R.N {
		t.Fatal("moment groups do not span the factor matrices")
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
