package des

import (
	"fmt"
	"math"
	"testing"

	"repro/internal/core"
	"repro/internal/datagen"
	"repro/internal/dist"
	"repro/internal/la"
	"repro/internal/sparse"
)

// traffic returns the simulator's per-iteration traffic of every rank of
// w at a coalescing buffer of bufferBytes (dist.Options.BufferSize's
// meaning; negative is one message per item): items sent, ghost rows
// received, and messages, counted from emitMessages — the messages
// SimulateCluster pushes through its network.
func traffic(w *ClusterWorkload, bufferBytes int) (items, ghosts, msgs []int64) {
	p := w.Ranks
	items, ghosts, msgs = make([]int64, p), make([]int64, p), make([]int64, p)
	zero := make([]float64, p)
	for _, sends := range [][][]int64{w.MovieSends, w.UserSends} {
		for q := range sends {
			for d, n := range sends[q] {
				items[q] += n
				ghosts[d] += n
			}
		}
		for _, m := range emitMessages(sends, zero, zero, w.RecordBytes, bufferBytes) {
			msgs[m.src]++
		}
	}
	return items, ghosts, msgs
}

// checkTraffic runs prob on the in-process cluster and requires every
// rank's measured ItemsSent, GhostsRecv and Flushes — totals over the
// run — to equal iters times the simulator's per-iteration counts for
// the workload built from the engine's own plan and test set.
func checkTraffic(t *testing.T, name string, c core.Config, prob *core.Problem, opt dist.Options) []dist.Stats {
	t.Helper()
	plan, test := dist.BuildPlan(prob, opt)
	w := BuildClusterWorkload(plan, test, c)
	_, stats, err := dist.RunInProc(c, prob, opt)
	if err != nil {
		t.Fatalf("%s: %v", name, err)
	}
	items, ghosts, msgs := traffic(w, opt.BufferSize)
	n := int64(c.Iters)
	for q, st := range stats {
		t.Logf("%s rank %d: %d items, %d ghosts, %d messages per iteration (des); measured %d, %d, %d over %d",
			name, q, items[q], ghosts[q], msgs[q], st.ItemsSent, st.GhostsRecv, st.Flushes, n)
		if st.ItemsSent != n*items[q] || st.GhostsRecv != n*ghosts[q] || int64(st.Flushes) != n*msgs[q] {
			t.Errorf("%s rank %d: measured %d items, %d ghosts, %d messages over %d iterations; des predicts %d, %d, %d per iteration",
				name, q, st.ItemsSent, st.GhostsRecv, st.Flushes, n, items[q], ghosts[q], msgs[q])
		}
	}
	return stats
}

// TestTrafficMatchesEngine pins the simulator's traffic to the engine's
// with no tolerance, on both paper shapes (trained on a 5 % hold-out
// split, as cmd/experiments' Figures 4–5 model them), at 1–4 ranks, with
// the default buffer, per-item sends, and a buffer that fills every
// dozen records.
func TestTrafficMatchesEngine(t *testing.T) {
	c := core.DefaultConfig()
	c.K, c.Iters, c.Burnin = 8, 2, 1
	for _, spec := range []datagen.Spec{
		datagen.Scaled(datagen.ML20M(5), 0.01),
		datagen.Scaled(datagen.ChEMBL(5), 0.02),
	} {
		prob := core.NewProblem(sparse.SplitTrainTest(datagen.Generate(spec).R, 0.05, 5))
		for ranks := 1; ranks <= 4; ranks++ {
			for _, buf := range []int{dist.DefaultBufferSize, -1, 1000} {
				name := fmt.Sprintf("%s/ranks=%d/buffer=%d", spec.Name, ranks, buf)
				checkTraffic(t, name, c, prob, dist.Options{Ranks: ranks, BufferSize: buf})
			}
		}
	}
}

// TestTrafficRoutesTestSet covers the routing term no generated shape
// exercises: a movie row that no foreign rank rates but a foreign rank
// scores. An 8×8 block-diagonal matrix on 2 ranks exchanges no training
// ghosts; its two held-out entries cross the blocks, so each rank must
// ship one movie row per iteration. The simulator must count them, and
// the distributed chain — whose evaluation reads them — must equal the
// sequential one with the plan's moment groups.
func TestTrafficRoutesTestSet(t *testing.T) {
	coo := sparse.NewCOO(8, 8, 32)
	for b := 0; b < 8; b += 4 {
		for i := b; i < b+4; i++ {
			for j := b; j < b+4; j++ {
				coo.Add(i, j, float64(1+(3*i+j)%5))
			}
		}
	}
	test := []sparse.Entry{{Row: 1, Col: 6, Val: 4}, {Row: 5, Col: 2, Val: 2}}
	prob := core.NewProblem(coo.ToCSR(), test)
	c := core.DefaultConfig()
	c.K, c.Iters, c.Burnin = 4, 6, 2
	opt := dist.Options{Ranks: 2}
	plan, _ := dist.BuildPlan(prob, opt)
	if fmt.Sprint(plan.RowBounds, plan.ColBounds) != "[0 4 8] [0 4 8]" {
		t.Fatalf("plan %v %v does not split the blocks", plan.RowBounds, plan.ColBounds)
	}

	stats := checkTraffic(t, "block-diagonal", c, prob, opt)
	for q, st := range stats {
		if st.ItemsSent != int64(c.Iters) {
			t.Errorf("rank %d sent %d rows over %d iterations, want one per iteration", q, st.ItemsSent, c.Iters)
		}
	}

	res, _, err := dist.RunInProc(c, prob, opt)
	if err != nil {
		t.Fatal(err)
	}
	seq := c
	seq.MomentGroupsU, seq.MomentGroupsV = dist.MomentGroupsOf(plan)
	s, err := core.NewSampler(seq, prob)
	if err != nil {
		t.Fatal(err)
	}
	want := s.Run()
	if la.MaxAbsDiff(res.U, want.U) != 0 || la.MaxAbsDiff(res.V, want.V) != 0 {
		t.Fatal("distributed factors differ from sequential@dist-groups")
	}
	for it := range want.SampleRMSE {
		if !sameBits(res.SampleRMSE[it], want.SampleRMSE[it]) || !sameBits(res.AvgRMSE[it], want.AvgRMSE[it]) {
			t.Fatalf("iteration %d: distributed RMSE %v / %v, sequential@dist-groups %v / %v",
				it, res.SampleRMSE[it], res.AvgRMSE[it], want.SampleRMSE[it], want.AvgRMSE[it])
		}
	}
}

func sameBits(a, b float64) bool { return math.Float64bits(a) == math.Float64bits(b) }
