package des

import (
	"fmt"
	"strings"
	"testing"

	"repro/internal/core"
	"repro/internal/datagen"
	"repro/internal/dist"
	"repro/internal/sparse"
)

// raceEnabled is set by race_test.go in -race builds.
var raceEnabled bool

// TestComputeMatchesEngine holds the simulator's timing to the engine's
// where both define the same span: each rank's two item sweeps per
// iteration (dist.Stats.ComputeTime over the run's iterations, against
// ClusterResult.Compute). The cost model is calibrated in process, and
// the workload is built from the engine's own plan and test set, on both
// paper shapes trained on a 5 % hold-out, at 1 and 2 ranks of one thread
// each (one node of one core per rank, no cache speed-up). Calibration
// times the kernels on a few items whose partner rows stay in cache,
// where a sweep streams the whole partner factor, and a shared machine's
// speed moves between the calibration and the runs, so the two agree
// only to within a factor of two; that band is what this test asserts.
// Wait and speed-up are tabled in PERF.md, not asserted.
func TestComputeMatchesEngine(t *testing.T) {
	if raceEnabled {
		// The detector instruments the engine's per-grain send path
		// (coalescer appends under a mutex), which ComputeTime includes,
		// and not the assembly kernels calibration times: on ChEMBL, with
		// a send for most items, the 2-rank ratio reads 1.3–2.4 under
		// -race against ~1.0 without.
		t.Skip("the race detector slows the measured sweeps, not the calibrated kernels")
	}
	c := core.DefaultConfig()
	c.Iters, c.Burnin = 4, 2
	var probs []*core.Problem
	for _, spec := range []datagen.Spec{
		datagen.Scaled(datagen.ML20M(5), 0.01),
		datagen.Scaled(datagen.ChEMBL(5), 0.02),
	} {
		probs = append(probs, core.NewProblem(sparse.SplitTrainTest(datagen.Generate(spec).R, 0.05, 5)))
	}
	// Another process on the cores (go test runs packages side by side)
	// only ever slows a timing down. Each side takes the fastest of its
	// timings, and the comparison gets three attempts, each with its own
	// calibration: a model off by more than 2× fails all three.
	var outside []string
	for attempt := 1; attempt <= 3; attempt++ {
		if outside = compareCompute(t, c, probs); len(outside) == 0 {
			return
		}
		t.Logf("attempt %d: %d ranks outside [0.5, 2]", attempt, len(outside))
	}
	t.Errorf("measured/predicted compute outside [0.5, 2] in all three attempts; the last:\n%s", strings.Join(outside, "\n"))
}

// compareCompute calibrates, then runs each problem at 1 and 2 ranks, and
// returns a line for every rank whose measured compute per iteration
// (the fastest of three runs) is not within [0.5, 2] times the predicted.
func compareCompute(t *testing.T, c core.Config, probs []*core.Problem) (outside []string) {
	cm := CalibrateCostModel(c.K)
	t.Logf("calibrated: %+v", cm)
	for _, prob := range probs {
		for ranks := 1; ranks <= 2; ranks++ {
			name := fmt.Sprintf("%d×%d/ranks=%d", prob.R.M, prob.R.N, ranks)
			opt := dist.Options{Ranks: ranks}
			plan, test := dist.BuildPlan(prob, opt)
			m := Lynx(ranks)
			m.CoresPerNode = 1
			pred := SimulateCluster(BuildClusterWorkload(plan, test, c), m, cm, opt.BufferSize).Compute
			got := make([]float64, ranks)
			for run := 0; run < 3; run++ {
				_, stats, err := dist.RunInProc(c, prob, opt)
				if err != nil {
					t.Fatalf("%s: %v", name, err)
				}
				for q, st := range stats {
					if s := st.ComputeTime.Seconds() / float64(c.Iters); run == 0 || s < got[q] {
						got[q] = s
					}
				}
			}
			for q := range got {
				line := fmt.Sprintf("%s rank %d: compute %.3g s measured, %.3g s predicted, ratio %.2f",
					name, q, got[q], pred[q], got[q]/pred[q])
				t.Log(line)
				if r := got[q] / pred[q]; r < 0.5 || r > 2 {
					outside = append(outside, line)
				}
			}
		}
	}
	return outside
}
