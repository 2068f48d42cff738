package bpmf

import (
	"bytes"
	"math"
	"testing"

	"repro/internal/core"
	"repro/internal/datagen"
	"repro/internal/dist"
	"repro/internal/graphlab"
	"repro/internal/mc"
	"repro/internal/sparse"
)

// engineCase is one way of executing the Gibbs chain. Shared-memory
// engines bind an executor to a core.Sampler (attach); the distributed
// engine runs ranks > 0 in-process nodes.
type engineCase struct {
	name   string
	attach func(s *core.Sampler) (release func(), err error)
	ranks  int
}

func engineCases() []engineCase {
	mcEngine := func(e mc.Engine, threads int) func(*core.Sampler) (func(), error) {
		return func(s *core.Sampler) (func(), error) { return mc.Attach(s, e, threads, nil) }
	}
	return []engineCase{
		{name: "sequential", attach: func(*core.Sampler) (func(), error) { return func() {}, nil }},
		{name: "worksteal-1", attach: mcEngine(mc.WorkSteal, 1)},
		{name: "worksteal-3", attach: mcEngine(mc.WorkSteal, 3)},
		{name: "static-3", attach: mcEngine(mc.Static, 3)},
		{name: "graphlab-2", attach: func(s *core.Sampler) (func(), error) {
			return func() {}, graphlab.Attach(s, 2, nil)
		}},
		{name: "distributed-2", ranks: 2},
		{name: "distributed-3", ranks: 3},
	}
}

// chainOut is what a finished chain is compared by.
type chainOut struct {
	res  *core.Result
	ckpt []byte // serialized final checkpoint (shared-memory engines)
}

func ckptBytes(t *testing.T, c *core.Checkpoint) []byte {
	t.Helper()
	var buf bytes.Buffer
	if err := c.Write(&buf); err != nil {
		t.Fatal(err)
	}
	return buf.Bytes()
}

// runShared runs the chain on a shared-memory engine. With cut > 0 the
// run is interrupted after iteration cut-1: the state goes through a
// serialized checkpoint into a new sampler bound to a new executor,
// which finishes the chain.
func runShared(t *testing.T, ec engineCase, cfg core.Config, prob *core.Problem, cut int) chainOut {
	t.Helper()
	bind := func(s *core.Sampler, err error) (*core.Sampler, func()) {
		if err != nil {
			t.Fatal(err)
		}
		release, err := ec.attach(s)
		if err != nil {
			t.Fatal(err)
		}
		return s, release
	}
	s, release := bind(core.NewSampler(cfg, prob))
	if cut > 0 {
		for it := 0; it < cut; it++ {
			s.Step(it)
		}
		mid, err := core.ReadCheckpoint(bytes.NewReader(ckptBytes(t, s.Checkpoint())))
		release()
		if err != nil {
			t.Fatal(err)
		}
		s, release = bind(core.ResumeSampler(cfg, prob, mid))
	}
	defer release()
	res := s.RunFrom(cut)
	return chainOut{res: res, ckpt: ckptBytes(t, s.Checkpoint())}
}

// runDist runs the chain on an in-process cluster that seals a
// coordinated checkpoint after iteration cut-1, then restarts a fresh
// cluster from that manifest. It returns both finished chains.
func runDist(t *testing.T, ranks int, cfg core.Config, prob *core.Problem, cut int) (fresh, resumed chainOut) {
	t.Helper()
	dir := t.TempDir()
	src := dist.Source{Prob: prob}
	res, _, _, err := dist.RunRounds(cfg, src, nil,
		dist.Options{Ranks: ranks, CheckpointDir: dir, CheckpointEvery: cut}, nil)
	if err != nil {
		t.Fatal(err)
	}
	man, err := dist.ReadManifest(dir, cut)
	if err != nil {
		t.Fatal(err)
	}
	res2, _, _, err := dist.RunRounds(cfg, src, man, dist.Options{Ranks: ranks, CheckpointDir: dir}, nil)
	if err != nil {
		t.Fatal(err)
	}
	return chainOut{res: res}, chainOut{res: res2}
}

func sameBits(a, b []float64) bool {
	if len(a) != len(b) {
		return false
	}
	for i := range a {
		if math.Float64bits(a[i]) != math.Float64bits(b[i]) {
			return false
		}
	}
	return true
}

// TestEveryEngineSamplesTheSequentialChain is the one differential over
// every way of executing Algorithm 1: each engine, run fresh and run
// interrupted-then-resumed, must finish with the factor bytes, kernel
// tallies and RMSE trace of the sequential reference configured with the
// matching moment groups — and, where the chain state lives in one
// sampler (every shared-memory engine), the same serialized checkpoint
// bytes, which is what lets any of them write the file bpmf-serve loads.
func TestEveryEngineSamplesTheSequentialChain(t *testing.T) {
	ds := datagen.Generate(datagen.Small(23))
	train, test := sparse.SplitTrainTest(ds.R, 0.2, 23)
	prob := core.NewProblem(train, test)
	cfg := core.DefaultConfig()
	cfg.K, cfg.Iters, cfg.Burnin = 6, 7, 2
	// Force all three kernels to participate on small data.
	cfg.RankOneMax, cfg.KernelThreshold, cfg.ParallelGrain = 4, 20, 7
	const cut = 3

	for _, ec := range engineCases() {
		ec := ec
		t.Run(ec.name, func(t *testing.T) {
			refCfg := cfg
			if ec.ranks > 0 {
				plan, _ := dist.BuildPlan(prob, dist.Options{Ranks: ec.ranks})
				refCfg.MomentGroupsU, refCfg.MomentGroupsV = dist.MomentGroupsOf(plan)
			}
			want := runShared(t, engineCases()[0], refCfg, prob, 0)

			runs := map[string]chainOut{}
			if ec.ranks > 0 {
				runs["fresh"], runs["resumed"] = runDist(t, ec.ranks, cfg, prob, cut)
			} else {
				runs["fresh"] = runShared(t, ec, cfg, prob, 0)
				runs["resumed"] = runShared(t, ec, cfg, prob, cut)
			}
			for mode, got := range runs {
				if !sameBits(got.res.U.Data, want.res.U.Data) || !sameBits(got.res.V.Data, want.res.V.Data) {
					t.Fatalf("%s: factors differ from the sequential reference", mode)
				}
				if got.res.KernelCounts != want.res.KernelCounts {
					t.Fatalf("%s: kernel counts %v, sequential %v", mode, got.res.KernelCounts, want.res.KernelCounts)
				}
				if len(got.res.AvgRMSE) != cfg.Iters || len(got.res.SampleRMSE) != cfg.Iters {
					t.Fatalf("%s: trace lengths %d/%d, want %d", mode, len(got.res.SampleRMSE), len(got.res.AvgRMSE), cfg.Iters)
				}
				if ec.ranks == 0 {
					if !sameBits(got.res.SampleRMSE, want.res.SampleRMSE) || !sameBits(got.res.AvgRMSE, want.res.AvgRMSE) {
						t.Fatalf("%s: RMSE trace differs from the sequential reference", mode)
					}
					if !bytes.Equal(got.ckpt, want.ckpt) {
						t.Fatalf("%s: serialized checkpoint differs from the sequential reference", mode)
					}
					continue
				}
				// A rank sums its own test entries before the allreduce, the
				// sequential sampler walks one global chunk tree: the same
				// errors in another summation order, equal to reduction
				// tolerance (the chain itself, above, is bitwise).
				for i := range want.res.AvgRMSE {
					if math.Abs(got.res.SampleRMSE[i]-want.res.SampleRMSE[i]) > 1e-12 ||
						math.Abs(got.res.AvgRMSE[i]-want.res.AvgRMSE[i]) > 1e-12 {
						t.Fatalf("%s: RMSE at iteration %d: (%v, %v), sequential (%v, %v)", mode, i,
							got.res.SampleRMSE[i], got.res.AvgRMSE[i], want.res.SampleRMSE[i], want.res.AvgRMSE[i])
					}
				}
			}
			if ec.ranks > 0 {
				// Between the two clusters the summation order is the same,
				// so the resumed trace equals the uninterrupted one bitwise.
				f, r := runs["fresh"].res, runs["resumed"].res
				if !sameBits(f.SampleRMSE, r.SampleRMSE) || !sameBits(f.AvgRMSE, r.AvgRMSE) {
					t.Fatal("resumed cluster's RMSE trace differs from the uninterrupted cluster's")
				}
			}
		})
	}
}

// TestCheckpointBytesDoNotDependOnEngine pins the public half of the
// same contract: TrainWithCheckpoint and ResumeWithCheckpoint accept
// every engine, and whichever one trains, the checkpoint they write is
// the sequential one, byte for byte.
func TestCheckpointBytesDoNotDependOnEngine(t *testing.T) {
	m, n, ratings := syntheticRatings(t, 29)
	data, err := DataFromRatings(m, n, ratings, 0.2, 29)
	if err != nil {
		t.Fatal(err)
	}
	var want []byte
	for _, e := range []Engine{Sequential, WorkSteal, Static, GraphLab, Distributed} {
		cfg := quickConfig(e)
		short := cfg
		short.Iters = cfg.Burnin + 1
		var mid, full bytes.Buffer
		if _, err := TrainWithCheckpoint(data, short, &mid); err != nil {
			t.Fatalf("%v: %v", e, err)
		}
		if _, err := ResumeWithCheckpoint(data, cfg, &mid, &full); err != nil {
			t.Fatalf("%v: %v", e, err)
		}
		if want == nil {
			want = full.Bytes()
		} else if !bytes.Equal(full.Bytes(), want) {
			t.Fatalf("%v: train-then-resume checkpoint differs from the sequential engine's", e)
		}
	}
}
