package core

import (
	"testing"

	"repro/internal/datagen"
	"repro/internal/sparse"
)

// stepAllocBudget is what one steady-state sequential Step allocated
// before the engines were folded into this sampler: the two default
// GroupBoundaries lists and the two HyperStream keys. Owning the engines'
// state and dispatch must not cost the sequential path a single
// allocation more.
const stepAllocBudget = 4

func TestSequentialStepAllocsPinned(t *testing.T) {
	ds := datagen.Generate(datagen.Small(3))
	train, test := sparse.SplitTrainTest(ds.R, 0.2, 3)
	cfg := DefaultConfig()
	cfg.K, cfg.Iters, cfg.Burnin = 8, 400, 2
	// All three kernels, so the parallel kernel's chunk arena is in play.
	cfg.RankOneMax, cfg.KernelThreshold, cfg.ParallelGrain = 4, 20, 7
	s, err := NewSampler(cfg, NewProblem(train, test))
	if err != nil {
		t.Fatal(err)
	}
	it := 0
	step := func() { s.Step(it); it++ }
	for i := 0; i < 4; i++ {
		step() // warm the workspace arena and pass burn-in
	}
	if allocs := testing.AllocsPerRun(50, step); allocs > stepAllocBudget {
		t.Fatalf("sequential Step: %v allocs in steady state, budget %d", allocs, stepAllocBudget)
	}
}
