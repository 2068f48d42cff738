package main

import (
	"fmt"
	"math"

	"repro/internal/core"
	"repro/internal/datagen"
	"repro/internal/des"
	"repro/internal/dist"
	"repro/internal/graphlab"
	"repro/internal/la"
	"repro/internal/mc"
	"repro/internal/partition"
	"repro/internal/sparse"
)

// fig2 reproduces Figure 2: time to update one item versus the number of
// ratings, for the three kernels. Each is measured on this machine as the
// sweeps run it (des.SweepTime: one UpdateRange over a lane group of
// items, the kernel forced at every degree); the parallel kernel runs its
// chunk DAG on one core there and is additionally projected onto the
// paper's 12-core node as the work-stealing sweep of that one item on
// des.Lynx(1), with the parallel kernel forced the same way.
func fig2(cfg core.Config, cm des.CostModel) {
	fmt.Println("\n== Figure 2: compute time to update one item (K=32) ==")
	fmt.Println("# columns: ratings, rankupdate(ms), serial_chol(ms), parallel_chol@1core(ms), parallel_chol@12cores-model(ms)")
	par := cfg
	par.RankOneMax, par.KernelThreshold = 0, 1
	for _, nnz := range []int{1, 3, 10, 30, 100, 300, 1000, 3000, 10000, 30000, 100000} {
		fmt.Printf("%8d", nnz)
		for _, kern := range []core.Kernel{core.KernelRankOne, core.KernelCholesky, core.KernelParallelCholesky} {
			fmt.Printf("  %12.5f", des.SweepTime(cfg, kern, la.Lanes, nnz)*1000)
		}
		fmt.Printf("  %12.5f\n", des.Lynx(1).Sweep([]int{nnz}, cm, &par)*1000)
	}
	fmt.Println("# paper shape: rankupdate cheapest for few ratings, serial Cholesky in the middle,")
	fmt.Println("# parallel Cholesky wins beyond ~1000 ratings (the hybrid threshold).")
}

// fig3 reproduces Figure 3: multi-core throughput (item updates per
// second) on the ChEMBL workload versus thread count for the TBB-style,
// OpenMP-style and GraphLab-style engines. Thread scaling is virtual time
// on one simulated node (the paper's 12-core Westmere is not the machine
// this runs on); the same engines are additionally run for real at 1
// thread to validate the model's single-thread ratio. Both train on the
// split a run would (a 5 % hold-out) and score its test set.
func fig3(cfg core.Config, cm des.CostModel, scale float64) {
	fmt.Println("\n== Figure 3: multi-core BPMF on ChEMBL (updates/second) ==")
	ds := chemblData(scale)
	fmt.Printf("# workload: %d compounds x %d targets, %d ratings (scale %.3g)\n",
		ds.R.M, ds.R.N, ds.R.NNZ(), scale)
	train, test := sparse.SplitTrainTest(ds.R, 0.05, ds.Spec.Seed)
	w := des.BuildClusterWorkload(partition.Build(train, 1), test, cfg)

	fmt.Println("# columns: threads, TBB, OpenMP, GraphLab  (x1000 items/s, virtual time,")
	fmt.Println("# full iteration incl. chunk-parallel evaluation of a 5% held-out split)")
	for _, threads := range []int{1, 2, 4, 8, 16} {
		fmt.Printf("%8d", threads)
		for _, pol := range []des.Policy{des.PolicyWorkSteal, des.PolicyStatic, des.PolicyGraphLab} {
			m := des.Lynx(1)
			m.CoresPerNode, m.Policy = threads, pol
			fmt.Printf("  %10.2f", des.SimulateCluster(w, m, cm, dist.DefaultBufferSize).ItemsPerSec/1000)
		}
		fmt.Println()
	}

	// Real single-thread validation runs (one Gibbs iteration each).
	fmt.Println("# real 1-thread validation (measured on this host, 1 iteration):")
	fmt.Println("# (GraphLab draws every vertex as a lane group of one, Sampler.DrawItem; TBB and")
	fmt.Println("# OpenMP draw rank-one and serial-Cholesky items four per register through UpdateRange)")
	prob := core.NewProblem(train, test)
	one := cfg
	one.Iters, one.Burnin = 1, 0
	type run struct {
		name string
		fn   func() (*core.Result, error)
	}
	for _, r := range []run{
		{"TBB(worksteal)", func() (*core.Result, error) { return mc.Run(mc.WorkSteal, one, prob, 1) }},
		{"OpenMP(static)", func() (*core.Result, error) { return mc.Run(mc.Static, one, prob, 1) }},
		{"GraphLab", func() (*core.Result, error) { return graphlab.Run(one, prob, 1) }},
	} {
		res, err := r.fn()
		if err != nil {
			fmt.Printf("#   %-16s error: %v\n", r.name, err)
			continue
		}
		fmt.Printf("#   %-16s %10.2f x1000 items/s\n", r.name, res.UpdatesPerSec()/1000)
	}
	fmt.Println("# paper shape: all engines scale with cores; TBB > OpenMP (work stealing wins on")
	fmt.Println("# the skewed rating distribution); GraphLab trails both by a wide margin. Here the")
	fmt.Println("# real GraphLab runs also carry a kernel handicap: one rank-one vertex per draw")
	fmt.Println("# against TBB/OpenMP's four lanes per register.")
}

// fig45 reproduces Figures 4 and 5 from one set of simulations of the
// MovieLens workload on the BlueGene/Q machine model (16 cores/node,
// 32-node racks), printing the tables asked for. Figure 4 is distributed
// strong scaling: items per second and parallel efficiency versus node
// count. Figure 5 is the fraction of iteration time each node spends
// computing, communicating, and doing both (overlap), up to 128 nodes.
func fig45(cfg core.Config, cm des.CostModel, scale float64, fig4, fig5 bool) {
	ds := ml20mData(scale)
	// The simulated cluster trains on the split a distributed run would
	// (a 5 % hold-out) and routes the test set's movie rows as the engine
	// does.
	train, test := sparse.SplitTrainTest(ds.R, 0.05, ds.Spec.Seed)
	nodes := []int{1, 2, 4, 8, 16, 32, 64, 128, 256, 512, 1024}
	const fig5Points = 8 // 1 … 128 nodes
	if !fig4 {
		nodes = nodes[:fig5Points]
	}
	results := make([]des.ClusterResult, len(nodes))
	for i, n := range nodes {
		w := des.BuildClusterWorkload(partition.Build(train, n), test, cfg)
		m := des.BlueGeneQ(n)
		if scale != 1 {
			// Scale the cache with the workload so the working-set /
			// cache crossover (the super-linear region) falls at the same
			// node count as the full-size run — for upscaled workloads as
			// much as downscaled ones (scale > 1 was silently ignored
			// here, shifting the crossover).
			m.CacheBytes *= scale
		}
		results[i] = des.SimulateCluster(w, m, cm, dist.DefaultBufferSize)
	}

	if fig4 {
		fmt.Println("\n== Figure 4: distributed BPMF strong scaling on MovieLens ==")
		fmt.Printf("# workload: %d users x %d movies, %d ratings (scale %.3g)\n",
			ds.R.M, ds.R.N, ds.R.NNZ(), scale)
		fmt.Println("# columns: nodes, cores, items/s, parallel efficiency (vs 1 node)")
		for i, res := range results {
			eff := res.ItemsPerSec / (results[0].ItemsPerSec * float64(nodes[i]))
			fmt.Printf("%6d  %7d  %14.0f  %8.1f%%\n", nodes[i], res.Cores, res.ItemsPerSec, eff*100)
		}
		fmt.Println("# paper shape: good, even super-linear scaling up to 32 nodes (one rack on the")
		fmt.Println("# BG/Q: the per-node working set drops into cache); past one rack the shared")
		fmt.Println("# inter-rack uplink saturates and performance degrades significantly.")
	}
	if fig5 {
		fmt.Println("\n== Figure 5: compute / communicate / overlap breakdown ==")
		fmt.Println("# columns: nodes, cores, compute%, both%, communicate%, idle%")
		for i, res := range results[:fig5Points] {
			b := res.Breakdown
			fmt.Printf("%6d  %7d  %8.1f%%  %7.1f%%  %12.1f%%  %6.1f%%\n",
				nodes[i], res.Cores, b.ComputeOnly*100, b.Both*100, b.CommunicateOnly*100, b.Idle*100)
		}
		fmt.Println("# paper shape: at small node counts communication overlaps computation (the")
		fmt.Println("# 'both' band); at large counts overlap stops helping and exposed communication")
		fmt.Println("# plus waiting dominates.")
	}
}

// rmseExperiment verifies §V-B: every engine reaches the same prediction
// accuracy. With this implementation's keyed streams the in-process
// engines reproduce the sequential chain exactly; the distributed engine
// matches it bit-for-bit when configured with the partition's moment
// grouping.
func rmseExperiment() {
	fmt.Println("\n== §V-B: all versions reach the same RMSE ==")
	ds := datagen.Generate(datagen.Small(99))
	train, test := sparse.SplitTrainTest(ds.R, 0.2, 99)
	prob := core.NewProblem(train, test)
	cfg := core.DefaultConfig()
	cfg.K = 16
	cfg.Iters = 20
	cfg.Burnin = 10
	fmt.Printf("# workload: %dx%d, %d train / %d test ratings; K=%d, %d iterations\n",
		train.M, train.N, train.NNZ(), len(test), cfg.K, cfg.Iters)

	seq, err := core.NewSampler(cfg, prob)
	if err != nil {
		panic(err)
	}
	seqRes := seq.Run()
	// report prints res against ref. Equal factors are the same chain; a
	// distributed run's final RMSE may still move in the last bit, because
	// each rank sums its own evaluation partials.
	report := func(name string, res, ref *core.Result, refName string) {
		d := math.Abs(res.FinalRMSE() - ref.FinalRMSE())
		match := "bitwise-identical chain"
		switch {
		case la.MaxAbsDiff(res.U, ref.U) != 0 || la.MaxAbsDiff(res.V, ref.V) != 0:
			match = fmt.Sprintf("|ΔRMSE| = %.2e vs %s", d, refName)
		case d != 0:
			match = fmt.Sprintf("U, V bitwise-identical to %s; |ΔRMSE| = %.2e from per-rank evaluation order", refName, d)
		}
		fmt.Printf("%-22s final RMSE %.6f   (%s)\n", name, res.FinalRMSE(), match)
	}
	report("sequential", seqRes, seqRes, "sequential")
	if r, err := mc.Run(mc.WorkSteal, cfg, prob, 4); err == nil {
		report("worksteal (4 threads)", r, seqRes, "sequential")
	}
	if r, err := mc.Run(mc.Static, cfg, prob, 4); err == nil {
		report("static (4 threads)", r, seqRes, "sequential")
	}
	if r, err := graphlab.Run(cfg, prob, 4); err == nil {
		report("graphlab (4 threads)", r, seqRes, "sequential")
	}
	// The distributed chain is the sequential one with the partition's
	// moment grouping: compare it with exactly that run.
	opt := dist.Options{Ranks: 4}
	plan, _ := dist.BuildPlan(prob, opt)
	cfg2 := cfg
	cfg2.MomentGroupsU, cfg2.MomentGroupsV = dist.MomentGroupsOf(plan)
	seq2, _ := core.NewSampler(cfg2, prob)
	grouped := seq2.Run()
	report("sequential@dist-groups", grouped, seqRes, "sequential")
	if r, _, err := dist.RunInProc(cfg, prob, opt); err == nil {
		report("distributed (4 ranks)", r, grouped, "sequential@dist-groups")
	}
	fmt.Println("# paper claim: all parallel versions reach the same accuracy as the sequential")
	fmt.Println("# sampler — here provable bit-for-bit thanks to keyed random streams.")
}

// speedupExperiment estimates the §VI anecdote: the industrial ChEMBL run
// that took 15 days in the initial (interpreted, single-threaded) version
// and 30 minutes distributed.
func speedupExperiment(cfg core.Config, cm des.CostModel, scale float64) {
	fmt.Println("\n== §VI: end-to-end wall-clock estimate for the ChEMBL run ==")
	ds := chemblData(scale)
	const nodes = 20 // the paper's Lynx cluster
	w := des.BuildClusterWorkload(partition.Build(ds.R, nodes), nil, cfg)
	res := des.SimulateCluster(w, des.Lynx(nodes), cm, dist.DefaultBufferSize)

	items := float64(ds.R.M + ds.R.N)
	iters := 1000.0 // a production-length chain
	seqIter := 0.0
	movie := ds.R.Transpose().RowDegrees()
	user := ds.R.RowDegrees()
	for _, d := range movie {
		seqIter += cm.SerialItemCost(d)
	}
	for _, d := range user {
		seqIter += cm.SerialItemCost(d)
	}
	// The paper's initial version was Julia (interpreted overhead ~20x a
	// tuned native kernel on this workload class).
	juliaFactor := 20.0
	seqDays := seqIter * iters * juliaFactor / 86400
	distMinutes := items * iters / res.ItemsPerSec / 60
	fmt.Printf("single-threaded interpreted baseline: %8.1f days\n", seqDays)
	fmt.Printf("distributed on 20x12-core nodes (simulated): %8.1f minutes\n", distMinutes)
	fmt.Printf("speed-up: %.0fx\n", seqDays*86400/(distMinutes*60))
	fmt.Println("# paper: 15 days -> 30 minutes (720x) on the full ChEMBL subset.")
}
