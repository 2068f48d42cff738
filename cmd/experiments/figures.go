package main

import (
	"fmt"
	"math"
	"time"

	"repro/internal/core"
	"repro/internal/datagen"
	"repro/internal/des"
	"repro/internal/dist"
	"repro/internal/graphlab"
	"repro/internal/la"
	"repro/internal/mc"
	"repro/internal/partition"
	"repro/internal/rng"
	"repro/internal/sparse"
)

// fig2 reproduces Figure 2: time to update one item versus the number of
// ratings, for the three kernels. The two serial kernels are measured for
// real on this machine; the parallel kernel is measured for its real
// arithmetic and additionally projected onto the paper's 12-core node
// with the calibrated work-span model (this host has one core).
func fig2(cfg core.Config, cm des.CostModel) {
	fmt.Println("\n== Figure 2: compute time to update one item (K=32) ==")
	fmt.Println("# columns: ratings, rankupdate(ms), serial_chol(ms), parallel_chol@1core(ms), parallel_chol@12cores-model(ms)")

	k := cfg.K
	hyper := core.NewHyper(k)
	stream := rng.New(2)

	measure := func(kern core.Kernel, cols []int32, vals []float64, other *la.Matrix) float64 {
		ws := core.NewWorkspace(k)
		out := la.NewVector(k)
		reps := 1
		// Aim for ~20ms of measurement.
		for {
			start := time.Now()
			for r := 0; r < reps; r++ {
				core.UpdateItem(ws, kern, &cfg, cols, vals, other, hyper,
					core.ItemStream(1, 0, core.SideV, 0), nil, nil, out)
			}
			el := time.Since(start)
			if el > 20*time.Millisecond || reps > 1<<20 {
				return el.Seconds() / float64(reps) * 1000 // ms
			}
			reps *= 4
		}
	}

	for _, nnz := range []int{1, 3, 10, 30, 100, 300, 1000, 3000, 10000, 30000, 100000} {
		other := la.NewMatrix(nnz, k)
		stream.FillNorm(other.Data)
		cols := make([]int32, nnz)
		vals := make([]float64, nnz)
		for i := range cols {
			cols[i] = int32(i)
			vals[i] = stream.Norm()
		}
		r1 := measure(core.KernelRankOne, cols, vals, other)
		sc := measure(core.KernelCholesky, cols, vals, other)
		pc1 := measure(core.KernelParallelCholesky, cols, vals, other)
		pc12 := cm.ParallelItemCost(nnz, cfg.ParallelGrain, 12) * 1000
		fmt.Printf("%8d  %12.5f  %12.5f  %12.5f  %12.5f\n", nnz, r1, sc, pc1, pc12)
	}
	fmt.Println("# paper shape: rankupdate cheapest for few ratings, serial Cholesky in the middle,")
	fmt.Println("# parallel Cholesky wins beyond ~1000 ratings (the hybrid threshold).")
}

// fig3 reproduces Figure 3: multi-core throughput (item updates per
// second) on the ChEMBL workload versus thread count for the TBB-style,
// OpenMP-style and GraphLab-style engines. Thread scaling is virtual-time
// (this host has one core); the same engines are additionally run for
// real at 1 thread to validate the model's single-thread ratio.
func fig3(cfg core.Config, cm des.CostModel, scale float64) {
	fmt.Println("\n== Figure 3: multi-core BPMF on ChEMBL (updates/second) ==")
	ds := chemblData(scale)
	fmt.Printf("# workload: %d compounds x %d targets, %d ratings (scale %.3g)\n",
		ds.R.M, ds.R.N, ds.R.NNZ(), scale)
	movie := ds.R.Transpose().RowDegrees()
	user := ds.R.RowDegrees()

	fmt.Println("# columns: threads, TBB, OpenMP, GraphLab  (x1000 items/s, virtual time,")
	fmt.Println("# full iteration incl. chunk-parallel evaluation of a 5% held-out split)")
	nTest := ds.R.NNZ() / 20
	for _, threads := range []int{1, 2, 4, 8, 16} {
		tbb := des.Fig3PointEval(movie, user, nTest, threads, des.PolicyWorkSteal, cm, &cfg)
		omp := des.Fig3PointEval(movie, user, nTest, threads, des.PolicyStatic, cm, &cfg)
		gl := des.Fig3PointEval(movie, user, nTest, threads, des.PolicyGraphLab, cm, &cfg)
		fmt.Printf("%8d  %10.2f  %10.2f  %10.2f\n", threads, tbb/1000, omp/1000, gl/1000)
	}

	// Real single-thread validation runs (one Gibbs iteration each).
	fmt.Println("# real 1-thread validation (measured on this host, 1 iteration):")
	train, test := sparse.SplitTrainTest(ds.R, 0.05, 1)
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
	fmt.Println("# the skewed rating distribution); GraphLab trails both by a wide margin.")
}

// fig4 reproduces Figure 4: distributed strong scaling on the MovieLens
// workload — items per second and parallel efficiency versus node count
// on the BlueGene/Q machine model (16 cores/node, 32-node racks).
func fig4(cfg core.Config, cm des.CostModel, scale float64) {
	fmt.Println("\n== Figure 4: distributed BPMF strong scaling on MovieLens ==")
	ds := ml20mData(scale)
	fmt.Printf("# workload: %d users x %d movies, %d ratings (scale %.3g)\n",
		ds.R.M, ds.R.N, ds.R.NNZ(), scale)
	fmt.Println("# columns: nodes, cores, items/s, parallel efficiency (vs 1 node)")

	var base float64
	for _, nodes := range []int{1, 2, 4, 8, 16, 32, 64, 128, 256, 512, 1024} {
		plan := partition.Build(ds.R, partition.Options{Ranks: nodes, Reorder: false})
		w := des.BuildClusterWorkload(plan, cfg)
		w.TestEntries = int64(ds.R.NNZ() / 20)
		m := des.BlueGeneQ(nodes)
		if scale != 1 {
			// Scale the cache with the workload so the working-set /
			// cache crossover (the super-linear region) falls at the same
			// node count as the full-size run — for upscaled workloads as
			// much as downscaled ones (scale > 1 was silently ignored
			// here, shifting the crossover).
			m.CacheBytes *= scale
		}
		res := des.SimulateCluster(w, m, cm, dist.DefaultBufferSize, 3)
		if nodes == 1 {
			base = res.ItemsPerSec
		}
		eff := res.ItemsPerSec / (base * float64(nodes))
		fmt.Printf("%6d  %7d  %14.0f  %8.1f%%\n", nodes, res.Cores, res.ItemsPerSec, eff*100)
	}
	fmt.Println("# paper shape: good, even super-linear scaling up to 32 nodes (one rack on the")
	fmt.Println("# BG/Q: the per-node working set drops into cache); past one rack the shared")
	fmt.Println("# inter-rack uplink saturates and performance degrades significantly.")
}

// fig5 reproduces Figure 5: fraction of iteration time each node spends
// computing, communicating, and doing both (overlap), versus node count.
func fig5(cfg core.Config, cm des.CostModel, scale float64) {
	fmt.Println("\n== Figure 5: compute / communicate / overlap breakdown ==")
	ds := ml20mData(scale)
	fmt.Println("# columns: nodes, cores, compute%, both%, communicate%, idle%")
	for _, nodes := range []int{1, 2, 4, 8, 16, 32, 64, 128} {
		plan := partition.Build(ds.R, partition.Options{Ranks: nodes, Reorder: false})
		w := des.BuildClusterWorkload(plan, cfg)
		w.TestEntries = int64(ds.R.NNZ() / 20)
		m := des.BlueGeneQ(nodes)
		if scale != 1 {
			m.CacheBytes *= scale
		}
		res := des.SimulateCluster(w, m, cm, dist.DefaultBufferSize, 3)
		b := res.Breakdown
		fmt.Printf("%6d  %7d  %8.1f%%  %7.1f%%  %12.1f%%  %6.1f%%\n",
			nodes, res.Cores, b.ComputeOnly*100, b.Both*100, b.CommunicateOnly*100, b.Idle*100)
	}
	fmt.Println("# paper shape: at small node counts communication overlaps computation (the")
	fmt.Println("# 'both' band); at large counts overlap stops helping and exposed communication")
	fmt.Println("# plus waiting dominates.")
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
	report := func(name string, res *core.Result) {
		match := "bitwise-identical chain"
		if la.MaxAbsDiff(res.U, seqRes.U) != 0 {
			match = fmt.Sprintf("|ΔRMSE| = %.2e", math.Abs(res.FinalRMSE()-seqRes.FinalRMSE()))
		}
		fmt.Printf("%-22s final RMSE %.6f   (%s)\n", name, res.FinalRMSE(), match)
	}
	report("sequential", seqRes)
	if r, err := mc.Run(mc.WorkSteal, cfg, prob, 4); err == nil {
		report("worksteal (4 threads)", r)
	}
	if r, err := mc.Run(mc.Static, cfg, prob, 4); err == nil {
		report("static (4 threads)", r)
	}
	if r, err := graphlab.Run(cfg, prob, 4); err == nil {
		report("graphlab (4 threads)", r)
	}
	if r, _, err := dist.RunInProc(cfg, prob, dist.Options{Ranks: 4}); err == nil {
		report("distributed (4 ranks)", r)
	}
	// Distributed with the sequential reference configured to the same
	// moment grouping: exact equality.
	opt := dist.Options{Ranks: 4}
	plan, _ := dist.BuildPlan(prob, opt)
	cfg2 := cfg
	cfg2.MomentGroupsU, cfg2.MomentGroupsV = dist.MomentGroupsOf(plan)
	seq2, _ := core.NewSampler(cfg2, prob)
	report("sequential@dist-groups", seq2.Run())
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
	plan := partition.Build(ds.R, partition.Options{Ranks: nodes, Reorder: false})
	w := des.BuildClusterWorkload(plan, cfg)
	res := des.SimulateCluster(w, des.Lynx(nodes), cm, dist.DefaultBufferSize, 3)

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
