package main

import (
	"fmt"

	"repro/internal/core"
	"repro/internal/datagen"
	"repro/internal/des"
	"repro/internal/dist"
	"repro/internal/partition"
	"repro/internal/sparse"
)

// ablations prints the ablation tables: the effect of each design
// decision the paper's Sections III–IV argue for.
func ablations(cfg core.Config, cm des.CostModel, scale float64) {
	fmt.Println("\n== Ablations (paper Sections III–IV) ==")
	chembl := chemblData(scale)
	ml := ml20mData(scale)

	// 1. Hybrid kernel threshold (paper: 1000 ratings).
	fmt.Println("\n-- hybrid kernel threshold (virtual 12-thread throughput, ChEMBL) --")
	movie := chembl.R.Transpose().RowDegrees()
	user := chembl.R.RowDegrees()
	for _, thr := range []int{100, 300, 1000, 3000, 10000, 1 << 30} {
		c := cfg
		c.KernelThreshold = thr
		v := des.Fig3Point(movie, user, 12, des.PolicyWorkSteal, cm, &c)
		label := fmt.Sprintf("%d", thr)
		if thr == 1<<30 {
			label = "off (never parallel)"
		}
		fmt.Printf("  threshold %-22s %10.1f x1000 items/s\n", label, v/1000)
	}

	// 2. Coalescing buffer size (paper IV-C) on 32 nodes.
	fmt.Println("\n-- coalescing buffer size (32 BG/Q nodes, MovieLens) --")
	plan := partition.Build(ml.R, partition.Options{Ranks: 32})
	w := des.BuildClusterWorkload(plan, cfg)
	for _, buf := range []int{0, 1 << 10, 8 << 10, 64 << 10, 1 << 20} {
		res := des.SimulateCluster(w, des.BlueGeneQ(32), cm, buf, 3)
		label := fmt.Sprintf("%d KiB", buf>>10)
		if buf == 0 {
			label = "per-item sends"
		}
		fmt.Printf("  buffer %-16s %12.0f items/s   (comm-only %.1f%%)\n",
			label, res.ItemsPerSec, res.Breakdown.CommunicateOnly*100)
	}

	// 3. Workload-model partitioning vs equal count.
	fmt.Println("\n-- partitioning: chains-on-chains + cost model vs equal count (16 ranks, ChEMBL movies) --")
	model := partition.DefaultCostModel()
	colW := model.Weights(chembl.R.Transpose().RowDegrees())
	ccp := partition.Bottleneck(colW, partition.ChainsOnChains(colW, 16))
	eq := partition.Bottleneck(colW, partition.EqualCount(len(colW), 16))
	fmt.Printf("  bottleneck load: CCP %.1f vs equal-count %.1f (%.0f%% better balance)\n",
		ccp, eq, (eq/ccp-1)*100)

	// 4. Reordering effect on communication volume.
	fmt.Println("\n-- RCM reordering vs natural order: items exchanged per iteration (8 ranks, MovieLens) --")
	plain := partition.Build(ml.R, partition.Options{Ranks: 8, Reorder: false})
	vPlain, _ := partition.CommVolume(plain.R, plain.RowBounds, plain.ColBounds)
	reord := partition.Build(ml.R, partition.Options{Ranks: 8, Reorder: true})
	vReord, _ := partition.CommVolume(reord.R, reord.RowBounds, reord.ColBounds)
	fmt.Printf("  natural order: %d   RCM reordered: %d\n", vPlain, vReord)
	fmt.Println("  (synthetic data scatters community structure randomly, so the gain is")
	fmt.Println("   modest here; on clustered real data the reordering matters more)")

	// 5. Buffered vs per-item sends (real runs; ablation 2 simulates it).
	fmt.Println("\n-- exchange mechanism (real in-process runs, 4 ranks, small dataset) --")
	small := datagen.Generate(datagen.Small(3))
	probTrain, probTest := splitFor(small)
	prob := core.NewProblem(probTrain, probTest)
	one := cfg
	one.Iters, one.Burnin = 2, 1
	one.K = 16
	for _, mode := range []struct {
		label string
		buf   int
	}{{"buffered (64 KiB)", 0}, {"per-item sends", -1}} {
		if res, stats, err := dist.RunInProc(one, prob, dist.Options{Ranks: 4, BufferSize: mode.buf}); err == nil {
			var msgs int64
			for _, s := range stats {
				msgs += s.Comm.MsgsSent
			}
			fmt.Printf("  %-20s RMSE %.5f, %5d messages\n", mode.label+":", res.FinalRMSE(), msgs)
		}
	}
}

func splitFor(ds *datagen.Dataset) (*sparse.CSR, []sparse.Entry) {
	return sparse.SplitTrainTest(ds.R, 0.2, ds.Spec.Seed)
}
