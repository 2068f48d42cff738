// Distributed: run BPMF on an in-process virtual cluster (up to four
// hybrid ranks — two threads each — over the channel-backed
// message-passing fabric), with the Section IV machinery visible:
// workload-balanced contiguous partitioning, ghost routing, coalesced
// asynchronous item exchange overlapped with the threaded item updates,
// and deterministic hyperparameter allreduce. Prints per-rank traffic and
// time statistics.
//
// For real multi-process runs over TCP, see cmd/bpmf-dist.
package main

import (
	"fmt"
	"log"
	"time"

	"repro/internal/core"
	"repro/internal/datagen"
	"repro/internal/dist"
	"repro/internal/sparse"
)

func main() {
	ds := datagen.Generate(datagen.Small(5))
	train, test := sparse.SplitTrainTest(ds.R, 0.2, 5)
	prob := core.NewProblem(train, test)
	fmt.Printf("dataset: %d x %d, %d train / %d test ratings\n",
		train.M, train.N, train.NNZ(), len(test))

	cfg := core.DefaultConfig()
	cfg.K = 16
	cfg.Iters = 12
	cfg.Burnin = 6

	for _, ranks := range []int{1, 2, 4} {
		res, stats, err := dist.RunInProc(cfg, prob, dist.Options{
			Ranks:          ranks,
			ThreadsPerRank: 2,
			BufferSize:     4 << 10,
		})
		if err != nil {
			log.Fatal(err)
		}
		fmt.Printf("\n%d rank(s): final RMSE %.5f, %.0f updates/s\n",
			ranks, res.FinalRMSE(), res.UpdatesPerSec())
		for _, s := range stats {
			fmt.Printf("  rank %d: %5d items sent in %3d msgs, %5d ghosts in, compute %6s, wait %6s, overlap %6s\n",
				s.Rank, s.ItemsSent, s.Comm.MsgsSent, s.GhostsRecv,
				s.ComputeTime.Round(100*time.Microsecond),
				s.WaitTime.Round(100*time.Microsecond),
				s.OverlapTime.Round(100*time.Microsecond))
		}
	}
	fmt.Println("\nNote: the RMSE is the same at every rank count — the distributed chain")
	fmt.Println("reproduces the sequential sampler bit-for-bit when the sequential run is")
	fmt.Println("configured with the partition's moment grouping (see internal/dist tests).")
}
