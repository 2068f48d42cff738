// Command bpmf trains BPMF on a rating matrix (a MatrixMarket .mtx or
// binary .bcsr file — the format is sniffed — or a built-in synthetic
// benchmark) with a selectable engine.
//
// Examples:
//
//	bpmf -data ratings.mtx -k 32 -iters 40 -engine worksteal -threads 8
//	bpmf -data ratings.bcsr -k 32 -iters 40
//	bpmf -synthetic chembl -scale 0.05 -engine distributed -ranks 4
//	bpmf -config train.json -iters 50   # file values, -iters overrides
package main

import (
	"flag"
	"fmt"
	"io"
	"log"
	"os"

	"repro"
	"repro/internal/config"
	"repro/internal/core"
	"repro/internal/datagen"
	"repro/internal/sparse"
)

func main() {
	log.SetFlags(0)
	log.SetPrefix("bpmf: ")

	cfg := config.DefaultTrain()
	if err := config.Parse(flag.CommandLine, os.Args[1:], &cfg); err != nil {
		log.Fatal(err)
	}

	data, err := loadData(cfg.Data.Path, cfg.Data.Synthetic, cfg.Data.Scale, cfg.Data.TestFrac, cfg.Sampler.Seed)
	if err != nil {
		log.Fatal(err)
	}
	fmt.Printf("data: %d users x %d items, %d train / %d test ratings\n",
		data.NumUsers(), data.NumItems(), data.NumTrain(), data.NumTest())

	eng, err := parseEngine(cfg.Engine)
	if err != nil {
		log.Fatal(err)
	}
	bc := bpmf.Defaults()
	bc.K = cfg.Sampler.K
	bc.Alpha = cfg.Sampler.Alpha
	bc.Iters = cfg.Sampler.Iters
	bc.Burnin = cfg.Sampler.Burnin
	bc.Seed = cfg.Sampler.Seed
	bc.Engine = eng
	bc.Threads = cfg.Threads
	bc.Ranks = cfg.Ranks
	bc.Reorder = cfg.Reorder

	res, err := train(data, bc, cfg.CkptOut, cfg.ResumeCkpt)
	if err != nil {
		log.Fatal(err)
	}
	for i, r := range res.RMSETrace() {
		phase := "sample"
		if i >= bc.Burnin {
			phase = "avg"
		}
		fmt.Printf("iter %3d  RMSE(%s) %.6f\n", i+1, phase, r)
	}
	kc := res.KernelCounts()
	fmt.Printf("final RMSE %.6f  throughput %.0f updates/s  kernels[rankupdate=%d serial_chol=%d parallel_chol=%d]\n",
		res.RMSE(), res.UpdatesPerSec(), kc[0], kc[1], kc[2])
}

// train runs Train — or, when a checkpoint is read (-resume-ckpt, a
// warm start continued to cfg.Iters total iterations) or written
// (-ckpt-out), ResumeWithCheckpoint / TrainWithCheckpoint on the chosen
// engine. Checkpoints are written to a temp file and renamed into place
// so a bpmf-serve watcher never observes a half-written snapshot.
func train(data *bpmf.Data, cfg bpmf.Config, ckptOut, resumeCkpt string) (*bpmf.Result, error) {
	if ckptOut == "" && resumeCkpt == "" {
		return bpmf.Train(data, cfg)
	}
	if cfg.Engine == bpmf.Distributed {
		// The in-process cluster keeps its chain state per rank, so a
		// checkpointing run falls back to the sequential executor (same
		// chain, one thread) — say so instead of silently losing the
		// parallelism the user asked for.
		fmt.Printf("checkpoint or resume requested: training with the sequential sampler (same chain; -engine %s, -ranks and -threads ignored)\n", cfg.Engine)
	}
	run := func(w io.Writer) (*bpmf.Result, error) { return bpmf.TrainWithCheckpoint(data, cfg, w) }
	if resumeCkpt != "" {
		f, err := os.Open(resumeCkpt)
		if err != nil {
			return nil, err
		}
		defer f.Close()
		run = func(w io.Writer) (*bpmf.Result, error) { return bpmf.ResumeWithCheckpoint(data, cfg, f, w) }
	}
	if ckptOut == "" {
		return run(nil)
	}
	var res *bpmf.Result
	err := core.WriteCheckpointFile(ckptOut, func(w io.Writer) (err error) {
		res, err = run(w)
		return err
	})
	if err != nil {
		return nil, err
	}
	fmt.Printf("checkpoint written to %s\n", ckptOut)
	return res, nil
}

// loadData resolves the data source through the shared config contract:
// a file path wins, otherwise the named synthetic benchmark is
// generated at the given scale.
func loadData(path, synthetic string, scale, testFrac float64, seed uint64) (*bpmf.Data, error) {
	dc := config.Data{Path: path, Synthetic: synthetic, Scale: scale, TestFrac: testFrac}
	if err := dc.Validate(); err != nil {
		return nil, err
	}
	if path != "" {
		return bpmf.DataFromFile(path, testFrac, seed)
	}
	if synthetic == "" {
		return nil, fmt.Errorf("need -data or -synthetic")
	}
	spec, err := dc.Spec(seed)
	if err != nil {
		return nil, err
	}
	return dataFromCSR(datagen.Generate(spec), testFrac, seed)
}

// dataFromCSR round-trips a generated matrix through the public API.
func dataFromCSR(ds *datagen.Dataset, testFrac float64, seed uint64) (*bpmf.Data, error) {
	var ratings []bpmf.Rating
	for i := 0; i < ds.R.M; i++ {
		cols, vals := rowOf(ds.R, i)
		for k, c := range cols {
			ratings = append(ratings, bpmf.Rating{User: i, Item: int(c), Value: vals[k]})
		}
	}
	return bpmf.DataFromRatings(ds.R.M, ds.R.N, ratings, testFrac, seed)
}

func rowOf(r *sparse.CSR, i int) ([]int32, []float64) { return r.Row(i) }

// parseEngine maps the validated engine name onto the public API's
// engine constant. config.Train.Validate has already vetted the name,
// but the mapping stays total so helper callers get a clean error too.
func parseEngine(s string) (bpmf.Engine, error) {
	switch config.CanonicalEngine(s) {
	case "sequential":
		return bpmf.Sequential, nil
	case "worksteal":
		return bpmf.WorkSteal, nil
	case "static":
		return bpmf.Static, nil
	case "graphlab":
		return bpmf.GraphLab, nil
	case "distributed":
		return bpmf.Distributed, nil
	default:
		return 0, fmt.Errorf("unknown engine %q", s)
	}
}
