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
)

func main() {
	log.SetFlags(0)
	log.SetPrefix("bpmf: ")

	cfg := config.DefaultTrain()
	if err := config.Parse(flag.CommandLine, os.Args[1:], &cfg); err != nil {
		log.Fatal(err)
	}

	data, err := loadData(cfg.Data, cfg.Sampler.Seed)
	if err != nil {
		log.Fatal(err)
	}
	fmt.Printf("data: %d users x %d items, %d train / %d test ratings\n",
		data.NumUsers(), data.NumItems(), data.NumTrain(), data.NumTest())

	eng, err := parseEngine(cfg.Engine)
	if err != nil {
		log.Fatal(err)
	}
	sm := cfg.Sampler
	bc := bpmf.Config{
		K: sm.K, Alpha: sm.Alpha, Iters: sm.Iters, Burnin: sm.Burnin, Seed: sm.Seed,
		Engine: eng, Threads: cfg.Threads, Ranks: cfg.Ranks,
	}

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
// engine. Checkpoints go through core.WriteCheckpointFile (fsync, rename,
// fsync directory): a bpmf-serve watcher never sees a half-written one.
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

// loadData hands the resolved data source to the public API. A file
// goes through bpmf.DataFromFile; a synthetic benchmark is generated and
// passed as ratings (the public package exports no matrix constructor).
func loadData(d config.Data, seed uint64) (*bpmf.Data, error) {
	if d.Path != "" {
		return bpmf.DataFromFile(d.Path, d.TestFrac, seed)
	}
	full, err := d.Matrix(seed)
	if err != nil {
		return nil, err
	}
	ratings := make([]bpmf.Rating, 0, full.NNZ())
	for i := 0; i < full.M; i++ {
		cols, vals := full.Row(i)
		for k, c := range cols {
			ratings = append(ratings, bpmf.Rating{User: i, Item: int(c), Value: vals[k]})
		}
	}
	return bpmf.DataFromRatings(full.M, full.N, ratings, d.TestFrac, seed)
}

// parseEngine maps an engine name or alias onto the public API's engine
// constant by walking the enum's own names, so bpmf.Engine.String is the
// one list of engines this command knows.
func parseEngine(s string) (bpmf.Engine, error) {
	name := config.CanonicalEngine(s)
	for e := bpmf.Engine(0); e.String() != "unknown"; e++ {
		if e.String() == name {
			return e, nil
		}
	}
	return 0, fmt.Errorf("unknown engine %q", s)
}
