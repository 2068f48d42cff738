package main

import (
	"fmt"

	bpmf "repro"
	"repro/internal/datagen"
)

// workload is one set of inputs the pipeline runs on: a rating matrix
// shape, the training engine, and the pinned traffic and ingest sizes.
// Every number is a constant calibrated once on the 2-core reference
// box; nothing is derived from a measurement at run time.
type workload struct {
	name string
	// spec is the synthetic rating matrix for a seed.
	spec func(seed uint64) datagen.Spec
	// engine, threads and ranks pick the training engine under test.
	engine  bpmf.Engine
	threads int
	ranks   int
	// holdRPS is the open-loop arrival rate of the traced run, pinned at a
	// third to a half of the closed loop's rate at calibration, so that the
	// ladder's last step (twice the rate) is near capacity; the hold stage
	// is cut into holdSegments segments of at least a thousand requests.
	holdRPS      float64
	holdSegments int
	// p99LimitMs is the ladder's latency limit, about five times the
	// hold-stage p99 at calibration.
	p99LimitMs float64
	// appends x appendSize ratings enter the rating log in each refresh
	// round; newUsers of them belong to users the model has never seen.
	appends, appendSize, newUsers int
	// rounds is how many refresh rounds a run makes: fixed work, about a
	// third of run_seconds at calibration.
	rounds int
}

const (
	latentK  = 32
	testFrac = 0.2
	// Every Train call and the base training of set-up run this chain. It
	// is short so that a run holds some thirty calls and their median does
	// not move with one stall of the shared machine.
	chainIters, chainBurnin = 2, 1
	// addIters is how far each trainer cycle extends the chain: one
	// iteration, so that a refresh round is mostly the write side (log,
	// shards, merge, warm start, publish, reload) the other stages never
	// run, and not the sweeps the train stage already times.
	addIters = 1
	// mix of the serving traffic, in percent of requests.
	predictPct, recommendPct = 70, 25 // the remaining 5% are fold-ins
	recommendN               = 10
	foldinRatings            = 20
	// a request that takes longer than this counts as failed.
	slowRequest = 1.0 // seconds
)

var workloads = []workload{
	{
		name:   "train-dense-mc",
		spec:   func(seed uint64) datagen.Spec { return datagen.Scaled(datagen.ML20M(seed), 0.03) },
		engine: bpmf.WorkSteal, threads: 2, ranks: 1,
		holdRPS: 5000, holdSegments: 6, p99LimitMs: 25,
		appends: 10, appendSize: 500, newUsers: 10, rounds: 17,
	},
	{
		name:   "train-sparse-dist",
		spec:   func(seed uint64) datagen.Spec { return datagen.Scaled(datagen.ChEMBL(seed), 0.10) },
		engine: bpmf.Distributed, threads: 1, ranks: 2,
		holdRPS: 5000, holdSegments: 6, p99LimitMs: 25,
		appends: 10, appendSize: 200, newUsers: 100, rounds: 9,
	},
	{
		name: "serve-wide-mix",
		spec: func(seed uint64) datagen.Spec {
			return datagen.Spec{Name: "wide", Rows: 8000, Cols: 50000, NNZ: 400000,
				TrueRank: 16, NoiseSD: 0.5, ZipfS: 1.0, MinVal: 0.5, MaxVal: 5, Seed: seed}
		},
		engine: bpmf.WorkSteal, threads: 2, ranks: 1,
		holdRPS: 800, holdSegments: 3, p99LimitMs: 75,
		appends: 10, appendSize: 500, newUsers: 10, rounds: 6,
	},
	{
		name:   "refresh-loop",
		spec:   func(seed uint64) datagen.Spec { return datagen.Scaled(datagen.ML20M(seed), 0.025) },
		engine: bpmf.Sequential, threads: 1, ranks: 1,
		holdRPS: 5000, holdSegments: 6, p99LimitMs: 25,
		appends: 20, appendSize: 500, newUsers: 20, rounds: 21,
	},
}

func workloadByName(name string) (workload, error) {
	for _, w := range workloads {
		if w.name == name {
			return w, nil
		}
	}
	return workload{}, fmt.Errorf("unknown workload %q", name)
}

func (w workload) trainConfig(seed uint64) bpmf.Config {
	return bpmf.Config{K: latentK, Iters: chainIters, Burnin: chainBurnin, Seed: seed,
		Engine: w.engine, Threads: w.threads, Ranks: w.ranks}
}
