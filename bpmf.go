// Package bpmf is a Go implementation of Distributed Bayesian
// Probabilistic Matrix Factorization (Vander Aa, Chakroun, Haber —
// IEEE CLUSTER 2016): the BPMF Gibbs sampler of Salakhutdinov & Mnih with
// the paper's multi-core work-stealing engine, OpenMP-style and
// GraphLab-style baselines, and a distributed engine with asynchronous
// buffered communication over a hand-rolled message-passing layer.
//
// Quick start:
//
//	ratings := []bpmf.Rating{{User: 0, Item: 1, Value: 4.5}, ...}
//	res, err := bpmf.Train(bpmf.DataFromRatings(nUsers, nItems, ratings), bpmf.Defaults())
//	fmt.Println(res.RMSE())            // held-out accuracy
//	fmt.Println(res.Predict(0, 7))     // predicted rating
//
// Engine selection, thread/rank counts and sampler hyperparameters are
// all on Config; every engine samples the identical Markov chain for a
// given Config (see the package comment of internal/core).
package bpmf

import (
	"fmt"
	"io"
	"math"
	"sync"

	"repro/internal/core"
	"repro/internal/dist"
	"repro/internal/graphlab"
	"repro/internal/la"
	"repro/internal/mc"
	"repro/internal/rank"
	"repro/internal/sparse"
)

// Rating is one observed (user, item, value) triple. Users and items are
// dense 0-based indices.
type Rating struct {
	User, Item int
	Value      float64
}

// Data is a prepared training problem: a sparse rating matrix plus a
// held-out test set.
type Data struct {
	prob *core.Problem
}

// NumUsers returns the number of user rows.
func (d *Data) NumUsers() int { return d.prob.R.M }

// NumItems returns the number of item (movie) columns.
func (d *Data) NumItems() int { return d.prob.R.N }

// NumTrain returns the number of training ratings.
func (d *Data) NumTrain() int { return d.prob.R.NNZ() }

// NumTest returns the number of held-out ratings.
func (d *Data) NumTest() int { return len(d.prob.Test) }

// DataFromRatings builds a training problem from raw ratings, holding
// out testFrac of them (default 0 = no test set) for RMSE evaluation.
// The split is deterministic in seed and never strands a user or item
// without training data.
func DataFromRatings(nUsers, nItems int, ratings []Rating, testFrac float64, seed uint64) (*Data, error) {
	if nUsers < 1 || nItems < 1 {
		return nil, fmt.Errorf("bpmf: need positive matrix dimensions, got %dx%d", nUsers, nItems)
	}
	if len(ratings) == 0 {
		return nil, fmt.Errorf("bpmf: no ratings")
	}
	coo := sparse.NewCOO(nUsers, nItems, len(ratings))
	for _, r := range ratings {
		if r.User < 0 || r.User >= nUsers || r.Item < 0 || r.Item >= nItems {
			return nil, fmt.Errorf("bpmf: rating (%d, %d) outside %dx%d", r.User, r.Item, nUsers, nItems)
		}
		coo.Add(r.User, r.Item, r.Value)
	}
	return dataFromMatrix(coo.ToCSR(), testFrac, seed), nil
}

// DataFromMatrixMarket reads a MatrixMarket coordinate file as the rating
// matrix and holds out testFrac for evaluation.
func DataFromMatrixMarket(r io.Reader, testFrac float64, seed uint64) (*Data, error) {
	full, err := sparse.ReadMatrixMarket(r)
	if err != nil {
		return nil, err
	}
	return dataFromMatrix(full, testFrac, seed), nil
}

// DataFromFile reads the rating matrix at path, sniffing the on-disk
// format — MatrixMarket text (streamed through sparse.ReadMatrixMarket,
// the one MatrixMarket reader) or .bcsr binary shards (written by
// `datagen -out x.bcsr` or sparse.WriteBinarySharded) — and holds out
// testFrac for evaluation.
// Malformed or corrupt files of either format are reported as errors. The
// split is sparse.LoadSplit's, the same as loading the file and splitting
// it, but run in place over the loaded matrix, so no copy is built.
func DataFromFile(path string, testFrac float64, seed uint64) (*Data, error) {
	train, test, err := sparse.LoadSplit(path, testFrac, seed)
	if err != nil {
		return nil, err
	}
	return &Data{prob: core.NewProblem(train, test)}, nil
}

func dataFromMatrix(full *sparse.CSR, testFrac float64, seed uint64) *Data {
	return &Data{prob: core.NewProblem(sparse.SplitTrainTest(full, testFrac, seed))}
}

// Engine selects the execution strategy.
type Engine int

// Available engines. All sample the identical chain for equal Config.
const (
	// Sequential is the single-threaded reference sampler.
	Sequential Engine = iota
	// WorkSteal is the paper's TBB-style engine: work-stealing item
	// scheduling with nested parallelism for heavy items.
	WorkSteal
	// Static is the OpenMP-style engine: static contiguous chunks.
	Static
	// GraphLab is the synchronous vertex-engine baseline of Figure 3.
	GraphLab
	// Distributed runs an in-process virtual cluster over the message-
	// passing layer (Config.Ranks nodes, Config.Threads per node). Use
	// cmd/bpmf-dist for real multi-process TCP runs.
	Distributed
)

// String names the engine.
func (e Engine) String() string {
	switch e {
	case Sequential:
		return "sequential"
	case WorkSteal:
		return "worksteal"
	case Static:
		return "static"
	case GraphLab:
		return "graphlab"
	case Distributed:
		return "distributed"
	default:
		return "unknown"
	}
}

// Config controls training; every engine, Distributed included, samples
// in the data's own index space. Zero values fall back to Defaults().
type Config struct {
	// K is the number of latent features.
	K int
	// Alpha is the observation precision.
	Alpha float64
	// Iters and Burnin control the Gibbs chain; samples after Burnin
	// feed the posterior-mean predictor.
	Iters, Burnin int
	// Seed drives all keyed random streams (schedule-independent).
	Seed uint64
	// Engine selects the execution strategy.
	Engine Engine
	// Threads is the worker count for multi-core engines (and per-rank
	// threads for Distributed). 0 means 1.
	Threads int
	// Ranks is the virtual node count for the Distributed engine.
	Ranks int
	// ClampMin/ClampMax clip predictions to a rating range (equal = off;
	// ClampMin > ClampMax is refused).
	ClampMin, ClampMax float64
	// BufferBytes is the distributed coalescing buffer (0 = 64 KiB).
	BufferBytes int
}

// Defaults returns the paper's default configuration: K = 32, alpha = 2,
// 20 iterations with 10 burn-in, work-stealing engine.
func Defaults() Config {
	return Config{
		K: 32, Alpha: 2, Iters: 20, Burnin: 10, Seed: 42,
		Engine: WorkSteal, Threads: 1, Ranks: 1,
	}
}

// toCore converts the public config to the internal one, validating it at
// the public boundary: zero fields fall back to Defaults(), negative
// fields are rejected, and chain-length consistency (Burnin < Iters —
// otherwise no post-burn-in samples would remain and every posterior mean
// would be NaN) is checked on the *effective* values, so the outcome does
// not depend on which of Iters/Burnin was left to default.
func (c Config) toCore() (core.Config, error) {
	cc := core.DefaultConfig()
	switch {
	case c.K < 0:
		return cc, fmt.Errorf("bpmf: K must be >= 0 (0 = default %d), got %d", cc.K, c.K)
	case c.Alpha < 0:
		return cc, fmt.Errorf("bpmf: Alpha must be >= 0 (0 = default %g), got %g", cc.Alpha, c.Alpha)
	case c.Iters < 0:
		return cc, fmt.Errorf("bpmf: Iters must be >= 0 (0 = default %d), got %d", cc.Iters, c.Iters)
	case c.Burnin < 0:
		return cc, fmt.Errorf("bpmf: Burnin must be >= 0, got %d", c.Burnin)
	}
	if c.K > 0 {
		cc.K = c.K
	}
	if c.Alpha > 0 {
		cc.Alpha = c.Alpha
	}
	if c.Iters > 0 {
		cc.Iters = c.Iters
	}
	if c.Burnin > 0 || c.Iters > 0 {
		// The chain lengths are taken together: leaving both zero means the
		// default 20/10 chain, setting either means Burnin is exactly
		// c.Burnin (zero = no burn-in), never a leftover default.
		cc.Burnin = c.Burnin
	}
	if cc.Burnin >= cc.Iters {
		return cc, fmt.Errorf(
			"bpmf: Burnin (%d) must be less than Iters (%d): no post-burn-in samples would remain for the posterior mean",
			cc.Burnin, cc.Iters)
	}
	cc.Seed = c.Seed
	cc.ClampMin, cc.ClampMax = c.ClampMin, c.ClampMax
	return cc, nil
}

// Result holds a trained model and its evaluation trace.
type Result struct {
	res  *core.Result
	data *Data

	catOnce sync.Once
	cat     *rank.Catalog // built by the first Recommend, never by Train
}

// RMSE returns the final posterior-mean held-out RMSE (NaN without a
// test set).
func (r *Result) RMSE() float64 { return r.res.FinalRMSE() }

// RMSETrace returns the posterior-mean RMSE after each iteration.
func (r *Result) RMSETrace() []float64 {
	return append([]float64(nil), r.res.AvgRMSE...)
}

// SampleRMSETrace returns each iteration's single-sample RMSE.
func (r *Result) SampleRMSETrace() []float64 {
	return append([]float64(nil), r.res.SampleRMSE...)
}

// Predict returns the model's rating estimate for (user, item) from the
// final factor sample, or NaN if either index is out of range.
func (r *Result) Predict(user, item int) float64 {
	if user < 0 || user >= r.res.U.Rows || item < 0 || item >= r.res.V.Rows {
		return math.NaN()
	}
	return la.Dot(r.res.U.Row(user), r.res.V.Row(item))
}

// UserFactors returns a copy of the user's latent feature vector, or nil
// if user is out of range.
func (r *Result) UserFactors(user int) []float64 {
	if user < 0 || user >= r.res.U.Rows {
		return nil
	}
	return append([]float64(nil), r.res.U.Row(user)...)
}

// ItemFactors returns a copy of the item's latent feature vector, or nil
// if item is out of range.
func (r *Result) ItemFactors(item int) []float64 {
	if item < 0 || item >= r.res.V.Rows {
		return nil
	}
	return append([]float64(nil), r.res.V.Row(item)...)
}

// UpdatesPerSec reports the paper's throughput metric.
func (r *Result) UpdatesPerSec() float64 { return r.res.UpdatesPerSec() }

// PredictionInterval is a held-out prediction with its posterior
// uncertainty — the confidence intervals the paper's introduction lists
// among BPMF's advantages over point-estimate factorization.
type PredictionInterval struct {
	User, Item int
	Actual     float64
	// Mean is the posterior-mean prediction; Std the predictive standard
	// deviation (posterior spread of u·v plus 1/Alpha observation noise).
	Mean, Std float64
}

// Intervals returns posterior predictive intervals for every held-out
// rating (nil if no test set was held out or burn-in never completed).
func (r *Result) Intervals() []PredictionInterval {
	if len(r.res.Intervals) == 0 {
		return nil
	}
	out := make([]PredictionInterval, len(r.res.Intervals))
	for i, iv := range r.res.Intervals {
		out[i] = PredictionInterval{
			User: int(iv.Row), Item: int(iv.Col),
			Actual: iv.Actual, Mean: iv.Mean, Std: iv.Std,
		}
	}
	return out
}

// KernelCounts reports how many item updates used each Figure 2 kernel:
// rank-one, serial Cholesky, parallel Cholesky.
func (r *Result) KernelCounts() [3]int64 { return r.res.KernelCounts }

// Train runs BPMF on the data with the chosen engine.
func Train(data *Data, cfg Config) (*Result, error) {
	if cfg.Engine != Distributed {
		return train(data, cfg, nil, nil)
	}
	cc, err := coreConfig(data, cfg)
	if err != nil {
		return nil, err
	}
	res, _, err := dist.RunInProc(cc, data.prob, dist.Options{
		Ranks:          max(cfg.Ranks, 1),
		ThreadsPerRank: max(cfg.Threads, 1),
		BufferSize:     cfg.BufferBytes,
	})
	if err != nil {
		return nil, err
	}
	return &Result{res: res, data: data}, nil
}

// coreConfig validates a training call's inputs at the public boundary.
func coreConfig(data *Data, cfg Config) (core.Config, error) {
	if data == nil || data.prob == nil {
		return core.Config{}, fmt.Errorf("bpmf: nil data")
	}
	return cfg.toCore()
}

// train is the one shared-memory training path: build the chain state —
// fresh, or warm-started from the checkpoint read from r — bind it to
// cfg.Engine's executor, run the remaining iterations, and serialize the
// finished chain to w when one is given. The state lives in one
// core.Sampler whatever the engine, so every engine can checkpoint and
// resume. Distributed falls back to the sequential executor here: the
// in-process cluster keeps its state per rank (cmd/bpmf-dist has its own
// coordinated checkpoints), and the chain is the same one.
func train(data *Data, cfg Config, r io.Reader, w io.Writer) (*Result, error) {
	cc, err := coreConfig(data, cfg)
	if err != nil {
		return nil, err
	}
	var s *core.Sampler
	first := 0
	if r == nil {
		s, err = core.NewSampler(cc, data.prob)
	} else {
		var ckpt *core.Checkpoint
		if ckpt, err = core.ReadCheckpoint(r); err != nil {
			return nil, err
		}
		if ckpt.NextIter >= cc.Iters {
			return nil, fmt.Errorf("bpmf: checkpoint already holds %d iterations; Iters (%d) must exceed it",
				ckpt.NextIter, cc.Iters)
		}
		first = ckpt.NextIter
		s, err = core.ResumeSamplerGrown(cc, data.prob, ckpt)
	}
	if err != nil {
		return nil, err
	}
	threads := max(cfg.Threads, 1)
	release := func() {}
	switch cfg.Engine {
	case Sequential, Distributed:
	case WorkSteal:
		release, err = mc.Attach(s, mc.WorkSteal, threads)
	case Static:
		release, err = mc.Attach(s, mc.Static, threads)
	case GraphLab:
		graphlab.Attach(s, threads)
	default:
		err = fmt.Errorf("bpmf: unknown engine %d", cfg.Engine)
	}
	if err != nil {
		return nil, err
	}
	defer release()
	res := s.RunFrom(first)
	if w != nil {
		// The chain is finished, so the aliasing view is safe to serialize.
		if err := s.View().Write(w); err != nil {
			return nil, fmt.Errorf("bpmf: writing checkpoint: %w", err)
		}
	}
	return &Result{res: res, data: data}, nil
}

// TrainWithCheckpoint trains like Train and then serializes a resumable
// snapshot of the finished chain to w — the file cmd/bpmf-serve loads
// into a serving model. cfg.Engine and cfg.Threads are honoured for the
// shared-memory engines; every engine samples the identical chain for a
// given Config, so the checkpoint bytes do not depend on the choice, and
// only wall-clock time differs. The Distributed engine trains on the
// sequential executor here. Training errors and checkpoint I/O errors
// (full disk, closed pipe) are both reported.
func TrainWithCheckpoint(data *Data, cfg Config, w io.Writer) (*Result, error) {
	if w == nil {
		return nil, fmt.Errorf("bpmf: nil checkpoint writer")
	}
	return train(data, cfg, nil, w)
}

// ResumeWithCheckpoint warm-starts the Gibbs chain from a checkpoint
// read from r and continues it on data through cfg.Iters total
// iterations, on cfg.Engine's threads as in TrainWithCheckpoint; when w
// is non-nil the finished chain is serialized back out (the next
// cycle's warm-start). cfg.K and cfg.Seed must match the checkpointed
// run, and data's test split must be the one the checkpoint's posterior
// accumulators were built over.
//
// data may hold *more users* than the checkpoint (new users observed
// since it was written): their factor rows are folded in with the
// sampler's own keyed item-update conditional, so the resumed chain is
// bit-identical to a chain that had resumed over the same merged matrix
// in one shot — path independence is what makes incremental delta
// merging safe. The item catalog cannot grow (V's shape is pinned);
// new items need a full retrain.
func ResumeWithCheckpoint(data *Data, cfg Config, r io.Reader, w io.Writer) (*Result, error) {
	if r == nil {
		return nil, fmt.Errorf("bpmf: nil checkpoint reader")
	}
	return train(data, cfg, r, w)
}
