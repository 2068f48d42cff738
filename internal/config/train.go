package config

import (
	"flag"
	"fmt"
	"strings"
)

// Engine names accepted by Train.Engine (aliases included), mapped to
// their canonical form, matching the public bpmf.Engine set.
var engineNames = map[string]string{
	"sequential": "sequential", "seq": "sequential",
	"worksteal": "worksteal", "tbb": "worksteal",
	"static": "static", "openmp": "static",
	"graphlab":    "graphlab",
	"distributed": "distributed", "dist": "distributed", "mpi": "distributed",
}

// engineList is the canonical names as the flag help and the validation
// error print them.
const engineList = "sequential | worksteal | static | graphlab | distributed"

// CanonicalEngine resolves an engine name or alias (case-insensitive)
// to its canonical name, or "" when the name is unknown.
func CanonicalEngine(s string) string { return engineNames[strings.ToLower(s)] }

// Train configures cmd/bpmf: one training run from a file or synthetic
// benchmark, optionally published as a servable checkpoint.
type Train struct {
	Data    Data    `json:"data"`
	Sampler Sampler `json:"sampler"`
	// Engine selects the execution strategy (one of engineList, or an
	// alias).
	Engine string `json:"engine,omitempty"`
	// Threads is the worker count (per rank for distributed).
	Threads int `json:"threads,omitempty"`
	// Ranks is the virtual rank count for the distributed engine.
	Ranks int `json:"ranks,omitempty"`
	// Reorder applies communication-minimizing reordering (distributed).
	Reorder bool `json:"reorder,omitempty"`
	// CkptOut, when set, writes a resumable chain checkpoint there after
	// training (servable with bpmf-serve).
	CkptOut string `json:"ckpt_out,omitempty"`
	// ResumeCkpt, when set, warm-starts the chain from this checkpoint
	// instead of drawing a fresh initialization: the run continues at
	// the checkpoint's next iteration and stops at -iters total. Users
	// added to the rating matrix since the checkpoint are folded in
	// deterministically; -k and -seed must match the checkpointed run.
	ResumeCkpt string `json:"resume_ckpt,omitempty"`
}

// DefaultTrain returns cmd/bpmf's defaults: the paper's 20/10 chain at
// K=32 on the work-stealing engine.
func DefaultTrain() Train {
	return Train{
		Data:    Data{Scale: 1, TestFrac: 0.2},
		Sampler: Sampler{K: 32, Alpha: 2, Iters: 20, Burnin: 10, Seed: 42},
		Engine:  "worksteal",
		Threads: 1,
		Ranks:   1,
	}
}

// RegisterFlags declares cmd/bpmf's flag surface over the struct's
// current values.
func (c *Train) RegisterFlags(fs *flag.FlagSet) {
	registerData(fs, &c.Data)
	registerSampler(fs, &c.Sampler)
	fs.StringVar(&c.Engine, "engine", c.Engine, engineList)
	fs.IntVar(&c.Threads, "threads", c.Threads, "worker threads (per rank for distributed)")
	fs.IntVar(&c.Ranks, "ranks", c.Ranks, "virtual ranks for the distributed engine")
	fs.BoolVar(&c.Reorder, "reorder", c.Reorder, "communication-minimizing reordering (distributed)")
	fs.StringVar(&c.CkptOut, "ckpt-out", c.CkptOut, "write a resumable chain checkpoint here after training (servable with bpmf-serve)")
	fs.StringVar(&c.ResumeCkpt, "resume-ckpt", c.ResumeCkpt, "warm-start the chain from this checkpoint and continue to -iters total iterations")
}

// Validate checks the merged configuration.
func (c Train) Validate() error {
	if c.Data.Path == "" && c.Data.Synthetic == "" {
		return fmt.Errorf("config: need a data path (-data) or a synthetic benchmark (-synthetic)")
	}
	if err := c.Data.Validate(); err != nil {
		return err
	}
	if err := c.Sampler.Validate(); err != nil {
		return err
	}
	if CanonicalEngine(c.Engine) == "" {
		return fmt.Errorf("config: unknown engine %q (want %s)", c.Engine, engineList)
	}
	if c.Threads < 1 {
		return fmt.Errorf("config: threads must be >= 1, got %d", c.Threads)
	}
	if c.Ranks < 1 {
		return fmt.Errorf("config: ranks must be >= 1, got %d", c.Ranks)
	}
	return nil
}

// registerData declares the shared data-source flags (-data, -synthetic,
// -scale, -test): one declaration for every command, so defaults and
// help strings cannot drift per command anymore.
func registerData(fs *flag.FlagSet, d *Data) {
	fs.StringVar(&d.Path, "data", d.Path, "rating matrix to train on (MatrixMarket .mtx or binary .bcsr, sniffed)")
	fs.StringVar(&d.Synthetic, "synthetic", d.Synthetic, "built-in benchmark: chembl | ml-20m | small | tiny")
	fs.Float64Var(&d.Scale, "scale", d.Scale, "scale factor for the synthetic benchmark (> 1 scales up)")
	fs.Float64Var(&d.TestFrac, "test", d.TestFrac, "held-out fraction for RMSE evaluation")
}

// registerSampler declares the shared Gibbs-chain flags.
func registerSampler(fs *flag.FlagSet, s *Sampler) {
	fs.IntVar(&s.K, "k", s.K, "latent features")
	fs.Float64Var(&s.Alpha, "alpha", s.Alpha, "observation precision")
	fs.IntVar(&s.Iters, "iters", s.Iters, "Gibbs iterations")
	fs.IntVar(&s.Burnin, "burnin", s.Burnin, "burn-in iterations")
	fs.Uint64Var(&s.Seed, "seed", s.Seed, "random seed")
}
