// Package config is the one validated configuration contract behind
// every command in this repo. Each CLI has a typed config struct
// (Train, Dist, Serve, Trainer, Load, Datagen, Experiments) built from
// shared sub-structs (Data, Sampler, Clamp, Checkpoint, Fault, Lineage);
// each struct has a Default* constructor and a Validate() error method
// that returns precise, field-naming errors.
//
// Resolution order is always the same three layers, later wins:
//
//	Default*()  <  -config JSON file  <  explicitly set flags
//
// so every cmd/* main shrinks to parse → merge → Validate() → run (see
// Parse). The ad-hoc checks that used to be scattered through the CLIs
// (-scale <= 0, -peers syntax, clamp ranges, Burnin >= Iters, elastic
// prerequisites) all live behind Validate() here, table-tested in
// config_test.go.
package config

import (
	"encoding/json"
	"fmt"
	"strings"
	"time"

	"repro/internal/core"
	"repro/internal/datagen"
	"repro/internal/sparse"
)

// Duration is a time.Duration that reads naturally in both layers: JSON
// accepts "3s"-style strings (or raw nanosecond numbers) and flags use
// the standard flag.Duration syntax.
type Duration time.Duration

// Std returns the value as a standard time.Duration.
func (d Duration) Std() time.Duration { return time.Duration(d) }

// String formats like time.Duration (flag.Value contract).
func (d Duration) String() string { return time.Duration(d).String() }

// Set parses a flag value like "1.5s" (flag.Value contract).
func (d *Duration) Set(s string) error {
	v, err := time.ParseDuration(s)
	if err != nil {
		return err
	}
	*d = Duration(v)
	return nil
}

// MarshalJSON renders the duration as its "3s"-style string.
func (d Duration) MarshalJSON() ([]byte, error) { return json.Marshal(d.String()) }

// UnmarshalJSON accepts a duration string or a nanosecond number.
func (d *Duration) UnmarshalJSON(b []byte) error {
	var s string
	if err := json.Unmarshal(b, &s); err == nil {
		return d.Set(s)
	}
	var n int64
	if err := json.Unmarshal(b, &n); err != nil {
		return fmt.Errorf("duration must be a string like \"3s\" or a nanosecond count: %s", b)
	}
	*d = Duration(n)
	return nil
}

// Data says where a command's rating matrix comes from: a file (.mtx or
// .bcsr, sniffed) or a named synthetic benchmark at a scale.
type Data struct {
	// Path is a rating-matrix file (MatrixMarket .mtx or binary .bcsr).
	Path string `json:"path,omitempty"`
	// Synthetic names a built-in benchmark: chembl | ml-20m | small | tiny.
	Synthetic string `json:"synthetic,omitempty"`
	// Scale multiplies the synthetic benchmark's rows, cols and nnz.
	Scale float64 `json:"scale,omitempty"`
	// TestFrac is the held-out fraction for RMSE evaluation.
	TestFrac float64 `json:"test,omitempty"`
}

// Validate checks the data source without touching the filesystem.
func (d Data) Validate() error {
	if d.Scale <= 0 {
		return fmt.Errorf("config: data scale must be positive, got %g", d.Scale)
	}
	if !(d.TestFrac >= 0 && d.TestFrac < 1) { // NaN fails both
		return fmt.Errorf("config: data test fraction must be in [0, 1), got %g", d.TestFrac)
	}
	if d.Synthetic != "" {
		if _, err := SpecByName(d.Synthetic, 0); err != nil {
			return err
		}
	}
	return nil
}

// Spec resolves the configured synthetic benchmark (scaled) for seed.
func (d Data) Spec(seed uint64) (datagen.Spec, error) {
	if d.Scale <= 0 {
		return datagen.Spec{}, fmt.Errorf("config: data scale must be positive, got %g", d.Scale)
	}
	s, err := SpecByName(d.Synthetic, seed)
	if err != nil {
		return datagen.Spec{}, err
	}
	// Any scale other than 1 is applied — upscales included.
	if d.Scale != 1 {
		s = datagen.Scaled(s, d.Scale)
	}
	return s, nil
}

// Matrix resolves the data source to the full rating matrix: the file at
// Path when set (MatrixMarket or .bcsr, sniffed by sparse.Load),
// otherwise the Synthetic benchmark generated for seed at Scale.
func (d Data) Matrix(seed uint64) (*sparse.CSR, error) {
	if d.Path != "" {
		return sparse.Load(d.Path)
	}
	spec, err := d.Spec(seed)
	if err != nil {
		return nil, err
	}
	return datagen.Generate(spec).R, nil
}

// Split resolves the source to the training matrix and the held-out
// test set. The split (sparse.SplitTrainTest) is a pure function of
// (source, TestFrac, seed): every command that goes through here with the
// same three reconstructs the same one — which is how bpmf-trainer and
// bpmf-serve line up with the chain cmd/bpmf checkpointed. A file goes
// through sparse.LoadSplit, which splits the loaded matrix in place
// instead of building a training copy beside it.
func (d Data) Split(seed uint64) (train *sparse.CSR, test []sparse.Entry, err error) {
	if d.Path != "" {
		return sparse.LoadSplit(d.Path, d.TestFrac, seed)
	}
	full, err := d.Matrix(seed)
	if err != nil {
		return nil, nil, err
	}
	train, test = sparse.SplitTrainTest(full, d.TestFrac, seed)
	return train, test, nil
}

// Problem is Split with the transpose built: what a sampler trains on.
func (d Data) Problem(seed uint64) (*core.Problem, error) {
	train, test, err := d.Split(seed)
	if err != nil {
		return nil, err
	}
	return core.NewProblem(train, test), nil
}

// SpecByName resolves a synthetic benchmark name to its generator spec.
func SpecByName(name string, seed uint64) (datagen.Spec, error) {
	switch strings.ToLower(name) {
	case "chembl":
		return datagen.ChEMBL(seed), nil
	case "ml-20m", "ml20m", "movielens":
		return datagen.ML20M(seed), nil
	case "small":
		return datagen.Small(seed), nil
	case "tiny":
		return datagen.Tiny(seed), nil
	default:
		return datagen.Spec{}, fmt.Errorf("config: unknown synthetic benchmark %q (want chembl | ml-20m | small | tiny)", name)
	}
}

// Sampler is the Gibbs-chain configuration shared by the training
// commands: one declaration of the -k/-alpha/-iters/-burnin/-seed knobs
// whose defaults and help strings used to drift between commands.
type Sampler struct {
	// K is the number of latent features.
	K int `json:"k,omitempty"`
	// Alpha is the observation precision of R_ij ~ N(u·v, 1/Alpha).
	Alpha float64 `json:"alpha,omitempty"`
	// Iters is the total number of Gibbs iterations.
	Iters int `json:"iters,omitempty"`
	// Burnin iterations are excluded from the posterior-mean predictor.
	Burnin int `json:"burnin,omitempty"`
	// Seed drives all keyed random streams.
	Seed uint64 `json:"seed"`
}

// Core maps the chain knobs onto the sampler's configuration; every
// other field keeps core.DefaultConfig's value.
func (s Sampler) Core() core.Config {
	cc := core.DefaultConfig()
	cc.K, cc.Alpha, cc.Iters, cc.Burnin, cc.Seed = s.K, s.Alpha, s.Iters, s.Burnin, s.Seed
	return cc
}

// Validate checks the chain shape, including the Burnin < Iters rule
// (without it no post-burn-in samples would remain and every posterior
// mean would be NaN).
func (s Sampler) Validate() error {
	switch {
	case s.K < 1:
		return fmt.Errorf("config: sampler k must be >= 1, got %d", s.K)
	case s.Alpha <= 0:
		return fmt.Errorf("config: sampler alpha must be positive, got %g", s.Alpha)
	case s.Iters < 1:
		return fmt.Errorf("config: sampler iters must be >= 1, got %d", s.Iters)
	case s.Burnin < 0:
		return fmt.Errorf("config: sampler burnin must be >= 0, got %d", s.Burnin)
	case s.Burnin >= s.Iters:
		return fmt.Errorf("config: sampler burnin (%d) must be less than iters (%d): no post-burn-in samples would remain", s.Burnin, s.Iters)
	}
	return nil
}

// Clamp clips served predictions to a rating range: clipping is on iff
// Max > Min (core.Clip, serve.NewModel's rule; the zero value is off),
// and an inverted range is a validation error instead of a silent no-op.
type Clamp struct {
	// Min and Max bound the reported predictions.
	Min float64 `json:"min,omitempty"`
	Max float64 `json:"max,omitempty"`
}

// Validate rejects an inverted range (core.CheckClamp).
func (c Clamp) Validate() error {
	if err := core.CheckClamp(c.Min, c.Max); err != nil {
		return fmt.Errorf("config: %w", err)
	}
	return nil
}

// Lineage pins a served checkpoint's provenance: a (re)load must
// present a checkpoint whose training Seed (and latent dimension K,
// when set) match, so a chain retrained under different parameters
// cannot silently replace the model a route's exclusions, test split or
// clients depend on.
type Lineage struct {
	// Seed is the required training seed.
	Seed uint64 `json:"seed"`
	// K, when > 0, is the required latent dimension.
	K int `json:"k,omitempty"`
}

// Checkpoint configures the coordinated-checkpoint plane of bpmf-dist.
type Checkpoint struct {
	// Dir is the checkpoint directory (shared storage across ranks).
	Dir string `json:"dir,omitempty"`
	// Every checkpoints each N iterations (0 disables).
	Every int `json:"every,omitempty"`
	// ResumeIter pins a restart to the sealed manifest of this iteration
	// (0 = latest).
	ResumeIter int `json:"resume_iter,omitempty"`
}

// Validate checks the checkpoint plane's internal consistency.
func (c Checkpoint) Validate() error {
	switch {
	case c.Every < 0:
		return fmt.Errorf("config: checkpoint every must be >= 0, got %d", c.Every)
	case c.ResumeIter < 0:
		return fmt.Errorf("config: checkpoint resume-iter must be >= 0, got %d", c.ResumeIter)
	case c.Every > 0 && c.Dir == "":
		return fmt.Errorf("config: checkpoint every (%d) needs a checkpoint dir", c.Every)
	case c.ResumeIter > 0 && c.Dir == "":
		return fmt.Errorf("config: checkpoint resume-iter (%d) needs a checkpoint dir", c.ResumeIter)
	}
	return nil
}

// Fault configures the deterministic fault/membership test hooks used
// by the crash-recovery and elastic smoke tests. The disabled self-kill
// value is {-1, -1}.
type Fault struct {
	// DieRank is the rank that kills itself (-1 = never).
	DieRank int `json:"die_rank,omitempty"`
	// DieIter is the iteration after which DieRank exits (-1 = never).
	DieIter int `json:"die_iter,omitempty"`
	// GrowAtIter defers admitting pending joiners until this iteration
	// (0 = the first boundary after a join request arrives).
	GrowAtIter int `json:"grow_at_iter,omitempty"`
	// JoinDelay sleeps this long before a -join worker files its
	// request, so a smoke test can aim the join at a mid-run iteration.
	JoinDelay Duration `json:"join_delay,omitempty"`
	// IterDelay pauses every rank after each iteration — pacing for
	// smoke tests whose membership events must land mid-run. It cannot
	// change the sampled chain.
	IterDelay Duration `json:"iter_delay,omitempty"`
}

// Validate requires the two halves of the injection together and
// non-negative test-hook knobs.
func (f Fault) Validate() error {
	if (f.DieRank >= 0) != (f.DieIter >= 0) {
		return fmt.Errorf("config: fault injection needs both die-rank and die-iter (got die-rank %d, die-iter %d)", f.DieRank, f.DieIter)
	}
	if f.GrowAtIter < 0 {
		return fmt.Errorf("config: grow-at-iter must be >= 0, got %d", f.GrowAtIter)
	}
	if f.JoinDelay < 0 {
		return fmt.Errorf("config: join-delay must be >= 0, got %s", f.JoinDelay)
	}
	if f.IterDelay < 0 {
		return fmt.Errorf("config: iter-delay must be >= 0, got %s", f.IterDelay)
	}
	return nil
}

// Enabled reports whether a self-kill is configured.
func (f Fault) Enabled() bool { return f.DieRank >= 0 && f.DieIter >= 0 }
