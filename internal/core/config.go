// Package core implements the Bayesian Probabilistic Matrix Factorization
// Gibbs sampler of Salakhutdinov & Mnih (ICML 2008) exactly as the paper's
// Algorithm 1 describes it, together with the three item-update kernels of
// Figure 2 (sequential rank-one update, sequential Cholesky, parallel
// Cholesky) and the hybrid kernel selection that underlies the multi-core
// and distributed engines.
//
// Every random draw comes from a stream keyed by (seed, iteration, side,
// item) — see package rng — and every reduction that feeds back into the
// Markov chain (the hyperparameter moments) is grouped by an explicit,
// configurable boundary list combined in a fixed order. Together these two
// properties make the sampler's output a pure function of (data, Config),
// independent of engine, thread count and rank count: the multi-core and
// distributed engines are tested to reproduce the sequential sampler
// bit-for-bit.
package core

import "fmt"

// Side selects the user or movie half of the model in stream keys.
type Side uint64

// Stream-key constants.
const (
	SideU Side = 0 // users / compounds
	SideV Side = 1 // movies / targets
)

// Config holds every knob of the sampler. The zero value is not valid; use
// DefaultConfig.
type Config struct {
	// K is the number of latent features (paper: K << M, N).
	K int
	// Alpha is the observation precision of R_ij ~ N(u_iᵀv_j, 1/Alpha).
	Alpha float64
	// Iters is the total number of Gibbs iterations.
	Iters int
	// Burnin is the number of initial iterations excluded from the
	// posterior-mean predictor.
	Burnin int
	// Seed drives all keyed random streams.
	Seed uint64

	// RankOneMax: items with nnz <= RankOneMax use the sequential
	// rank-one-update kernel (cheapest for very sparse items, Fig 2).
	RankOneMax int
	// KernelThreshold: items with nnz >= KernelThreshold use the parallel
	// Cholesky kernel (paper: 1000 ratings); items in between use the
	// sequential Cholesky kernel.
	KernelThreshold int
	// ParallelGrain is the number of ratings per accumulation chunk in the
	// parallel kernel. The chunk decomposition is a function of nnz only,
	// so results do not depend on worker count.
	ParallelGrain int

	// MomentGroupsU/V are sorted row-boundary lists (starting 0, ending
	// M resp. N) defining the deterministic grouped reduction of the
	// hyperparameter moments. nil means a single group (fully sequential
	// summation). The distributed engine uses its partition boundaries;
	// to compare engines bit-for-bit, configure both with the same list.
	MomentGroupsU []int
	MomentGroupsV []int

	// ClampMin/ClampMax clip predictions to the rating range (e.g. 0.5–5
	// for MovieLens; Clip). ClampMax == ClampMin disables clipping, and
	// ClampMin > ClampMax is refused.
	ClampMin, ClampMax float64
}

// DefaultConfig returns the configuration used throughout the paper's
// experiments: K = 32 latent features, observation precision 2, hybrid
// kernel threshold at 1000 ratings.
func DefaultConfig() Config {
	return Config{
		K:               32,
		Alpha:           2.0,
		Iters:           20,
		Burnin:          10,
		Seed:            42,
		RankOneMax:      24,
		KernelThreshold: 1000,
		ParallelGrain:   512,
	}
}

// Validate checks the configuration for consistency.
func (c Config) Validate() error {
	switch {
	case c.K < 1:
		return fmt.Errorf("core: K must be >= 1, got %d", c.K)
	case c.Alpha <= 0:
		return fmt.Errorf("core: Alpha must be > 0, got %g", c.Alpha)
	case c.Iters < 1:
		return fmt.Errorf("core: Iters must be >= 1, got %d", c.Iters)
	case c.Burnin < 0 || c.Burnin >= c.Iters:
		return fmt.Errorf("core: Burnin must be in [0, Iters), got %d", c.Burnin)
	case c.ParallelGrain < 1:
		return fmt.Errorf("core: ParallelGrain must be >= 1, got %d", c.ParallelGrain)
	case c.RankOneMax < 0:
		return fmt.Errorf("core: RankOneMax must be >= 0, got %d", c.RankOneMax)
	case c.KernelThreshold <= c.RankOneMax:
		return fmt.Errorf("core: KernelThreshold (%d) must exceed RankOneMax (%d)",
			c.KernelThreshold, c.RankOneMax)
	}
	if err := CheckClamp(c.ClampMin, c.ClampMax); err != nil {
		return fmt.Errorf("core: %w", err)
	}
	return nil
}

// stream key tags (arbitrary distinct constants mixed into stream keys).
const (
	keyInit  uint64 = 0x1171a9
	keyHyper uint64 = 0x22be72
	keyItem  uint64 = 0x33c7e3
)
