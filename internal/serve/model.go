// Package serve turns a trained BPMF chain into an online model server:
// the paper's headline use case is industrial-scale recommendation whose
// 15-day runs must ultimately *serve* predictions, with the confidence
// intervals the introduction credits BPMF for.
//
// A core.Checkpoint is loaded into an immutable Model snapshot; a Server
// holds the current snapshot behind an atomic pointer and hot-swaps it on
// reload (SIGHUP or file change), so queries never block on a reload and
// never observe a half-loaded model. Every ranking — one request or the
// top-N precompute's 64 users at a time — is one call of the fused
// score→select pass of internal/rank, whose kernels the offline
// evaluator shares; the precompute is sharded over an internal/sched
// worker pool; and cold-start users are folded in by
// sampling their factor row from the checkpointed posterior with the
// sampler's own core.UpdateItem conditional.
package serve

import (
	"errors"
	"fmt"
	"math"
	"sync"

	"repro/internal/core"
	"repro/internal/la"
	"repro/internal/rank"
	"repro/internal/sched"
	"repro/internal/sparse"
)

// Errors returned by the query API. The serving layer never panics on
// malformed input: out-of-range indices and inconsistent request shapes
// come back as these documented errors.
var (
	ErrUserRange = errors.New("serve: user index out of range")
	ErrItemRange = errors.New("serve: item index out of range")
	ErrBadInput  = errors.New("serve: malformed request")
)

// Options configures how a checkpoint becomes a serving model.
type Options struct {
	// Alpha is the observation precision the chain was trained with
	// (Config.Alpha). <= 0 falls back to the core default. It sets the
	// observation-noise floor of every predictive Std and the fold-in
	// likelihood weight.
	Alpha float64
	// ClampMin/ClampMax clip served predictions to the rating range.
	// Clipping applies when ClampEnabled is set or (for compatibility
	// with the old "(0,0) = off" flag sentinel) when ClampMax > ClampMin;
	// an inverted range is rejected instead of silently disabling.
	ClampMin, ClampMax float64
	// ClampEnabled turns clipping on explicitly, which makes degenerate
	// ranges like [0, N] with N <= 0 configurable.
	ClampEnabled bool
	// Exclude lists each user's already-rated items (the training
	// matrix); Recommend skips them. nil excludes nothing.
	Exclude *sparse.CSR
	// ExcludeSource serves the same per-user exclusion lists lazily —
	// e.g. a .bcsr training matrix mapped with sparse.OpenBinary, so a
	// serving restart maps shards instead of decoding them and only
	// the shards behind actually-queried users are ever verified.
	// Ignored when Exclude is set.
	ExcludeSource Excluder
	// Test aligns the checkpoint's PredSum/PredSumSq accumulators with
	// their (user, item) identities — the held-out entries of the
	// training run, in split order. When given, Predict serves the exact
	// posterior predictive mean/std for those pairs.
	Test []sparse.Entry
	// Lineage, when non-nil, pins the checkpoint's provenance: every
	// load and hot reload must present a checkpoint whose training Seed
	// (and latent dimension K, when Lineage.K > 0) match. Set it
	// whenever Test (and Exclude) were reconstructed from a specific
	// training run's seed — a hot reload of a chain retrained under
	// another seed would otherwise pass the count-only shape checks and
	// serve posterior accumulators aligned to the wrong (user, item)
	// pairs — or whenever a registry route's clients must never observe
	// a silently swapped-in different chain.
	Lineage *Lineage
	// TopN > 0 precomputes every user's top-TopN list at load time;
	// Recommend answers requests with n <= TopN from the table.
	TopN int
	// Pool shards the top-N precompute across its workers (nil =
	// sequential). The pool is only used during NewModel.
	Pool *sched.Pool
}

// Lineage names the training provenance a served checkpoint must match
// across hot reloads (the explicit generalization of the old PinSeed
// bool): the training Seed, and optionally the latent dimension K.
type Lineage struct {
	// Seed is the required training seed.
	Seed uint64
	// K, when > 0, is the required latent dimension.
	K int
}

// Check validates a checkpoint's (seed, k) against the lineage.
func (l *Lineage) Check(seed uint64, k int) error {
	if l == nil {
		return nil
	}
	if seed != l.Seed {
		return fmt.Errorf("%w: checkpoint seed %d does not match the pinned lineage seed %d", ErrBadInput, seed, l.Seed)
	}
	if l.K > 0 && k != l.K {
		return fmt.Errorf("%w: checkpoint K=%d does not match the pinned lineage K=%d", ErrBadInput, k, l.K)
	}
	return nil
}

// Prediction is one served rating estimate.
type Prediction struct {
	// Score is the (clamped) point prediction u·v from the final factor
	// sample.
	Score float64
	// Mean and Std summarize the posterior predictive distribution. For
	// pairs covered by the checkpoint's accumulators they are the exact
	// across-sample mean and spread (plus 1/Alpha observation noise);
	// otherwise Mean repeats Score and Std is the observation-noise
	// floor.
	Mean, Std float64
	// Posterior reports whether Mean/Std came from the checkpointed
	// across-sample accumulators.
	Posterior bool
}

// postStat is a checkpointed posterior predictive summary for one pair.
type postStat struct{ mean, std float64 }

// Model is an immutable serving snapshot of a trained chain. All methods
// are safe for concurrent use; nothing is mutated after NewModel returns
// (the fold-in scratch pool is internally synchronized).
type Model struct {
	k        int
	u, v     *la.Matrix
	cfg      core.Config // kernel selection + alpha for fold-in
	seed     uint64
	nextIter int
	nSamples int
	hyperU   *core.Hyper
	alpha    float64
	clampOn  bool
	clampMin float64
	clampMax float64
	exclude  *sparse.CSR
	exclSrc  Excluder
	post     map[uint64]postStat
	table    *Table

	ws      sync.Pool // *core.Workspace for fold-in draws
	exclBuf sync.Pool // *[]int32 scratch for lazily-decoded exclusion rows
}

// Excluder serves per-user exclusion lists without materializing the
// whole training matrix. Implementations may verify and decode lazily
// (sparse.Mapped does, shard by shard); an error means the user's list
// could not be read — Recommend fails the request rather than silently
// recommending already-rated items.
type Excluder interface {
	// Dims returns (users, items) of the underlying matrix.
	Dims() (m, n int)
	// AppendRowCols appends user's ascending rated-item ids to dst.
	AppendRowCols(dst []int32, user int) ([]int32, error)
}

// NewModel validates a checkpoint and builds an immutable serving
// snapshot from it. The user-side hyperparameters needed for fold-in are
// reconstructed deterministically: they are exactly the (μ, Λ) the
// resumed chain would draw for the user side at iteration
// ckpt.NextIter, since that draw is keyed by (seed, iter, side) and
// conditions on the checkpointed U.
func NewModel(ckpt *core.Checkpoint, opts Options) (*Model, error) {
	if ckpt == nil || ckpt.U == nil || ckpt.V == nil {
		return nil, fmt.Errorf("%w: nil checkpoint", ErrBadInput)
	}
	k := ckpt.K
	if k < 1 || ckpt.U.Cols != k || ckpt.V.Cols != k {
		return nil, fmt.Errorf("%w: checkpoint K=%d does not match factor shapes %dx%d / %dx%d",
			ErrBadInput, k, ckpt.U.Rows, ckpt.U.Cols, ckpt.V.Rows, ckpt.V.Cols)
	}
	if ckpt.U.Rows < 1 || ckpt.V.Rows < 1 {
		return nil, fmt.Errorf("%w: checkpoint has no users or no items", ErrBadInput)
	}
	if opts.Exclude != nil && (opts.Exclude.M != ckpt.U.Rows || opts.Exclude.N != ckpt.V.Rows) {
		return nil, fmt.Errorf("%w: exclusion matrix %dx%d does not match model %dx%d",
			ErrBadInput, opts.Exclude.M, opts.Exclude.N, ckpt.U.Rows, ckpt.V.Rows)
	}
	if opts.Exclude == nil && opts.ExcludeSource != nil {
		if em, en := opts.ExcludeSource.Dims(); em != ckpt.U.Rows || en != ckpt.V.Rows {
			return nil, fmt.Errorf("%w: exclusion source %dx%d does not match model %dx%d",
				ErrBadInput, em, en, ckpt.U.Rows, ckpt.V.Rows)
		}
	}
	if opts.Test != nil && len(opts.Test) != len(ckpt.PredSum) {
		return nil, fmt.Errorf("%w: %d test entries do not match %d checkpointed accumulators",
			ErrBadInput, len(opts.Test), len(ckpt.PredSum))
	}
	if err := opts.Lineage.Check(ckpt.Seed, k); err != nil {
		return nil, err
	}
	clampOn := opts.ClampEnabled || opts.ClampMax > opts.ClampMin
	if clampOn && opts.ClampMin > opts.ClampMax {
		return nil, fmt.Errorf("%w: clamp min (%g) exceeds clamp max (%g)",
			ErrBadInput, opts.ClampMin, opts.ClampMax)
	}
	alpha := opts.Alpha
	if alpha <= 0 {
		alpha = core.DefaultConfig().Alpha
	}

	cfg := core.DefaultConfig()
	cfg.K = k
	cfg.Alpha = alpha
	cfg.Seed = ckpt.Seed
	cfg.Burnin = 0

	m := &Model{
		k:        k,
		u:        ckpt.U.Clone(),
		v:        ckpt.V.Clone(),
		cfg:      cfg,
		seed:     ckpt.Seed,
		nextIter: ckpt.NextIter,
		nSamples: ckpt.NSamples,
		alpha:    alpha,
		clampOn:  clampOn,
		clampMin: opts.ClampMin,
		clampMax: opts.ClampMax,
		exclude:  opts.Exclude,
	}
	if opts.Exclude == nil {
		m.exclSrc = opts.ExcludeSource
	}
	m.ws.New = func() any { return core.NewWorkspace(k) }
	m.exclBuf.New = func() any { s := make([]int32, 0, 64); return &s }

	// User-side hyperparameters for fold-in: the single-group moment
	// reduction over the checkpointed U, drawn from the keyed stream of
	// iteration NextIter — bit-identical to the resumed sampler's own
	// user-side draw.
	mom := core.MomentsGrouped(m.u, core.GroupBoundaries(nil, m.u.Rows), k, nil)
	m.hyperU = core.NewHyper(k)
	core.SampleHyper(core.DefaultNWPrior(k), mom, core.HyperStream(m.seed, m.nextIter, core.SideU), m.hyperU)

	// Posterior predictive summaries of the checkpointed accumulators,
	// mirroring core.Predictor.Intervals.
	if opts.Test != nil && ckpt.NSamples > 0 {
		m.post = make(map[uint64]postStat, len(opts.Test))
		n := float64(ckpt.NSamples)
		for t, e := range opts.Test {
			mean := ckpt.PredSum[t] / n
			variance := ckpt.PredSumSq[t]/n - mean*mean
			if variance < 0 {
				variance = 0
			}
			variance += 1 / alpha
			m.post[pairKey(int(e.Row), int(e.Col))] = postStat{mean: mean, std: math.Sqrt(variance)}
		}
	}

	if opts.TopN > 0 {
		var err error
		if m.table, err = precomputeTopN(m, opts.Pool, opts.TopN); err != nil {
			return nil, err
		}
	}
	return m, nil
}

// pairKey packs a (user, item) pair into one map key.
func pairKey(user, item int) uint64 { return uint64(uint32(user))<<32 | uint64(uint32(item)) }

// NumUsers returns the number of user rows in the snapshot.
func (m *Model) NumUsers() int { return m.u.Rows }

// NumItems returns the number of item rows in the snapshot.
func (m *Model) NumItems() int { return m.v.Rows }

// K returns the latent dimension.
func (m *Model) K() int { return m.k }

// NSamples returns how many post-burn-in samples the checkpoint's
// posterior accumulators average over.
func (m *Model) NSamples() int { return m.nSamples }

// clamp applies the configured rating-range clip.
func (m *Model) clamp(v float64) float64 {
	if m.clampOn {
		v = math.Min(m.clampMax, math.Max(m.clampMin, v))
	}
	return v
}

// obsStd is the observation-noise floor of every predictive Std.
func (m *Model) obsStd() float64 { return math.Sqrt(1 / m.alpha) }

// checkUser validates a user index against the snapshot's user rows.
func (m *Model) checkUser(user int) error {
	if user < 0 || user >= m.u.Rows {
		return fmt.Errorf("%w: user %d of %d", ErrUserRange, user, m.u.Rows)
	}
	return nil
}

// checkVector validates an explicit factor vector's width.
func (m *Model) checkVector(u la.Vector) error {
	if len(u) != m.k {
		return fmt.Errorf("%w: factor vector has %d features, model has %d", ErrBadInput, len(u), m.k)
	}
	return nil
}

// Predict serves the rating estimate for (user, item) with its posterior
// predictive mean and standard deviation.
func (m *Model) Predict(user, item int) (Prediction, error) {
	if err := m.checkUser(user); err != nil {
		return Prediction{}, err
	}
	if item < 0 || item >= m.v.Rows {
		return Prediction{}, fmt.Errorf("%w: item %d of %d", ErrItemRange, item, m.v.Rows)
	}
	score := m.clamp(la.Dot(m.u.Row(user), m.v.Row(item)))
	p := Prediction{Score: score, Mean: score, Std: m.obsStd()}
	if st, ok := m.post[pairKey(user, item)]; ok {
		p.Mean, p.Std, p.Posterior = st.mean, st.std, true
	}
	return p, nil
}

// Recommend returns the user's top-n items, excluding the user's
// already-rated items when the model was built with an exclusion matrix.
// Ranking is by raw predicted score (clamping first would tie every
// above-range prediction at ClampMax and degrade the order to index
// order); the reported Score of each item is clamped to the serving
// rating range, matching Predict. Requests with
// n <= the precomputed table size are answered from the table; the two
// paths share one ranking core and return identical lists. n <= 0
// returns nil.
func (m *Model) Recommend(user, n int) ([]rank.Item, error) {
	if err := m.checkUser(user); err != nil {
		return nil, err
	}
	if n <= 0 {
		return nil, nil
	}
	if m.table != nil && n <= m.table.n {
		return m.clampItems(m.table.get(user, n)), nil
	}
	buf := m.leaseExcl()
	defer m.exclBuf.Put(buf)
	excl, err := m.excludeList(user, buf)
	if err != nil {
		return nil, err
	}
	return m.rankOne(m.u.Row(user), excl, n), nil
}

// RecommendVector ranks every item for an explicit factor vector,
// skipping the ascending-sorted exclusion list excl (nil = none). It is
// the recommendation path for folded-in users, whose rated items are
// their exclusion list. Like Recommend, ranking is raw and reported
// scores are clamped.
func (m *Model) RecommendVector(u la.Vector, excl []int32, n int) ([]rank.Item, error) {
	if n <= 0 {
		return nil, nil
	}
	if err := m.checkVector(u); err != nil {
		return nil, err
	}
	return m.rankOne(u, excl, n), nil
}

// rankOne is the live ranking of one request: rank.Recommend over a
// batch of one, the pass the table precompute runs over larger batches,
// so the two cannot drift.
func (m *Model) rankOne(u la.Vector, excl []int32, n int) []rank.Item {
	q := [1]rank.Query{{U: u, Excl: excl, N: n}}
	rank.Recommend(m.v, q[:])
	return m.clampItems(q[0].Items)
}

// clampItems clamps the reported scores of a ranked list in place and
// returns it.
func (m *Model) clampItems(items []rank.Item) []rank.Item {
	if m.clampOn {
		for i := range items {
			items[i].Score = m.clamp(items[i].Score)
		}
	}
	return items
}

// leaseExcl leases the scratch that one ranking pass decodes its lazy
// exclusion rows into; the caller puts it back in m.exclBuf once the
// pass has read the lists.
func (m *Model) leaseExcl() *[]int32 {
	buf := m.exclBuf.Get().(*[]int32)
	*buf = (*buf)[:0]
	return buf
}

// excludeList returns the user's sorted already-rated item list: a view
// of the CSR row, or — from a lazy Excluder — the row decoded onto the
// end of *buf, so one pass's users share one scratch (lists handed out
// earlier stay valid when it grows: they keep the array they were cut
// from). An error fails the request — recommending items the user
// already rated because an exclusion shard went bad would be silent
// misbehavior.
func (m *Model) excludeList(user int, buf *[]int32) ([]int32, error) {
	if m.exclude != nil {
		cols, _ := m.exclude.Row(user)
		return cols, nil
	}
	if m.exclSrc == nil {
		return nil, nil
	}
	start := len(*buf)
	lst, err := m.exclSrc.AppendRowCols(*buf, user)
	if err != nil {
		return nil, fmt.Errorf("serve: exclusion row %d: %w", user, err)
	}
	*buf = lst
	return lst[start:len(lst):len(lst)], nil
}

// FoldIn samples a factor row for a user that was not in the training
// run, conditioned on its observed ratings — the cold-start path that
// folds a new user into the posterior without re-running the chain. The
// draw is the sampler's own core.UpdateItem conditional
//
//	u_new ~ N(Λ*⁻¹(Λμ + α Σ r_j v_j), Λ*⁻¹), Λ* = Λ + α Σ v_j v_jᵀ
//
// using the model's reconstructed user-side hyperparameters and the
// checkpointed item factors. items must be strictly ascending (the CSR
// row contract — it fixes the accumulation order, making the draw
// deterministic) with one rating value each; items may be empty, which
// yields a draw from the user prior. key seeds the draw's random stream:
// equal (model, items, vals, key) always returns the identical vector.
func (m *Model) FoldIn(items []int32, vals []float64, key int) (la.Vector, error) {
	if len(items) != len(vals) {
		return nil, fmt.Errorf("%w: %d items vs %d values", ErrBadInput, len(items), len(vals))
	}
	for p, it := range items {
		if int(it) < 0 || int(it) >= m.v.Rows {
			return nil, fmt.Errorf("%w: rated item %d of %d", ErrItemRange, it, m.v.Rows)
		}
		if p > 0 && items[p-1] >= it {
			return nil, fmt.Errorf("%w: rated items must be strictly ascending (got %d after %d)",
				ErrBadInput, it, items[p-1])
		}
	}
	ws := m.ws.Get().(*core.Workspace)
	defer m.ws.Put(ws)
	out := la.NewVector(m.k)
	kern := m.cfg.SelectKernel(len(items))
	core.UpdateItem(ws, kern, &m.cfg, items, vals, m.v, m.hyperU,
		core.ItemStream(m.seed, m.nextIter, core.SideU, key), nil, nil, out)
	return out, nil
}

// userHyper exposes the reconstructed user-side hyperparameters to the
// fold-in property test.
func (m *Model) userHyper() *core.Hyper { return m.hyperU }
