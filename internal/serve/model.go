// Package serve turns a trained BPMF chain into an online model server:
// the paper's headline use case is industrial-scale recommendation whose
// 15-day runs must ultimately *serve* predictions, with the confidence
// intervals the introduction credits BPMF for.
//
// A core.Checkpoint is loaded into an immutable Model snapshot; a Server
// holds the current snapshot behind an atomic pointer and hot-swaps it on
// reload (SIGHUP or file change), so queries never block on a reload and
// never observe a half-loaded model. Every ranking is one call of the
// fused score→select pass of internal/rank on its request's goroutine,
// the pass the offline evaluator shares; and cold-start users are folded
// in by sampling their factor row from the checkpointed posterior with
// the sampler's own core.UpdateItem conditional.
package serve

import (
	"errors"
	"fmt"
	"math"
	"sync"

	"repro/internal/core"
	"repro/internal/la"
	"repro/internal/rank"
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
	// ClampMin/ClampMax clip served predictions to the rating range
	// (core.Clip): clipping is on iff ClampMax > ClampMin, and an
	// inverted range is rejected instead of silently disabling.
	ClampMin, ClampMax float64
	// Exclude lists each user's already-rated items (the training
	// matrix); Recommend skips them. nil excludes nothing. A decoded
	// *sparse.CSR serves it, or a .bcsr training matrix mapped with
	// sparse.OpenBinary, so a serving restart maps shards instead of
	// decoding them and only the shards behind actually-queried users
	// are ever verified.
	Exclude Excluder
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
	cat      *rank.Catalog // v and its int8 copy, what a ranking scans
	cfg      core.Config   // kernel selection + alpha for fold-in
	seed     uint64
	nextIter int
	nSamples int
	hyperU   *core.Hyper
	alpha    float64
	clampMin float64
	clampMax float64
	exclude  Excluder
	post     map[uint64]postStat

	ws      sync.Pool // *core.Workspace for fold-in draws
	exclBuf sync.Pool // *[]int32 scratch a user's exclusion row is read into
}

// Excluder serves per-user exclusion lists: *sparse.CSR from memory, or
// sparse.Mapped without materializing the whole training matrix,
// verifying and decoding lazily, shard by shard. An error means the
// user's list could not be read — Recommend fails the request rather
// than silently recommending already-rated items.
type Excluder interface {
	// Dims returns (users, items) of the underlying matrix.
	Dims() (m, n int)
	// AppendRowCols appends user's ascending rated-item ids to dst.
	AppendRowCols(dst []int32, user int) ([]int32, error)
}

// NewModel validates a checkpoint and builds an immutable serving
// snapshot from it. The user-side hyperparameters needed for fold-in are
// ckpt.UserHyper(): exactly the (μ, Λ) the resumed chain would draw for
// the user side at iteration ckpt.NextIter.
//
// The model takes ownership of the factor matrices ckpt.U and ckpt.V
// without copying them: the caller must not modify them afterwards
// (reading them, or writing the checkpoint out, is fine).
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
	if opts.Exclude != nil {
		if em, en := opts.Exclude.Dims(); em != ckpt.U.Rows || en != ckpt.V.Rows {
			return nil, fmt.Errorf("%w: exclusion matrix %dx%d does not match model %dx%d",
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
	if err := core.CheckClamp(opts.ClampMin, opts.ClampMax); err != nil {
		return nil, fmt.Errorf("%w: %v", ErrBadInput, err)
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
		u:        ckpt.U,
		v:        ckpt.V,
		cat:      rank.NewCatalog(ckpt.V),
		cfg:      cfg,
		seed:     ckpt.Seed,
		nextIter: ckpt.NextIter,
		nSamples: ckpt.NSamples,
		hyperU:   ckpt.UserHyper(),
		alpha:    alpha,
		clampMin: opts.ClampMin,
		clampMax: opts.ClampMax,
		exclude:  opts.Exclude,
	}
	m.ws.New = func() any { return core.NewWorkspace(k) }
	m.exclBuf.New = func() any { s := make([]int32, 0, 64); return &s }

	// Posterior predictive summaries of the checkpointed accumulators:
	// the chain's own Predictor, restored, computes them.
	if opts.Test != nil && ckpt.NSamples > 0 {
		pred := core.NewPredictor(opts.Test, 0, 0)
		pred.Alpha = alpha
		if err := pred.Restore(ckpt.PredSum, ckpt.PredSumSq, ckpt.NSamples); err != nil {
			return nil, fmt.Errorf("%w: %v", ErrBadInput, err)
		}
		ivs := pred.Intervals()
		m.post = make(map[uint64]postStat, len(ivs))
		for _, iv := range ivs {
			m.post[pairKey(int(iv.Row), int(iv.Col))] = postStat{mean: iv.Mean, std: iv.Std}
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
func (m *Model) clamp(v float64) float64 { return core.Clip(v, m.clampMin, m.clampMax) }

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
// rating range, matching Predict. n <= 0 returns nil.
func (m *Model) Recommend(user, n int) ([]rank.Item, error) {
	if err := m.checkUser(user); err != nil {
		return nil, err
	}
	if n <= 0 {
		return nil, nil
	}
	buf := m.exclBuf.Get().(*[]int32)
	defer m.exclBuf.Put(buf)
	excl, err := m.excludeList(user, buf)
	if err != nil {
		return nil, err
	}
	return m.clampItems(rank.Recommend(m.cat, m.u.Row(user), excl, n)), nil
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
	return m.clampItems(rank.Recommend(m.cat, u, excl, n)), nil
}

// clampItems clamps the reported scores of a ranked list in place and
// returns it.
func (m *Model) clampItems(items []rank.Item) []rank.Item {
	for i := range items {
		items[i].Score = m.clamp(items[i].Score)
	}
	return items
}

// excludeList returns the user's sorted already-rated item list, read
// into the scratch *buf, which keeps the grown array for the next
// request. An error fails the request — recommending items the user
// already rated because an exclusion shard went bad would be silent
// misbehavior.
func (m *Model) excludeList(user int, buf *[]int32) ([]int32, error) {
	if m.exclude == nil {
		return nil, nil
	}
	lst, err := m.exclude.AppendRowCols((*buf)[:0], user)
	if err != nil {
		return nil, fmt.Errorf("serve: exclusion row %d: %w", user, err)
	}
	*buf = lst
	return lst, nil
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
// Values so large that the draw is not finite are ErrBadInput.
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
		ws.ItemStream(m.seed, m.nextIter, core.SideU, key), nil, nil, out)
	for _, x := range out {
		// Finite but huge ratings (1e308) overflow the posterior mean.
		if math.IsNaN(x) || math.IsInf(x, 0) {
			return nil, fmt.Errorf("%w: the rating values give a non-finite factor draw", ErrBadInput)
		}
	}
	return out, nil
}

// userHyper exposes the reconstructed user-side hyperparameters to the
// fold-in property test.
func (m *Model) userHyper() *core.Hyper { return m.hyperU }
