package core

import (
	"fmt"

	"repro/internal/la"
)

// UserHyper draws the user-side hyperparameters the resumed chain would
// draw at iteration NextIter, conditioned on the checkpointed U: the
// single-group moment reduction over U, sampled from the keyed stream
// HyperStream(Seed, NextIter, SideU). It is the prior of every fold-in
// draw — the rows GrowUsers adds and serve's cold-start users.
func (c *Checkpoint) UserHyper() *Hyper {
	hyper := NewHyper(c.K)
	mom := MomentsGroupedWS(c.U, GroupBoundaries(nil, c.U.Rows), c.K, nil, NewMomentsWorkspace(c.K))
	SampleHyperWS(DefaultNWPrior(c.K), mom, HyperStream(c.Seed, c.NextIter, SideU), hyper, NewHyperWorkspace(c.K))
	return hyper
}

// GrowUsers extends a checkpoint to a problem that gained user rows
// since the chain was checkpointed — the resume-with-new-rows contract
// of the continuous-training loop, where delta shards introduce users
// the base run never saw. The returned checkpoint has U grown to the
// problem's row count; every other field (V, predictor accumulators,
// traces) carries over, because the held-out test set is frozen at the
// base split.
//
// Each new row is drawn by the serving layer's fold-in rule, which is
// the sampler's own conditional: the user-side hyperparameters are
// UserHyper's (the prior serve.NewModel folds in with too), and row i
// is then drawn via UpdateItem conditioned on the merged matrix's row i
// with the workspace stream ws.ItemStream(seed, NextIter, SideU, i). The
// draw is
// therefore a pure function of (checkpoint, problem row) — two trainers
// growing the same checkpoint over the same merged matrix produce
// bit-identical rows, whatever path the delta shards took to get there.
//
// The problem may not shrink users, and its item count must equal the
// checkpointed V: the item catalog is pinned by the trained item
// factors. A problem with the checkpoint's exact shape is returned
// unchanged (same pointer).
func (c *Checkpoint) GrowUsers(cfg Config, prob *Problem) (*Checkpoint, error) {
	if err := cfg.Validate(); err != nil {
		return nil, err
	}
	if cfg.K != c.K {
		return nil, fmt.Errorf("core: checkpoint K=%d, config K=%d", c.K, cfg.K)
	}
	if cfg.Seed != c.Seed {
		return nil, fmt.Errorf("core: checkpoint seed=%d, config seed=%d", c.Seed, cfg.Seed)
	}
	m, n := prob.Dims()
	if c.V.Rows != n {
		return nil, fmt.Errorf("core: checkpoint has %d items, problem has %d (the item catalog cannot grow)",
			c.V.Rows, n)
	}
	if m < c.U.Rows {
		return nil, fmt.Errorf("core: problem has %d users, checkpoint has %d (users cannot shrink)",
			m, c.U.Rows)
	}
	if m == c.U.Rows {
		return c, nil
	}

	hyper := c.UserHyper()
	grown := *c
	grown.U = la.NewMatrix(m, c.K)
	copy(grown.U.Data[:c.U.Rows*c.K], c.U.Data)
	ws := NewWorkspace(c.K)
	for i := c.U.Rows; i < m; i++ {
		cols, vals := prob.R.Row(i)
		UpdateItem(ws, cfg.SelectKernel(len(cols)), &cfg, cols, vals, c.V, hyper,
			ws.ItemStream(c.Seed, c.NextIter, SideU, i), nil, nil, grown.U.Row(i))
	}
	return &grown, nil
}

// ResumeSamplerGrown reconstructs a sampler mid-chain from a checkpoint,
// for a problem with the checkpoint's shape or one that gained users
// since: new rows are folded in via GrowUsers, then the sampler is
// positioned at the (grown) checkpoint by Restore (see both for what must
// match). Call RunFrom(c.NextIter) on the result.
func ResumeSamplerGrown(cfg Config, prob *Problem, c *Checkpoint) (*Sampler, error) {
	grown, err := c.GrowUsers(cfg, prob)
	if err != nil {
		return nil, err
	}
	m, n := prob.Dims()
	s := newSampler(cfg, prob, la.NewMatrix(m, cfg.K), la.NewMatrix(n, cfg.K))
	if err := s.Restore(grown); err != nil {
		return nil, err
	}
	return s, nil
}
