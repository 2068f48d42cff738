package dist

import (
	"repro/internal/comm"
	"repro/internal/core"
	"repro/internal/partition"
	"repro/internal/sparse"
)

// rank.go is the one per-rank round body. Every runner — RunRounds'
// goroutine-per-rank virtual cluster, cmd/bpmf-dist's process-per-rank
// TCP cluster, the differential tests — turns a communicator into a
// running rank by calling RunRank, so the code the bit-exactness tests
// pin is the code that ships over TCP. What the runners keep to
// themselves is the outer loop that decides which view the next round
// runs over (see inproc.go).

// Source says where a rank's data comes from, in one of two forms:
//
//   - Prob, an in-memory problem every rank holds whole; each rank
//     derives the identical plan from it. Panels, when set, is the shard
//     table of the .bcsr file Prob was decoded from: row bounds then
//     snap to the file's panels, which makes the chain bit-comparable
//     with the shard-native form of the same file (ignored under
//     Options.Reorder — an RCM permutation scatters the shard rows).
//   - Mapped, an open sharded .bcsr file (sparse.OpenBinary; the caller
//     keeps ownership) of which every rank decodes only its own panels,
//     holding out TestFrac (LoadShards). The collective load runs every
//     round, so shards are remapped over the *current* rank count
//     whenever the view changes (a dead rank's shards move to survivors;
//     an admitted rank takes its share).
type Source struct {
	Prob   *core.Problem
	Panels *partition.Panels

	Mapped   *sparse.Mapped
	TestFrac float64

	// plan/test hold Prob's plan when a runner built it ahead of the
	// ranks: the goroutines of a virtual cluster share one build.
	plan *partition.Plan
	test []sparse.Entry
}

// buildPlan partitions the in-memory form for opt.Ranks nodes.
func (src Source) buildPlan(opt Options) (*partition.Plan, []sparse.Entry, error) {
	if src.Panels != nil && !opt.Reorder {
		plan, err := partition.BuildWithPanels(src.Prob.R, *src.Panels, partition.Options{Ranks: opt.Ranks})
		return plan, src.Prob.Test, err
	}
	plan, test := BuildPlan(src.Prob, opt)
	return plan, test, nil
}

// load resolves rank c.Rank()'s data: its plan, its owned columns of the
// training transpose (nil when the plan's matrix is whole) and the global
// test set in the plan's index space. Collective for the sharded forms.
func (src Source) load(c *comm.Comm, seed uint64, opt Options) (*partition.Plan, *sparse.CSR, []sparse.Entry, error) {
	if src.plan != nil {
		return src.plan, nil, src.test, nil
	}
	if src.Mapped == nil {
		plan, test, err := src.buildPlan(opt)
		return plan, nil, test, err
	}
	sp, err := LoadShards(c, src.Mapped, src.TestFrac, seed, opt)
	if err != nil {
		return nil, nil, nil, err
	}
	return sp.Plan, sp.RT, sp.Test, nil
}

// RunRank runs rank c.Rank() of one round: load this rank's data from
// src and build (or align) the plan, build the node, position it at the
// sealed checkpoint round man when one is given (fragments are read from
// opt.CheckpointDir — shared storage in a real cluster — and re-sliced
// by this round's bounds), and run the sampler until it finishes, a view
// change drains it (*ViewChange) or a peer failure unwinds it
// (*comm.RankFailedError). Every rank of the round must call it with
// identical (cfg, src contents, man, opt).
func RunRank(c *comm.Comm, cfg core.Config, src Source, man *Manifest, opt Options) (*core.Result, *Stats, error) {
	opt = opt.normalized()
	plan, rt, test, err := src.load(c, cfg.Seed, opt)
	if err != nil {
		return nil, nil, err
	}
	node, err := NewNode(c, cfg, plan, rt, test, opt)
	if err != nil {
		return nil, nil, err
	}
	if man != nil {
		base, err := LoadDistCheckpoint(opt.CheckpointDir, man, plan.R.M, plan.R.N, test)
		if err != nil {
			return nil, nil, err
		}
		if err := node.Resume(base); err != nil {
			return nil, nil, err
		}
	}
	return node.Run()
}

// ForView returns o stamped with one sealed membership view: the round's
// rank count and member identities come from view; table and mem are the
// run's suspicion table and membership state machine (only rank 0 reads
// mem, so a process that is not the coordinator passes nil).
func (o Options) ForView(view comm.View, table *comm.SuspicionTable, mem *comm.Membership) Options {
	o.Ranks = len(view.Members)
	o.Members = view.Members
	o.Suspicions = table
	o.Membership = mem
	return o
}
