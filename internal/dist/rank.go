package dist

import (
	"errors"
	"fmt"

	"repro/internal/comm"
	"repro/internal/core"
	"repro/internal/sparse"
)

// rank.go is the one per-rank round body. Every runner — RunRounds'
// goroutine-per-rank virtual cluster, cmd/bpmf-dist's process-per-rank
// TCP cluster, the differential tests — turns a communicator into a
// running rank by calling RunRank, so the code the bit-exactness tests
// pin is the code that ships over TCP. What the runners keep to
// themselves is the outer loop that decides which view the next round
// runs over (see inproc.go).

// Source says where a rank's data comes from: an open sharded .bcsr
// image — a file (sparse.OpenBinary) or an in-memory problem (SourceOf);
// the caller keeps ownership — of which every rank decodes only its own
// panels (LoadShards). The test set is either held out on load, TestFrac
// of the stored ratings, or supplied whole in Test, the image then being
// the training matrix; not both. The collective load runs every round,
// so shards are remapped over the *current* rank count whenever the view
// changes (a dead rank's shards move to survivors; an admitted rank
// takes its share).
type Source struct {
	Mapped   *sparse.Mapped
	TestFrac float64
	Test     []sparse.Entry
}

// SourceOf is the Source of an in-memory problem: prob.R as an in-memory
// image with one shard per row (sparse.RowImage) and prob.Test. Per-row
// shards make AssignPanels weigh row i as Fixed·1 + PerRating·nnz(i),
// which is CostModel.Cost(nnz(i)) bit for bit, so every rank derives
// BuildPlan's bounds and the run samples sequential@dist-groups' chain.
// The image format caps a file at 2^24 shards, which makes that a cap
// of 2^24 rows here: a larger problem is an error (write it as a
// sharded .bcsr file and open that instead).
func SourceOf(prob *core.Problem) (Source, error) {
	img, err := sparse.RowImage(prob.R)
	if err != nil {
		return Source{}, err
	}
	mp, err := sparse.OpenBinaryBytes(img)
	if err != nil {
		return Source{}, err
	}
	return Source{Mapped: mp, Test: prob.Test}, nil
}

// check refuses a Source no rank can load, before any rank communicates.
func (src Source) check() error {
	if src.Mapped == nil {
		return errors.New("dist: source has no open .bcsr image")
	}
	if src.TestFrac > 0 && len(src.Test) > 0 {
		return fmt.Errorf("dist: source holds out a test fraction %g and also carries %d test entries; give one", src.TestFrac, len(src.Test))
	}
	return nil
}

// RunRank runs rank c.Rank() of one round: load this rank's slices of
// src (LoadShards), build the node, position it at the sealed checkpoint
// round man when one is given (fragments are read from
// opt.CheckpointDir — shared storage in a real cluster — and re-sliced
// by this round's bounds), and run the sampler until it finishes, a view
// change drains it (*ViewChange) or a peer failure unwinds it
// (*comm.RankFailedError). Every rank of the round must call it with
// identical (cfg, src contents, man, opt).
func RunRank(c *comm.Comm, cfg core.Config, src Source, man *Manifest, opt Options) (*core.Result, *Stats, error) {
	opt = opt.normalized()
	sp, err := LoadShards(c, src, cfg.Seed, opt)
	if err != nil {
		return nil, nil, err
	}
	node, err := NewNode(c, cfg, sp.Plan, sp.RT, sp.Test, opt)
	if err != nil {
		return nil, nil, err
	}
	if man != nil {
		base, err := LoadDistCheckpoint(opt.CheckpointDir, man, sp.Plan.R.M, sp.Plan.R.N, cfg.K, sp.Test)
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
