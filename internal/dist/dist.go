// Package dist implements the paper's Section IV: distributed BPMF over
// the message-passing layer in package comm. The rating matrix is split
// into contiguous row (user) and column (movie) ranges by the
// workload-model partitioner; every rank keeps a full replica of both
// factor matrices but samples only its owned rows, streaming each updated
// row to the ranks that need it ("ghosts") through coalescing send buffers
// that overlap communication with the remaining item updates (IV-C).
//
// No rank holds the whole rating matrix. Each maps a sharded .bcsr image
// — a file, or SourceOf's in-memory rendering of a problem — decodes the
// shards covering its own rows and receives the rest of its columns over
// the fabric (LoadShards). A virtual cluster of goroutines and a cluster
// of TCP processes load, and sample, the same way.
//
// The sampled chain is a pure function of (data, Config): hyperparameter
// moments are reduced with a deterministic rank-ordered allreduce whose
// summation order equals the sequential sampler's grouped moment reduction
// with groups = the partition boundaries, and every item draw comes from
// the same keyed stream regardless of rank placement. A sequential
// core.Sampler configured with MomentGroupsOf(plan) therefore reproduces
// the distributed chain bit-for-bit at any rank count.
//
// A rank's chain state and item draws are a core.Sampler's (see Node);
// the iteration loop is the package's own, Node.Run — the one loop
// besides core.Sampler.Step — because each of its phases ends in an
// exchange or a reduction that can fail, and the iteration boundary
// carries the coordinated checkpoint and the membership drain.
package dist

import (
	"repro/internal/comm"
	"repro/internal/core"
	"repro/internal/partition"
	"repro/internal/sparse"
	"time"
)

// DefaultBufferSize is the default coalescing buffer capacity per
// destination rank (the paper's Section IV-C batching of item sends).
const DefaultBufferSize = 64 << 10

// Options configures a distributed run.
type Options struct {
	// Ranks is the number of nodes in the virtual (or real) cluster.
	Ranks int
	// ThreadsPerRank is the size of each rank's work-stealing pool; 0 or 1
	// runs the rank on its own goroutine. It decides only who draws the
	// grains of the local item loop: at every count a grain's finished rows
	// go straight to the coalescers, so communication overlaps the
	// remaining updates (the paper's hybrid threads + MPI configuration),
	// and the sampled chain is the same.
	ThreadsPerRank int
	// BufferSize is the coalescing buffer capacity in bytes per
	// destination. 0 selects DefaultBufferSize; negative disables
	// coalescing entirely (one message per item, the IV-C ablation).
	BufferSize int

	// CheckpointEvery, when positive together with a CheckpointDir, makes
	// every rank write a coordinated checkpoint fragment after each
	// CheckpointEvery-th iteration; rank 0 then seals the round with a
	// manifest. A failed run resumes from the latest sealed manifest.
	CheckpointEvery int
	// CheckpointDir is the directory receiving checkpoint fragments and
	// manifests (shared storage in a real cluster).
	CheckpointDir string
	// SuspicionTimeout, when positive, attaches a heartbeat failure
	// detector to every rank: a peer silent for longer than this is
	// declared failed, unwinding blocked receives with a
	// comm.RankFailedError instead of hanging forever.
	SuspicionTimeout time.Duration
	// OnIteration, when set, is invoked on every rank after each completed
	// iteration (all phases, evaluation, and any due checkpoint). It is a
	// test seam: fault-injection tests use it to kill ranks at exact,
	// reproducible iteration boundaries.
	OnIteration func(rank, iter int)

	// Members names each rank's (address, incarnation) identity. Set
	// together with Suspicions, it keys the failure detector by identity
	// so a rejoined incarnation at a convicted address gets a fresh
	// suspicion window instead of an instant re-conviction.
	Members []comm.Member
	// Suspicions carries convicted incarnations across the rounds of an
	// elastic run (shared by every round's detector).
	Suspicions *comm.SuspicionTable
	// Membership, when set, gates the drain barrier: whenever it holds
	// pending join requests (and the iteration has reached GrowAtIter),
	// rank 0 raises a drain flag inside the evaluation allreduce — the
	// one point every rank passes in lockstep — and the whole cluster
	// checkpoints at that iteration boundary and returns a *ViewChange
	// naming the proposed next view. Only rank 0 reads it; handing the
	// same value to every rank is fine.
	Membership *comm.Membership
	// GrowAtIter defers raising the drain flag until this iteration
	// (test hook; 0 admits pending joins at the first boundary).
	GrowAtIter int
}

// normalized fills in defaulted fields.
func (o Options) normalized() Options {
	if o.Ranks < 1 {
		o.Ranks = 1
	}
	if o.ThreadsPerRank < 1 {
		o.ThreadsPerRank = 1
	}
	if o.BufferSize == 0 {
		o.BufferSize = DefaultBufferSize
	}
	return o
}

// Stats reports one rank's traffic and time breakdown.
type Stats struct {
	Rank int
	// ItemsSent counts (item, destination) pairs sent; GhostsRecv counts
	// partner-rank item rows received and applied to the local replica.
	// Both are totals over the run: every iteration adds the counts of
	// the rank's partition.Routes.
	ItemsSent  int64
	GhostsRecv int64
	// Flushes is the number of coalesced messages produced, over the run.
	Flushes int
	// Comm snapshots the rank's endpoint counters.
	Comm comm.Stats
	// ComputeTime is the item-update sweeps, each from its start to its
	// last flush; WaitTime is ghost waits and collectives; OverlapTime is
	// the part of ComputeTime during which sends were already in flight
	// (first send of a sweep to its last flush: communication hidden
	// behind compute). One definition at every thread count.
	ComputeTime time.Duration
	WaitTime    time.Duration
	OverlapTime time.Duration
}

// BuildPlan partitions prob.R as stored for opt.Ranks nodes and returns
// the plan with prob.Test (a constant second value, ROADMAP item 5). It
// is the plan the ranks of RunInProc derive from SourceOf(prob)'s image,
// computed without running them — what a sequential@dist-groups
// reference needs. The plan is a pure function of (prob.R, opt.Ranks),
// which is what lets every rank derive it instead of receiving it.
func BuildPlan(prob *core.Problem, opt Options) (*partition.Plan, []sparse.Entry) {
	return partition.Build(prob.R, opt.normalized().Ranks), prob.Test
}

// MomentGroupsOf returns the moment-group boundary lists (users, movies)
// induced by a plan's ownership ranges. A sequential sampler configured
// with these groups performs its hyperparameter moment reduction in
// exactly the distributed engine's summation order and hence reproduces
// the distributed chain bit-for-bit.
func MomentGroupsOf(plan *partition.Plan) (groupsU, groupsV []int) {
	return append([]int(nil), plan.RowBounds...), append([]int(nil), plan.ColBounds...)
}
