package dist

import (
	"encoding/json"
	"fmt"
	"math"
	"sync"
	"time"

	"repro/internal/comm"
	"repro/internal/core"
	"repro/internal/la"
	"repro/internal/partition"
	"repro/internal/sched"
	"repro/internal/sparse"
)

// Node is one rank of the distributed engine. Its chain state — the
// replicated factor matrices, hyperparameters, the predictor over the
// locally owned test entries, kernel tallies and the RMSE trace — lives
// in a core.Sampler over the rank's view of the problem, and every owned
// item is drawn through that sampler's UpdateRange; the node adds what
// is distributed: ownership, routing, the ghost exchange and the
// allreduced reductions.
type Node struct {
	c    *comm.Comm
	opt  Options
	plan *partition.Plan
	test []sparse.Entry // full test set, plan index space
	s    *core.Sampler

	rank, ranks, k int

	rowOwner, colOwner []int32

	// routes lists the ranks each owned item's updated row must reach and
	// counts the ghost rows this rank receives per iteration.
	routes *partition.Routes

	// momPart/momVec are the reused scratch of the per-iteration
	// hyperparameter moment reduction.
	momPart *core.Moments
	momVec  []float64

	pool   *sched.Pool
	recBuf []byte

	// firstIter/ckBase position a resumed chain: Run starts at firstIter,
	// and ckBase holds the kernel counts of all chain segments executed
	// before this run — the sampler tallies only what this rank draws
	// itself (see Resume).
	firstIter int
	ckBase    [3]int64

	// drainPending latches the drain flag of the last evaluation
	// allreduce: the cluster agreed to seal a view change at this
	// iteration boundary.
	drainPending bool

	stats Stats
}

// NewNode builds rank c.Rank() of a distributed run from its slices of
// the data (LoadShards): plan carries the bounds every rank shares and
// this rank's owned training rows (plan.R full-size, other rows may be
// empty), rt at least its owned columns of the training transpose with
// their complete rater lists, and test the global test set (routing and
// interval gathering need every rank's test identities). Every quantity
// the node computes — its item updates, moment partials, routing table
// (partition.Plan.Route) and local predictor — reads only the owned
// slices. The owned items are walked in the sampler's lane order
// (core.Sampler.Order), whose moment groups are the plan's bounds, so it
// permutes each rank's owned range within itself; every draw is keyed by
// the item's id, so the walk order changes no sampled bit.
func NewNode(c *comm.Comm, cfg core.Config, plan *partition.Plan, rt *sparse.CSR, test []sparse.Entry, opt Options) (*Node, error) {
	opt = opt.normalized()
	if err := cfg.Validate(); err != nil {
		return nil, err
	}
	if c.Size() != opt.Ranks {
		return nil, fmt.Errorf("dist: communicator has %d ranks, options say %d", c.Size(), opt.Ranks)
	}
	if len(plan.RowBounds) != opt.Ranks+1 || len(plan.ColBounds) != opt.Ranks+1 {
		return nil, fmt.Errorf("dist: plan built for %d ranks, options say %d",
			len(plan.RowBounds)-1, opt.Ranks)
	}
	if rt == nil || rt.M != plan.R.N || rt.N != plan.R.M {
		return nil, fmt.Errorf("dist: rank %d needs the owned columns of the %dx%d training transpose", c.Rank(), plan.R.N, plan.R.M)
	}
	// Record the summation order the engine's allreduce implements, so the
	// node's config is self-describing (see MomentGroupsOf).
	cfg.MomentGroupsU, cfg.MomentGroupsV = MomentGroupsOf(plan)

	m, n := plan.R.M, plan.R.N
	nd := &Node{
		c: c, opt: opt, plan: plan, test: test,
		rank: c.Rank(), ranks: opt.Ranks, k: cfg.K,
	}
	nd.stats.Rank = nd.rank
	nd.rowOwner = partition.Owners(plan.RowBounds, m)
	nd.colOwner = partition.Owners(plan.ColBounds, n)
	var localTest []sparse.Entry
	for _, e := range test {
		if nd.rowOwner[e.Row] == int32(nd.rank) {
			localTest = append(localTest, e)
		}
	}

	var err error
	if nd.s, err = core.NewSampler(cfg, &core.Problem{R: plan.R, Rt: rt, Test: localTest}); err != nil {
		return nil, err
	}
	nd.routes = plan.Route(nd.rank, rt, nd.rowOwner, nd.colOwner, test)
	nd.recBuf = make([]byte, ghostRecLen(nd.k))
	nd.momPart = core.NewMoments(cfg.K)
	nd.momVec = make([]float64, 1+cfg.K+cfg.K*cfg.K)
	return nd, nil
}

// itemTag returns the message tag of one iteration's item exchange phase.
func itemTag(iter int, side core.Side) int {
	return 1 + 2*iter + int(side)
}

// sampleHyper draws one side's hyperparameters from the globally reduced
// moments. The rank-ordered allreduce adds partials in ascending rank
// order, which is exactly MomentsGrouped's combine order with groups =
// the ownership boundaries — the key to bit-equality with the sequential
// reference.
func (nd *Node) sampleHyper(iter int, side core.Side) error {
	x, _, _, _ := nd.s.Side(side)
	lo, hi := nd.owned(side)
	part := nd.momPart
	part.Zero()
	part.AccumulateRows(x, lo, hi)

	vec := nd.momVec
	vec[0] = part.N
	copy(vec[1:1+nd.k], part.Sum)
	copy(vec[1+nd.k:], part.SumSq.Data)
	t0 := time.Now()
	tot, err := nd.c.AllreduceSumOrderedE(vec)
	nd.stats.WaitTime += time.Since(t0)
	if err != nil {
		return err
	}
	part.N = tot[0]
	copy(part.Sum, tot[1:1+nd.k])
	copy(part.SumSq.Data, tot[1+nd.k:])

	nd.s.DrawHyper(side, iter, part)
	return nil
}

// owned returns this rank's owned index range of one side.
func (nd *Node) owned(side core.Side) (lo, hi int) {
	if side == core.SideV {
		return nd.plan.ColBounds[nd.rank], nd.plan.ColBounds[nd.rank+1]
	}
	return nd.plan.RowBounds[nd.rank], nd.plan.RowBounds[nd.rank+1]
}

// updateSide samples every owned item of one side, streams each updated
// row to the ranks that need it, then blocks until all expected ghost
// rows of the phase have been applied to the local replica.
//
// The phase is one loop at every thread count: a grain of core.ItemGrain
// owned positions of the lane order is drawn, then its finished rows are
// appended to the per-destination coalescers, so the sends of one grain
// overlap the updates of the grains still running (Section IV-C). The
// thread count only decides who runs the grains — the rank's pool or this
// goroutine.
func (nd *Node) updateSide(iter int, side core.Side) error {
	self, _, _, _ := nd.s.Side(side)
	lo, hi := nd.owned(side)
	send, exp := nd.routes.SendU, nd.routes.RecvU
	if side == core.SideV {
		send, exp = nd.routes.SendV, nd.routes.RecvV
	}
	tag := itemTag(iter, side)

	coals := make([]*comm.Coalescer, nd.ranks)
	for dst := 0; dst < nd.ranks; dst++ {
		if dst != nd.rank {
			coals[dst] = comm.NewCoalescer(nd.c, dst, tag, nd.opt.BufferSize)
		}
	}

	// mu keeps the coalescers, recBuf and the send counters single-writer.
	// A failed send (dead peer) is latched in sendErr: the grains still to
	// run skip their sends and the phase returns the error after the sweep.
	var (
		mu        sync.Mutex
		firstSend time.Time
		sendErr   error
	)
	// The owned range is the side's moment group here, so positions
	// [lo, hi) of the lane order hold exactly the owned items.
	ord, _ := nd.s.Order(side)
	grain := func(w *sched.Worker, a, b int) {
		nd.s.UpdateRange(side, iter, ord, a, b, w)
		mu.Lock()
		defer mu.Unlock()
		if sendErr != nil {
			return
		}
		for _, it := range ord[a:b] {
			item := int(it)
			dests := send[item-lo]
			if len(dests) == 0 {
				continue
			}
			if firstSend.IsZero() {
				firstSend = time.Now()
			}
			encodeGhost(nd.recBuf, item, self.Row(item))
			for _, dst := range dests {
				if sendErr = coals[dst].Append(nd.recBuf); sendErr != nil {
					return
				}
			}
			nd.stats.ItemsSent += int64(len(dests))
		}
	}

	computeStart := time.Now()
	if nd.pool != nil {
		nd.pool.ParallelFor(lo, hi, core.ItemGrain, grain)
	} else {
		for a := lo; a < hi; a += core.ItemGrain {
			grain(nil, a, min(a+core.ItemGrain, hi))
		}
	}
	if sendErr == nil {
		sendErr = nd.flushAll(coals)
	}
	if sendErr != nil {
		return sendErr
	}
	// ComputeTime runs from the sweep's start to its last flush;
	// OverlapTime is the part of it spent with sends already in flight.
	computeEnd := time.Now()
	nd.stats.ComputeTime += computeEnd.Sub(computeStart)
	if !firstSend.IsZero() {
		nd.stats.OverlapTime += computeEnd.Sub(firstSend)
	}

	t0 := time.Now()
	err := nd.recvGhosts(tag, exp, side)
	nd.stats.WaitTime += time.Since(t0)
	return err
}

// flushAll drains the phase's coalescers.
func (nd *Node) flushAll(coals []*comm.Coalescer) error {
	for _, co := range coals {
		if co != nil {
			if err := co.Flush(); err != nil {
				return err
			}
			nd.stats.Flushes += co.Flushes()
		}
	}
	return nil
}

// recvGhosts applies coalesced item records to the local replica until the
// expected count of the phase has arrived. A frame is checked against the
// side's dimensions and its sender's ownership range before a row is
// written (decodeGhosts), and a dead peer unwinds the wait with its
// RankFailedError instead of blocking forever.
func (nd *Node) recvGhosts(tag, expected int, side core.Side) error {
	dst, _, _, _ := nd.s.Side(side)
	owner := nd.rowOwner
	if side == core.SideV {
		owner = nd.colOwner
	}
	got := 0
	for got < expected {
		m, err := nd.c.RecvE(comm.AnySource, tag)
		if err != nil {
			return err
		}
		n, err := decodeGhosts(dst, owner, m.Src, m.Data)
		if err != nil {
			return err
		}
		got += n
	}
	nd.stats.GhostsRecv += int64(got)
	return nil
}

// evaluate scores the test set: per-rank partial squared errors — chunked
// over the rank's thread pool through the fixed EvalChunk tree when one
// exists — combined with the deterministic allreduce, so every rank
// records the identical RMSE trace at any thread count.
func (nd *Node) evaluate(iter int) error {
	collect := iter >= nd.s.Cfg.Burnin
	var runAll func(n int, run func(c int))
	if nd.pool != nil {
		runAll = func(n int, run func(c int)) {
			nd.pool.ParallelFor(0, n, 1, func(_ *sched.Worker, lo, hi int) {
				for c := lo; c < hi; c++ {
					run(c)
				}
			})
		}
	}
	seS, seA, n := nd.s.Pred.PartialUpdatePar(nd.s.U, nd.s.V, collect, runAll)
	// The vector's fourth element is the membership drain flag: rank 0
	// raises it when pending joins await admission, and the reduction
	// delivers it to every rank at the same iteration — the evaluation
	// allreduce is the one point all ranks pass in lockstep, so no
	// out-of-band message ordering can make ranks disagree about the
	// drain boundary. The element is always present (and 0 outside
	// membership runs), so it is chain-inert: the RMSE math below never
	// reads it.
	drain := 0.0
	if nd.rank == 0 && nd.opt.Membership != nil && iter >= nd.opt.GrowAtIter && nd.opt.Membership.HasPending() {
		drain = 1
	}
	t0 := time.Now()
	tot, err := nd.c.AllreduceSumOrderedE([]float64{seS, seA, n, drain})
	nd.stats.WaitTime += time.Since(t0)
	if err != nil {
		return err
	}
	nd.drainPending = tot[3] != 0
	sr, ar := math.NaN(), math.NaN()
	if tot[2] > 0 {
		sr, ar = math.Sqrt(tot[0]/tot[2]), math.Sqrt(tot[1]/tot[2])
	}
	nd.s.Record(sr, ar)
	return nil
}

// gatherSide completes the local replica of one side: every rank
// broadcasts its owned row range (rows nobody rated were never ghosted).
func (nd *Node) gatherSide(x *la.Matrix, bounds []int) error {
	lo, hi := bounds[nd.rank], bounds[nd.rank+1]
	mine := comm.EncodeFloat64s(x.Data[lo*nd.k : hi*nd.k])
	blobs, err := nd.c.AllgatherE(mine)
	if err != nil {
		return err
	}
	for r, b := range blobs {
		if r == nd.rank {
			continue // mine encodes these very rows
		}
		if err := comm.DecodeFloat64sInto(x.Data[bounds[r]*nd.k:bounds[r+1]*nd.k], b); err != nil {
			return fmt.Errorf("dist: factor rows gathered from rank %d: %w", r, err)
		}
	}
	return nil
}

// gatherIntervals reassembles the posterior predictive intervals in global
// test order from the per-rank predictors.
func (nd *Node) gatherIntervals() ([]core.Interval, error) {
	local := nd.s.Pred.Intervals()
	blobs, err := nd.c.AllgatherE(encodeIntervals(local))
	if err != nil {
		return nil, err
	}
	queues := make([][]core.Interval, nd.ranks)
	total := 0
	for r, b := range blobs {
		if queues[r], err = decodeIntervals(b); err != nil {
			return nil, fmt.Errorf("dist: intervals gathered from rank %d: %w", r, err)
		}
		total += len(queues[r])
	}
	if total == 0 {
		return nil, nil
	}
	out := make([]core.Interval, 0, total)
	next := make([]int, nd.ranks)
	for _, e := range nd.test {
		r := nd.rowOwner[e.Row]
		if next[r] < len(queues[r]) {
			out = append(out, queues[r][next[r]])
			next[r]++
		}
	}
	return out, nil
}

// Run executes the configured Gibbs iterations and returns the (rank-
// identical) result plus this rank's statistics. When a peer dies
// mid-run (and a failure detector is attached), Run returns a
// comm.RankFailedError instead of hanging — the caller resumes from the
// last checkpoint with the surviving ranks.
func (nd *Node) Run() (*core.Result, *Stats, error) {
	if nd.opt.SuspicionTimeout > 0 {
		det := comm.StartDetectorView(nd.c, 0, nd.opt.SuspicionTimeout, nd.opt.Members, nd.opt.Suspicions)
		defer det.Stop()
	}
	if nd.opt.ThreadsPerRank > 1 {
		nd.pool = sched.NewPool(nd.opt.ThreadsPerRank)
		defer nd.pool.Close()
	}
	iters := nd.s.Cfg.Iters

	start := time.Now()
	for it := nd.firstIter; it < iters; it++ {
		// Movies first, then users (Algorithm 1). The user phase reads the
		// movie ghosts of this iteration, so each phase ends with a wait
		// for its expected ghost count.
		for _, side := range [2]core.Side{core.SideV, core.SideU} {
			if err := nd.sampleHyper(it, side); err != nil {
				return nil, nil, err
			}
			if err := nd.updateSide(it, side); err != nil {
				return nil, nil, err
			}
		}
		if err := nd.evaluate(it); err != nil {
			return nil, nil, err
		}
		drained := nd.drainPending
		nd.drainPending = false
		// A drain boundary always seals a manifest, cadence-aligned or
		// not: the grown cluster resumes from exactly this iteration.
		due := nd.opt.CheckpointDir != "" && nd.opt.CheckpointEvery > 0 && (it+1)%nd.opt.CheckpointEvery == 0
		if due || drained {
			if err := nd.writeCheckpoint(it + 1); err != nil {
				return nil, nil, err
			}
		}
		// The hook runs after the iteration's checkpoint (if any) is
		// sealed, so a hook-injected kill at iteration t tests recovery
		// from exactly the latest manifest ≤ t+1 — and, at a drain
		// iteration, a kill lands between the sealed manifest and the
		// view exchange (the proposed-but-unsealed window).
		if nd.opt.OnIteration != nil {
			nd.opt.OnIteration(nd.rank, it)
		}
		if drained {
			view, err := nd.exchangeView()
			if err != nil {
				return nil, nil, err
			}
			return nil, nil, &ViewChange{NextIter: it + 1, View: view}
		}
	}

	if err := nd.gatherSide(nd.s.U, nd.plan.RowBounds); err != nil {
		return nil, nil, err
	}
	if err := nd.gatherSide(nd.s.V, nd.plan.ColBounds); err != nil {
		return nil, nil, err
	}
	ivs, err := nd.gatherIntervals()
	if err != nil {
		return nil, nil, err
	}

	live := nd.s.KernelCounts()
	kc, err := nd.c.AllreduceSumOrderedE([]float64{float64(live[0]), float64(live[1]), float64(live[2])})
	if err != nil {
		return nil, nil, err
	}

	u, v := nd.s.U, nd.s.V
	trace := nd.s.View()
	res := &core.Result{
		SampleRMSE:  trace.SampleRMSE,
		AvgRMSE:     trace.AvgRMSE,
		U:           u,
		V:           v,
		Iters:       iters,
		ItemUpdates: int64(iters) * int64(u.Rows+v.Rows),
		Elapsed:     time.Since(start),
		Intervals:   ivs,
	}
	for i := range res.KernelCounts {
		res.KernelCounts[i] = nd.ckBase[i] + int64(kc[i])
	}
	nd.stats.Comm = nd.c.Stats()
	st := nd.stats
	return res, &st, nil
}

// ViewChange is the control "error" Run returns when the cluster drains
// for a sealed membership change: every rank checkpointed at NextIter,
// agreed on the boundary through the drain flag carried in the
// evaluation allreduce, and received the proposed next view from rank
// 0. The caller tears down the fabric, re-meshes as View, and resumes
// from the NextIter manifest.
type ViewChange struct {
	// NextIter is the sealed manifest's iteration — the first iteration
	// the re-meshed cluster executes.
	NextIter int
	// View is the proposed next membership view.
	View comm.View
}

func (e *ViewChange) Error() string {
	return fmt.Sprintf("dist: view change to epoch %d (%d ranks) at iteration %d",
		e.View.Epoch, len(e.View.Members), e.NextIter)
}

// exchangeView distributes rank 0's proposed next view to every rank of
// the draining cluster (rank 0 owns the Membership state machine; the
// others learn the view through the broadcast).
func (nd *Node) exchangeView() (comm.View, error) {
	var blob []byte
	if nd.rank == 0 {
		if nd.opt.Membership == nil {
			return comm.View{}, fmt.Errorf("dist: drain flag raised without a membership state machine on rank 0")
		}
		b, err := json.Marshal(nd.opt.Membership.Propose())
		if err != nil {
			return comm.View{}, err
		}
		blob = b
	}
	out, err := nd.c.BcastE(0, blob)
	if err != nil {
		return comm.View{}, err
	}
	var v comm.View
	if err := json.Unmarshal(out, &v); err != nil {
		return comm.View{}, fmt.Errorf("dist: malformed view broadcast: %w", err)
	}
	return v, nil
}
