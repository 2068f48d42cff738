package dist

import (
	"errors"
	"fmt"
	"sync"
	"time"

	"repro/internal/comm"
	"repro/internal/core"
	"repro/internal/order"
)

// inproc.go runs the distributed engine as a virtual cluster inside this
// process — every rank a goroutine over a channel-backed fabric — and,
// when a hook can inject faults or joins, as the membership-driven
// recovery driver of the fault-tolerant engine: a run is then a sequence
// of rounds, each over one sealed membership view. Rounds end three
// ways —
//
//   - cleanly: the sampler finished; return the result.
//   - by failure: ranks died (detected by the heartbeat detector,
//     unwinding every survivor with a RankFailedError). The view shrinks
//     by the dead members (epoch+1), their incarnations are recorded in
//     the suspicion table, and the next round resumes from the latest
//     sealed manifest. Pending join requests survive the shrink, so a
//     coordinator death during a proposed-but-unsealed view resolves by
//     the takeover coordinator re-proposing.
//   - by drain: pending joins made rank 0 raise the drain flag in the
//     evaluation allreduce; every rank checkpointed at the boundary and
//     returned a *ViewChange carrying the proposed view, which the
//     driver seals. The next round runs the grown cluster from the
//     just-sealed manifest.
//
// The resumed chain is — bit for bit — the chain a fresh cluster of the
// new size would sample when started from the same manifest:
// partitioning, routing, and the moment-reduction order are pure
// functions of (problem, rank count), and the checkpoint's fragments
// are re-sliced by the *new* bounds on load. Growing, rejoining, and
// shrinking all ride the identical resume path.
//
// What a rank does inside a round is not written here: every rank of
// every round is one RunRank call (rank.go), the same body a
// cmd/bpmf-dist process runs over TCP. The loop over rounds, however,
// exists twice on purpose. This one is omniscient: it collects every
// rank's verdict and asks the FaultFabric who was killed, so it can
// shrink by exactly the dead set and seal a drain itself. A TCP process
// sees only its own error — one RankFailedError naming one peer, or a
// ViewChange it must wait for the coordinator to seal — and has to dial,
// keep heartbeating while peers convict, and sleep out the old sockets.
// Folding the two behind a flag would make each branch on "am I
// in-process" at every step.

// DefaultSuspicionTimeout is the failure-detector timeout RunRounds
// falls back to under a hook when Options.SuspicionTimeout is unset.
const DefaultSuspicionTimeout = 2 * time.Second

// MembershipHook lets a caller (typically a test) act on one round
// before its nodes start: it sees the round's sealed view, fabric and
// options and the coordinator state machine, so it can install
// Options.OnIteration kills, sever links, file join requests
// (mem.RequestJoin from an OnIteration seam) and assert epochs. Round 0
// is the initial run.
type MembershipHook func(round int, view comm.View, fb *comm.FaultFabric, opt *Options, mem *comm.Membership)

// RunInProc executes a distributed run as a virtual cluster inside this
// process: opt.Ranks nodes over the channel-backed fabric, each on its own
// goroutine. It returns rank 0's result (every rank computes an identical
// one) and the per-rank statistics in rank order.
func RunInProc(cfg core.Config, prob *core.Problem, opt Options) (*core.Result, []Stats, error) {
	res, stats, _, err := RunRounds(cfg, Source{Prob: prob}, nil, opt, nil)
	return res, stats, err
}

// RunRounds is the general in-process runner. It trains on src, starting
// from the sealed checkpoint round resume (fragments in
// opt.CheckpointDir; nil starts fresh), and returns rank 0's result, the
// last round's per-rank stats and the view that finished.
//
// Without a hook nothing can kill a rank or file a join in-process, so
// the run is one round on the plain fabric — with a resume point, the
// clean-restart reference the recovery tests pin recovered and grown
// chains bit-identical to. With a hook it is the elastic driver
// described above: every round runs on a fresh FaultFabric under a
// failure detector; a round that loses ranks or drains for a join is
// followed by one over the next view, resumed from the latest manifest
// in opt.CheckpointDir (which, with no resume given, also positions
// round 0). That needs checkpointing to be configured.
func RunRounds(cfg core.Config, src Source, resume *Manifest, opt Options, hook MembershipHook) (*core.Result, []Stats, comm.View, error) {
	opt = opt.normalized()
	if err := cfg.Validate(); err != nil {
		return nil, nil, comm.View{}, err
	}
	if hook == nil {
		fab := comm.NewFabric(opt.Ranks)
		defer fab.Close()
		results, stats, errs := runRound(cfg, src, resume, opt, fab.Comms())
		view := comm.InProcView(opt.Ranks)
		if err := firstError(errs); err != nil {
			return nil, nil, view, err
		}
		return results[0], stats, view, nil
	}
	if opt.CheckpointDir == "" || opt.CheckpointEvery <= 0 {
		return nil, nil, comm.View{}, fmt.Errorf("dist: elastic runs need CheckpointDir and CheckpointEvery (recovery resumes from the latest manifest)")
	}
	if opt.SuspicionTimeout <= 0 {
		opt.SuspicionTimeout = DefaultSuspicionTimeout
	}

	table := comm.NewSuspicionTable()
	mem := comm.NewMembership(comm.InProcView(opt.Ranks), 0, table)
	for round := 0; ; round++ {
		view := mem.View()
		ropt := opt.ForView(view, table, mem)

		man := resume
		if round > 0 || man == nil {
			var err error
			if man, err = LatestManifest(ropt.CheckpointDir); err != nil {
				return nil, nil, view, err
			}
		}

		fb := comm.NewFaultFabric(ropt.Ranks, cfg.Seed)
		hook(round, view, fb, &ropt, mem)
		results, stats, errs := runRound(cfg, src, man, ropt, fb.Comms())
		fb.Close()

		firstErr := firstError(errs)
		if firstErr == nil {
			return results[0], stats, view, nil
		}
		if killed := fb.Killed(); len(killed) > 0 {
			// Failure shrink: depose the dead incarnations (recording them
			// in the suspicion table — a rejoin at the same address must be
			// issued a higher one) and rerun over the survivors. Any
			// ViewChange a rank returned this round was proposed but never
			// sealed; dropping it is safe because the pending joins behind
			// it survive in mem and the next drain re-proposes them.
			dead := make([]string, 0, len(killed))
			for _, r := range killed {
				table.Convict(view.Members[r].Addr, view.Members[r].Incarnation)
				dead = append(dead, view.Members[r].Addr)
			}
			next := view.Shrink(dead...)
			if len(next.Members) < 1 {
				return nil, nil, view, fmt.Errorf("dist: all ranks failed (last error: %w)", firstErr)
			}
			mem.Adopt(next)
			continue
		}
		if vc := allViewChange(errs); vc != nil {
			mem.Seal(vc.View, vc.NextIter)
			continue
		}
		// Nothing was injected and nobody drained, so this is a genuine
		// failure (bad config, I/O error, ...), not something recovery can
		// fix.
		return nil, nil, view, firstErr
	}
}

// runRound runs one round — RunRank for every rank of comms, each on its
// own goroutine — and collects (result, stats, error) per rank. An
// in-memory source is planned once here, and one locality schedule built,
// for all ranks to share.
func runRound(cfg core.Config, src Source, man *Manifest, opt Options, comms []*comm.Comm) ([]*core.Result, []Stats, []error) {
	results := make([]*core.Result, len(comms))
	stats := make([]Stats, len(comms))
	errs := make([]error, len(comms))
	if src.Prob != nil {
		var err error
		if src.plan, src.test, err = src.buildPlan(opt); err != nil {
			for r := range errs {
				errs[r] = err
			}
			return results, stats, errs
		}
		if opt.Schedule == nil {
			opt.Schedule = order.Build(src.plan.R, order.Options{HeavyThreshold: cfg.KernelThreshold})
		}
	}
	var wg sync.WaitGroup
	for r, c := range comms {
		wg.Add(1)
		go func(r int, c *comm.Comm) {
			defer wg.Done()
			res, st, err := RunRank(c, cfg, src, man, opt)
			results[r], errs[r] = res, err
			if st != nil {
				stats[r] = *st
			}
		}(r, c)
	}
	wg.Wait()
	return results, stats, errs
}

// allViewChange returns the round's drain verdict when every rank
// returned a *ViewChange (the only way a drain completes), else nil.
func allViewChange(errs []error) *ViewChange {
	var first *ViewChange
	for _, e := range errs {
		var vc *ViewChange
		if e == nil || !errors.As(e, &vc) {
			return nil
		}
		if first == nil {
			first = vc
		}
	}
	return first
}

func firstError(errs []error) error {
	for _, err := range errs {
		if err != nil {
			return err
		}
	}
	return nil
}
