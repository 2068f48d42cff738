// Command bpmf-dist runs distributed BPMF across real OS processes over
// the TCP transport — the deployment mode the paper runs with MPI across
// cluster nodes.
//
// Every process runs the same command with its own -rank; -peers lists
// every rank's listen address in rank order. A convenience -launch mode
// forks all ranks locally:
//
//	# one shot, 4 local worker processes:
//	bpmf-dist -launch 4 -synthetic small -iters 10
//
//	# or across machines (run one per host):
//	bpmf-dist -rank 0 -peers host0:9000,host1:9000 -synthetic small
//	bpmf-dist -rank 1 -peers host0:9000,host1:9000 -synthetic small
//
// All ranks must use identical data/sampler flags. With a synthetic
// benchmark or a MatrixMarket file, each rank regenerates or reloads the
// full dataset and derives the partition plan deterministically from the
// shared seed. With a .bcsr shard file, each rank instead maps the file
// and decodes only the shards covering its own row range — the row
// panels are assigned to ranks straight from the shard table — and the
// pieces it cannot read locally (split cursor, column ghosts, test set)
// travel over the fabric once at startup. The sampled chain is
// bit-identical either way; -full-load forces the old
// every-rank-decodes-everything behavior for comparison.
//
// With -elastic (plus -ckpt-dir and -ckpt-every), the cluster survives
// rank failures: a heartbeat detector declares a silent peer dead after
// -suspicion, the survivors renumber themselves over the remaining
// addresses, rebuild the partition plan, and resume from the latest
// sealed checkpoint manifest — producing the same chain, bit for bit, as
// a clean restart of the smaller cluster from that checkpoint. Recovery
// handles one failure burst at a time and needs -ckpt-dir on storage all
// ranks share. -die-rank/-die-iter inject a deterministic self-kill for
// smoke tests, and -resume-iter pins a restart to a specific manifest.
//
// The membership plane makes the cluster elastic in the other direction
// too. With -join-addr, the coordinator (rank 0, or the lowest survivor
// after failures) accepts join requests; a late worker started with
//
//	bpmf-dist -join host0:9100 -advertise host9:9000 -elastic ...
//
// is admitted at the next iteration boundary at or after -grow-at-iter:
// every rank checkpoints, the coordinator seals the new view (a fresh
// epoch and member list), the old fabric tears down, and the grown
// cluster re-meshes and resumes from the just-sealed manifest — bitwise
// identical to a fresh cluster of the new size started from that
// manifest. Members carry incarnation numbers, so a convicted rank can
// rejoin at the same address under a higher incarnation without being
// re-convicted by stale verdicts. -min-ranks/-max-ranks bound the view,
// and -join-delay/-iter-delay pace smoke tests.
package main

import (
	"errors"
	"flag"
	"fmt"
	"io"
	"log"
	"os"
	"os/exec"
	"strconv"
	"strings"
	"sync"
	"time"

	"repro/internal/comm"
	"repro/internal/config"
	"repro/internal/core"
	"repro/internal/datagen"
	"repro/internal/dist"
	"repro/internal/partition"
	"repro/internal/sparse"
)

func main() {
	log.SetFlags(0)
	log.SetPrefix("bpmf-dist: ")

	cfg := config.DefaultDist()
	if err := config.Parse(flag.CommandLine, os.Args[1:], &cfg); err != nil {
		log.Fatal(err)
	}

	if cfg.Launch > 0 {
		if err := launchLocal(cfg.Launch, cfg.BasePort, cfg.Elastic); err != nil {
			log.Fatal(err)
		}
		return
	}

	// Establish the starting view: workers derive epoch 0 from -peers;
	// a -join worker instead asks the coordinator for admission and
	// receives the sealed view (plus its rank and resume iteration) to
	// mesh into.
	var view comm.View
	var myAddr string
	pin := cfg.Checkpoint.ResumeIter
	origRank := cfg.Rank
	if cfg.Join != "" {
		origRank = -1 // joiners have no original rank; -die-rank never matches
		if d := cfg.Fault.JoinDelay.Std(); d > 0 {
			time.Sleep(d)
		}
		v, rank, resume, err := comm.RequestJoinTCP(cfg.Join, cfg.Advertise, 2*time.Minute)
		if err != nil {
			log.Fatalf("join %s: %v", cfg.Join, err)
		}
		view, pin, myAddr = v, resume, cfg.Advertise
		log.Printf("joined epoch %d as rank %d of %d, resuming at iteration %d",
			view.Epoch, rank, len(view.Members), resume)
	} else {
		addrs, err := cfg.Addrs() // already vetted by Validate
		if err != nil {
			log.Fatal(err)
		}
		view = comm.InitialView(addrs)
		myAddr = addrs[cfg.Rank]
	}

	ccfg := core.DefaultConfig()
	ccfg.K = cfg.Sampler.K
	ccfg.Alpha = cfg.Sampler.Alpha
	ccfg.Iters = cfg.Sampler.Iters
	ccfg.Burnin = cfg.Sampler.Burnin
	ccfg.Seed = cfg.Sampler.Seed
	opt := dist.Options{
		ThreadsPerRank:  cfg.Threads,
		BufferSize:      cfg.Buffer,
		Reorder:         cfg.Reorder,
		CheckpointDir:   cfg.Checkpoint.Dir,
		CheckpointEvery: cfg.Checkpoint.Every,
	}
	if cfg.Elastic {
		opt.SuspicionTimeout = cfg.Suspicion.Std()
	}

	useShards, err := shardNative(cfg.Data.Path, cfg.FullLoad, cfg.Reorder)
	if err != nil {
		log.Fatal(err)
	}

	// Load whatever is rank-count-independent once; each round (one round,
	// unless -elastic recovers from failures or admits joiners) rebuilds
	// the plan over the current view.
	w := &worker{
		cfg: ccfg, opt: opt, testFrac: cfg.Data.TestFrac, reorder: cfg.Reorder,
		synthetic: cfg.Data.Synthetic, scale: cfg.Data.Scale,
		elastic: cfg.Elastic, origRank: origRank,
		dieRank: cfg.Fault.DieRank, dieIter: cfg.Fault.DieIter,
		table:   comm.NewSuspicionTable(),
		growAt:  cfg.Fault.GrowAtIter, iterDelay: cfg.Fault.IterDelay.Std(),
	}
	if useShards {
		// Open (and validate) the file before joining the cluster:
		// OpenBinary checks the header, shard table and framing eagerly,
		// so a corrupt file fails here instead of wedging the collective
		// load — and the same mapping then feeds the load itself.
		if w.mp, err = sparse.OpenBinary(cfg.Data.Path); err != nil {
			log.Fatal(err)
		}
		defer w.mp.Close()
	} else {
		if w.prob, w.panels, err = buildProblem(cfg.Data.Path, cfg.Data.Synthetic, cfg.Data.Scale, cfg.Data.TestFrac, cfg.Sampler.Seed); err != nil {
			log.Fatal(err)
		}
	}

	// Each round runs one sealed view (an epoch plus a member list in
	// rank order); ranks renumber themselves by their address's position.
	// A round ends three ways: clean (done), a sealed view change (grow —
	// re-mesh and resume), or a peer failure (shrink the view locally and
	// resume; one process can only be sure of failures its own detector
	// or a reset connection reported, so recovery handles one failure
	// burst at a time — see PERF.md for the semantics).
	var mem *comm.Membership
	var srv *comm.MembershipServer
	for {
		me := view.RankOf(myAddr)
		if me < 0 {
			log.Fatalf("%s is not a member of epoch %d", myAddr, view.Epoch)
		}
		if len(view.Members) < cfg.MinRanks {
			log.Fatalf("epoch %d has %d ranks, below -min-ranks %d", view.Epoch, len(view.Members), cfg.MinRanks)
		}
		if me == 0 && cfg.JoinAddr != "" {
			if mem == nil {
				// First round as coordinator (rank 0 from the start, or the
				// lowest survivor after the old coordinator died): start the
				// membership listener. Joiners whose requests died with the
				// old coordinator retry and land here.
				mem = comm.NewMembership(view, cfg.MaxRanks, w.table)
				s, err := comm.ServeMembership(cfg.JoinAddr, mem)
				if err != nil {
					log.Printf("membership: cannot listen on %s (%v) — joins disabled", cfg.JoinAddr, err)
					mem = nil
				} else {
					srv = s
					defer srv.Close()
					log.Printf("membership: coordinator listening on %s (epoch %d)", s.Addr(), view.Epoch)
				}
			} else {
				// A shrink committed outside the membership object; sealed
				// views were committed by Seal below.
				mem.Adopt(view)
			}
		}
		res, stats, err := w.round(me, view, pin, mem)
		if err == nil {
			if me == 0 {
				for i, r := range res.AvgRMSE {
					fmt.Printf("iter %3d  RMSE %.6f\n", i+1, r)
				}
				fmt.Printf("final RMSE %.6f  %.0f updates/s\n", res.FinalRMSE(), res.UpdatesPerSec())
			}
			fmt.Printf("rank %d: sent %d items in %d msgs (%d flushes), received %d ghosts, compute %v, wait %v\n",
				me, stats.ItemsSent, stats.Comm.MsgsSent, stats.Flushes,
				stats.GhostsRecv, stats.ComputeTime.Round(time.Millisecond),
				stats.WaitTime.Round(time.Millisecond))
			if srv != nil {
				srv.Close()
			}
			return
		}
		var vc *dist.ViewChange
		if errors.As(err, &vc) {
			if mem != nil && me == 0 {
				mem.Seal(vc.View, vc.NextIter)
				log.Printf("membership: sealed epoch %d at iteration %d (%d ranks)",
					vc.View.Epoch, vc.NextIter, len(vc.View.Members))
			}
			view = vc.View
			pin = vc.NextIter
			continue
		}
		var rf *comm.RankFailedError
		if !cfg.Elastic || !errors.As(err, &rf) || rf.Rank < 0 || rf.Rank >= len(view.Members) || rf.Rank == me {
			log.Fatalf("rank %d: %v", me, err)
		}
		dead := view.Members[rf.Rank]
		// Record the conviction so a future coordinator takeover on this
		// process never re-issues a dead incarnation to a rejoiner.
		w.table.Convict(dead.Addr, dead.Incarnation)
		log.Printf("rank %d: peer rank %d (%s, incarnation %d) failed: %v — resuming with %d survivors from the latest checkpoint",
			me, rf.Rank, dead.Addr, dead.Incarnation, rf.Err, len(view.Members)-1)
		view = view.Shrink(dead.Addr)
		pin = 0
		// Let every survivor unwind, close its sockets, and free its listen
		// port before the re-dial.
		time.Sleep(2 * cfg.Suspicion.Std())
	}
}

// worker bundles a process's rank-count-independent state; round() runs
// one attempt over the currently sealed view.
type worker struct {
	cfg              core.Config
	opt              dist.Options // Ranks is overwritten per round
	mp               *sparse.Mapped
	prob             *core.Problem
	panels           *partition.Panels
	testFrac         float64
	scale            float64
	synthetic        string
	reorder          bool
	elastic          bool
	origRank         int // rank in the epoch-0 view; -1 for a -join worker
	dieRank, dieIter int
	table            *comm.SuspicionTable
	growAt           int
	iterDelay        time.Duration
}

// round dials the view's mesh (members renumbered 0..n-1 in view order),
// rebuilds the partition plan over the current rank count, resumes from a
// sealed checkpoint when one exists, and runs the sampler until it
// finishes, a view change drains it, or a peer failure unwinds it.
func (w *worker) round(me int, view comm.View, pin int, mem *comm.Membership) (*core.Result, *dist.Stats, error) {
	cur := view.Addrs()
	opt := w.opt
	opt.Ranks = len(cur)
	opt.Epoch = view.Epoch
	opt.Members = view.Members
	opt.Suspicions = w.table
	opt.Membership = mem
	opt.GrowAtIter = w.growAt
	opt.IterDelay = w.iterDelay
	if w.dieRank >= 0 && w.dieRank == w.origRank && w.dieIter >= 0 {
		// Deterministic self-kill for fault-injection smoke tests: exit
		// hard (no cleanup) right after the configured iteration — from
		// the survivors' side this is indistinguishable from a crash.
		opt.OnIteration = func(_, iter int) {
			if iter == w.dieIter {
				fmt.Fprintf(os.Stderr, "rank %d: injected crash after iteration %d\n", w.origRank, iter)
				os.Exit(3)
			}
		}
	}

	c, err := comm.DialTCP(me, cur, 30*time.Second)
	if err != nil {
		return nil, nil, err
	}
	defer c.Close()

	var node *dist.Node
	var test []sparse.Entry
	if w.mp != nil {
		sp, err := dist.LoadShards(c, w.mp, w.testFrac, w.cfg.Seed, opt)
		if err != nil {
			return nil, nil, err
		}
		fmt.Printf("rank %d: mapped %d of %d shards (%.2f MB payload + %.2f KB metadata)\n",
			me, sp.Shards, sp.TotalShards,
			float64(sp.Load.PayloadBytesTouched)/1e6, float64(sp.Load.HeaderBytes)/1e3)
		if node, err = dist.NewNode(c, w.cfg, sp.Plan, sp.RT, sp.Test, opt); err != nil {
			return nil, nil, err
		}
		test = sp.Test
	} else {
		var plan *partition.Plan
		if w.panels != nil && !w.reorder {
			// Full-load .bcsr still takes the panel-aligned plan so the
			// chain matches the shard-native path bit for bit.
			if plan, test, err = dist.BuildPlanPanels(w.prob, *w.panels, opt); err != nil {
				return nil, nil, err
			}
		} else {
			plan, test = dist.BuildPlan(w.prob, opt)
		}
		if node, err = dist.NewNode(c, w.cfg, plan, nil, test, opt); err != nil {
			return nil, nil, err
		}
	}

	if opt.CheckpointDir != "" && (w.elastic || pin > 0) {
		var man *dist.Manifest
		if pin > 0 {
			if man, err = dist.ReadManifest(opt.CheckpointDir, pin); err != nil {
				return nil, nil, err
			}
		} else if man, err = dist.LatestManifest(opt.CheckpointDir); err != nil {
			return nil, nil, err
		}
		if man != nil {
			base, err := dist.LoadDistCheckpoint(opt.CheckpointDir, man, test)
			if err != nil {
				return nil, nil, err
			}
			if err := node.Resume(base); err != nil {
				return nil, nil, err
			}
			if me == 0 {
				log.Printf("resuming from the iteration-%d checkpoint (written by %d ranks)", man.Iter, man.Ranks)
			}
		}
	}
	res, stats, rerr := node.Run()
	var rf *comm.RankFailedError
	if w.elastic && errors.As(rerr, &rf) {
		// Our verdict on the dead rank is in, but peers relying on
		// heartbeat silence need up to a full suspicion window to convict
		// the same rank — keep proving we are alive until they have, or
		// the survivors disagree about who died and cannot re-mesh. The
		// beats carry our incarnation so peers with a conviction against a
		// previous life at this address still count them.
		comm.KeepaliveView(c, 0, w.opt.SuspicionTimeout*3/2, view.Members[me].Incarnation)
	}
	return res, stats, rerr
}

// shardNative decides whether this run takes the shard-native .bcsr
// path, logging loudly when a flag forces the fallback.
func shardNative(dataPath string, fullLoad, reorder bool) (bool, error) {
	if dataPath == "" {
		return false, nil
	}
	isB, err := sparse.IsBCSR(dataPath)
	if err != nil || !isB {
		return false, err
	}
	if fullLoad {
		return false, nil
	}
	if reorder {
		log.Printf("-reorder needs the full matrix on every rank; falling back to -full-load for %s", dataPath)
		return false, nil
	}
	return true, nil
}

// launchLocal forks n worker copies of this binary on localhost ports,
// forwarding every set flag except the launch controls. A -config flag
// is forwarded like any other, so file-only settings reach the workers
// by re-reading the same file; the explicit -launch=0 below overrides a
// launch count the file may carry, or the workers would fork again.
func launchLocal(n, basePort int, elastic bool) error {
	common := []string{"-launch=0"}
	flag.Visit(func(f *flag.Flag) {
		if f.Name == "launch" || f.Name == "baseport" {
			return
		}
		common = append(common, "-"+f.Name+"="+f.Value.String())
	})
	exe, err := os.Executable()
	if err != nil {
		return err
	}
	return launchWorkers(exe, n, basePort, common, elastic, os.Stdout, os.Stderr)
}

// tailBuffer keeps the last max bytes written through it, so a failed
// worker's diagnostic survives into the launcher's error even though the
// full stream already scrolled past on the terminal.
type tailBuffer struct {
	mu  sync.Mutex
	buf []byte
	max int
}

func (t *tailBuffer) Write(p []byte) (int, error) {
	t.mu.Lock()
	defer t.mu.Unlock()
	t.buf = append(t.buf, p...)
	if len(t.buf) > t.max {
		t.buf = append(t.buf[:0], t.buf[len(t.buf)-t.max:]...)
	}
	return len(p), nil
}

func (t *tailBuffer) String() string {
	t.mu.Lock()
	defer t.mu.Unlock()
	return strings.TrimSpace(string(t.buf))
}

// launchWorkers starts n worker processes on consecutive localhost ports
// and waits for all of them. Without -elastic, the first rank that exits
// with an error gets the remaining ranks killed — a failed collective
// otherwise leaves the survivors blocked forever on receives that will
// never arrive — and the returned error names the failed rank, its exit
// code, and the tail of its stderr. With -elastic, a worker exit may be
// an injected death the survivors recover from, so the others run on and
// the launch fails only when no rank finishes cleanly.
func launchWorkers(exe string, n, basePort int, common []string, elastic bool, stdout, stderr io.Writer) error {
	addrs := make([]string, n)
	for r := 0; r < n; r++ {
		addrs[r] = fmt.Sprintf("127.0.0.1:%d", basePort+r)
	}
	peerList := strings.Join(addrs, ",")
	procs := make([]*exec.Cmd, 0, n)
	tails := make([]*tailBuffer, n)
	killAll := func() {
		for _, p := range procs {
			if p.Process != nil {
				_ = p.Process.Kill()
			}
		}
	}
	type exit struct {
		rank int
		err  error
	}
	done := make(chan exit, n)
	for r := 0; r < n; r++ {
		args := append([]string{"-rank", strconv.Itoa(r), "-peers", peerList}, common...)
		cmd := exec.Command(exe, args...)
		tails[r] = &tailBuffer{max: 4096}
		cmd.Stdout = stdout
		cmd.Stderr = io.MultiWriter(stderr, tails[r])
		if err := cmd.Start(); err != nil {
			killAll()
			for range procs {
				<-done
			}
			return fmt.Errorf("start rank %d: %w", r, err)
		}
		procs = append(procs, cmd)
		rr := r
		go func() { done <- exit{rr, cmd.Wait()} }()
	}
	var firstErr error
	clean := 0
	for i := 0; i < n; i++ {
		e := <-done
		if e.err == nil {
			clean++
			continue
		}
		code := -1
		var ee *exec.ExitError
		if errors.As(e.err, &ee) {
			code = ee.ExitCode()
		}
		if elastic {
			fmt.Fprintf(stderr, "bpmf-dist: rank %d exited with code %d (elastic run continues)\n", e.rank, code)
			continue
		}
		if firstErr == nil {
			msg := fmt.Sprintf("rank %d exited with code %d (remaining ranks killed)", e.rank, code)
			if tail := tails[e.rank].String(); tail != "" {
				msg += "\nstderr tail:\n" + tail
			}
			firstErr = errors.New(msg)
			killAll()
		}
	}
	if elastic && clean == 0 && firstErr == nil {
		firstErr = errors.New("elastic launch: no rank finished cleanly")
	}
	return firstErr
}

// buildProblem loads -data when given (every rank reads the same file,
// so the deterministic split and partition plan agree across ranks) and
// falls back to regenerating the named synthetic benchmark. For .bcsr
// input it also returns the file's panel table so the planner can align
// rank boundaries to shards.
func buildProblem(dataPath, name string, scale, testFrac float64, seed uint64) (*core.Problem, *partition.Panels, error) {
	if dataPath != "" {
		isB, err := sparse.IsBCSR(dataPath)
		if err != nil {
			return nil, nil, err
		}
		if isB {
			mp, err := sparse.OpenBinary(dataPath)
			if err != nil {
				return nil, nil, err
			}
			defer mp.Close()
			full, err := mp.Matrix()
			if err != nil {
				return nil, nil, err
			}
			panels := partition.PanelsOf(mp)
			train, test := sparse.SplitTrainTest(full, testFrac, seed)
			return core.NewProblem(train, test), &panels, nil
		}
		full, err := sparse.Load(dataPath)
		if err != nil {
			return nil, nil, err
		}
		train, test := sparse.SplitTrainTest(full, testFrac, seed)
		return core.NewProblem(train, test), nil, nil
	}
	spec, err := config.Data{Synthetic: name, Scale: scale}.Spec(seed)
	if err != nil {
		return nil, nil, err
	}
	ds := datagen.Generate(spec)
	train, test := sparse.SplitTrainTest(ds.R, testFrac, seed)
	return core.NewProblem(train, test), nil, nil
}
