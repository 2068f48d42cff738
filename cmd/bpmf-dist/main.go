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
// -threads N makes every rank a hybrid node (the paper's TBB + MPI
// configuration): N workers draw the rank's items, and each grain's
// finished rows are sent while the others are still computing, exactly
// as a one-thread rank does. The chain does not depend on N.
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
//
// The command is parse → resolve → run. Resolving is shared code: the
// data source and chain configuration come from internal/config
// (Data.Problem / Data.Panels / Sampler.Core), and what a rank does
// with a communicator — load its data, build the plan and the node,
// resume from a manifest, sample — is dist.RunRank, the same body the
// in-process cluster of internal/dist runs and its bit-exactness tests
// pin. What stays here is what only a real process has: dialing the
// mesh, choosing the manifest, heartbeating through a peer's death, and
// the loop over views. That loop is deliberately not dist.RunRounds':
// the in-process driver sees every rank's verdict and the fault
// fabric's kill list, while this process sees one error of its own and
// must agree with its peers through the checkpoint directory and the
// coordinator instead.
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
	"repro/internal/dist"
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

	// Resolve whatever is rank-count-independent once: the data source
	// and the options every round shares. Each round (one, unless -elastic
	// recovers from failures or admits joiners) stamps its view on them.
	src, err := source(cfg)
	if err != nil {
		log.Fatal(err)
	}
	if src.Mapped != nil {
		defer src.Mapped.Close()
	}
	opt := dist.Options{
		ThreadsPerRank:  cfg.Threads,
		BufferSize:      cfg.Buffer,
		Reorder:         cfg.Reorder,
		CheckpointDir:   cfg.Checkpoint.Dir,
		CheckpointEvery: cfg.Checkpoint.Every,
		GrowAtIter:      cfg.Fault.GrowAtIter,
		IterDelay:       cfg.Fault.IterDelay.Std(),
	}
	if cfg.Elastic {
		opt.SuspicionTimeout = cfg.Suspicion.Std()
	}
	if cfg.Fault.Enabled() && cfg.Fault.DieRank == origRank {
		// Deterministic self-kill for fault-injection smoke tests: exit
		// hard (no cleanup) right after the configured iteration — from
		// the survivors' side this is indistinguishable from a crash.
		opt.OnIteration = func(_, iter int) {
			if iter == cfg.Fault.DieIter {
				fmt.Fprintf(os.Stderr, "rank %d: injected crash after iteration %d\n", origRank, iter)
				os.Exit(3)
			}
		}
	}

	// Each round runs one sealed view (an epoch plus a member list in
	// rank order); ranks renumber themselves by their address's position.
	// A round ends three ways: clean (done), a sealed view change (grow —
	// re-mesh and resume), or a peer failure (shrink the view locally and
	// resume; one process can only be sure of failures its own detector
	// or a reset connection reported, so recovery handles one failure
	// burst at a time: when simultaneous failures leave the survivors
	// with different dead sets, the re-dial of the shrunk view times out
	// and the run fails loudly instead of resuming on a wrong mesh).
	table := comm.NewSuspicionTable()
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
				mem = comm.NewMembership(view, cfg.MaxRanks, table)
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
		res, stats, err := round(cfg, src, opt.ForView(view, table, mem), view, me, pin)
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
		table.Convict(dead.Addr, dead.Incarnation)
		log.Printf("rank %d: peer rank %d (%s, incarnation %d) failed: %v — resuming with %d survivors from the latest checkpoint",
			me, rf.Rank, dead.Addr, dead.Incarnation, rf.Err, len(view.Members)-1)
		view = view.Shrink(dead.Addr)
		pin = 0
		// Let every survivor unwind, close its sockets, and free its listen
		// port before the re-dial.
		time.Sleep(2 * cfg.Suspicion.Std())
	}
}

// round is what one attempt over a sealed view needs from *this process*:
// dial the view's mesh (members renumbered 0..n-1 in view order), pick
// the manifest to resume from — the pinned one, or under -elastic the
// latest sealed — and hand the communicator to dist.RunRank, the body
// every in-process rank runs too. After a peer failure it keeps this
// rank's heartbeats flowing until the slower detectors have convicted
// the same peer.
func round(cfg config.Dist, src dist.Source, opt dist.Options, view comm.View, me, pin int) (*core.Result, *dist.Stats, error) {
	c, err := comm.DialTCP(me, view.Addrs(), 30*time.Second)
	if err != nil {
		return nil, nil, err
	}
	defer c.Close()

	var man *dist.Manifest
	if pin > 0 {
		man, err = dist.ReadManifest(opt.CheckpointDir, pin)
	} else if cfg.Elastic {
		man, err = dist.LatestManifest(opt.CheckpointDir)
	}
	if err != nil {
		return nil, nil, err
	}
	if man != nil && me == 0 {
		log.Printf("resuming from the iteration-%d checkpoint (written by %d ranks)", man.Iter, man.Ranks)
	}

	res, stats, rerr := dist.RunRank(c, cfg.Sampler.Core(), src, man, opt)
	if src.Mapped != nil {
		st := src.Mapped.Stats()
		fmt.Printf("rank %d: mapped %d of %d shards (%.2f MB payload + %.2f KB metadata)\n",
			me, st.ShardsTouched, src.Mapped.Shards(),
			float64(st.PayloadBytesTouched)/1e6, float64(st.HeaderBytes)/1e3)
	}
	var rf *comm.RankFailedError
	if cfg.Elastic && errors.As(rerr, &rf) {
		// Our verdict on the dead rank is in, but peers relying on
		// heartbeat silence need up to a full suspicion window to convict
		// the same rank — keep proving we are alive until they have, or
		// the survivors disagree about who died and cannot re-mesh. The
		// beats carry our incarnation so peers with a conviction against a
		// previous life at this address still count them.
		comm.KeepaliveView(c, 0, opt.SuspicionTimeout*3/2, view.Members[me].Incarnation)
	}
	return res, stats, rerr
}

// source resolves -data / -synthetic into what every rank trains on. A
// .bcsr file is mapped, and each rank then decodes only the shards
// covering its own rows; -full-load (or -reorder, or any other input)
// gives every rank the whole problem, plus the file's panel table when
// there is one so the plan — and hence the chain — matches the
// shard-native run's. The file is opened (and its header, shard table
// and framing validated) before the cluster is dialed, so a corrupt file
// fails here instead of wedging the collective load.
func source(cfg config.Dist) (dist.Source, error) {
	native, err := shardNative(cfg.Data.Path, cfg.FullLoad, cfg.Reorder)
	if err != nil {
		return dist.Source{}, err
	}
	if native {
		mp, err := sparse.OpenBinary(cfg.Data.Path)
		return dist.Source{Mapped: mp, TestFrac: cfg.Data.TestFrac}, err
	}
	prob, err := cfg.Data.Problem(cfg.Sampler.Seed)
	if err != nil {
		return dist.Source{}, err
	}
	panels, err := cfg.Data.Panels()
	return dist.Source{Prob: prob, Panels: panels}, err
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
