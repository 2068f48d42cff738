package dist

import (
	"net"
	"sync"
	"testing"
	"time"

	"repro/internal/comm"
	"repro/internal/core"
)

// rank_test.go drives RunRank — the per-rank body cmd/bpmf-dist runs —
// directly, one call per communicator and nothing shared between ranks
// (as between processes), on the in-process fabric and over real TCP.

// runRanks runs RunRank on every communicator and returns rank 0's
// result.
func runRanks(t *testing.T, what string, comms []*comm.Comm, cfg core.Config, src Source, man *Manifest, opt Options) *core.Result {
	t.Helper()
	results := make([]*core.Result, len(comms))
	errs := make([]error, len(comms))
	var wg sync.WaitGroup
	for r, c := range comms {
		wg.Add(1)
		go func(r int, c *comm.Comm) {
			defer wg.Done()
			results[r], _, errs[r] = RunRank(c, cfg, src, man, opt)
		}(r, c)
	}
	wg.Wait()
	for r, err := range errs {
		if err != nil {
			t.Fatalf("%s rank %d: %v", what, r, err)
		}
	}
	return results[0]
}

// runOnFabric is runRanks for a fresh run on the channel-backed fabric.
func runOnFabric(t *testing.T, what string, cfg core.Config, src Source, opt Options) *core.Result {
	t.Helper()
	fab := comm.NewFabric(opt.normalized().Ranks)
	defer fab.Close()
	return runRanks(t, what, fab.Comms(), cfg, src, nil, opt)
}

// dialLoopback meshes n ranks over TCP on free loopback ports.
func dialLoopback(t *testing.T, n int) []*comm.Comm {
	t.Helper()
	addrs := make([]string, n)
	for r := range addrs {
		ln, err := net.Listen("tcp", "127.0.0.1:0")
		if err != nil {
			t.Fatal(err)
		}
		addrs[r] = ln.Addr().String()
		ln.Close()
	}
	comms := make([]*comm.Comm, n)
	errs := make([]error, n)
	var wg sync.WaitGroup
	for r := range comms {
		wg.Add(1)
		go func(r int) {
			defer wg.Done()
			comms[r], errs[r] = comm.DialTCP(r, addrs, 10*time.Second)
		}(r)
	}
	wg.Wait()
	t.Cleanup(func() {
		for _, c := range comms {
			if c != nil {
				c.Close()
			}
		}
	})
	for r, err := range errs {
		if err != nil {
			t.Fatalf("dialing rank %d: %v", r, err)
		}
	}
	return comms
}

// TestRankBodyOverTCPMatchesInProcFreshAndResume is the go-test coverage
// of the path the bpmf-dist shell smokes reach: two ranks meshed with
// comm.DialTCP run RunRank fresh (sealing a manifest mid-run) and again
// from that manifest, and both chains — factors, kernel counts, RMSE
// traces — must equal RunRounds' on the in-process fabric bit for bit.
func TestRankBodyOverTCPMatchesInProcFreshAndResume(t *testing.T) {
	prob := problem(t, 43)
	cfg := testConfig()
	src := Source{Prob: prob}
	const ranks, cut = 2, 3

	refDir := t.TempDir()
	wantFresh, _, _, err := RunRounds(cfg, src, nil, Options{Ranks: ranks, CheckpointDir: refDir, CheckpointEvery: cut}, nil)
	if err != nil {
		t.Fatal(err)
	}
	wantResumed, _, _, err := RunRounds(cfg, src, readManifest(t, refDir, cut), Options{Ranks: ranks, CheckpointDir: refDir}, nil)
	if err != nil {
		t.Fatal(err)
	}

	tcpDir := t.TempDir()
	gotFresh := runRanks(t, "tcp fresh", dialLoopback(t, ranks), cfg, src, nil,
		Options{Ranks: ranks, CheckpointDir: tcpDir, CheckpointEvery: cut})
	gotResumed := runRanks(t, "tcp resumed", dialLoopback(t, ranks), cfg, src, readManifest(t, tcpDir, cut),
		Options{Ranks: ranks, CheckpointDir: tcpDir})

	assertBitEqual(t, gotFresh, wantFresh, cfg.Iters)
	assertBitEqual(t, gotResumed, wantResumed, cfg.Iters)
	assertBitEqual(t, gotResumed, gotFresh, cfg.Iters)
}
