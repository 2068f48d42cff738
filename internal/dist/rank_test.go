package dist

import (
	"net"
	"strings"
	"sync"
	"testing"
	"time"

	"repro/internal/comm"
	"repro/internal/core"
	"repro/internal/sparse"
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
	src := sourceOf(t, prob)
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

// TestRunRankRefusesBadSources: a Source no rank can load comes back
// from every rank as an error before anyone communicates — not a nil
// dereference on a rank goroutine — and so does a node without its
// transpose columns.
func TestRunRankRefusesBadSources(t *testing.T) {
	prob := problem(t, 44)
	cfg := testConfig()
	mapped := sourceOf(t, prob).Mapped
	for _, tc := range []struct {
		name, want string
		src        Source
	}{
		{"no image", "no open .bcsr image", Source{TestFrac: 0.2}},
		{"held out and carried", "give one", Source{Mapped: mapped, TestFrac: 0.2, Test: prob.Test}},
		{"test entry past the matrix", "outside the", Source{Mapped: mapped, Test: []sparse.Entry{{Row: int32(prob.R.M), Col: 0, Val: 1}}}},
	} {
		t.Run(tc.name, func(t *testing.T) {
			_, _, _, err := RunRounds(cfg, tc.src, nil, Options{Ranks: 2}, nil)
			if err == nil || !strings.Contains(err.Error(), tc.want) {
				t.Fatalf("RunRounds returned %v, want an error mentioning %q", err, tc.want)
			}
		})
	}

	plan, test := BuildPlan(prob, Options{Ranks: 1})
	fab := comm.NewFabric(1)
	defer fab.Close()
	if _, err := NewNode(fab.Comms()[0], cfg, plan, nil, test, Options{Ranks: 1}); err == nil {
		t.Fatal("NewNode accepted a rank without its transpose columns")
	}
}

// TestSourceOfRowCap: one shard per row makes the image format's shard
// cap a row cap. The cap is checked before a row pointer is read, so a
// header-only matrix past it stands in for a 16M-row problem.
func TestSourceOfRowCap(t *testing.T) {
	_, err := SourceOf(&core.Problem{R: &sparse.CSR{M: 1<<24 + 1, N: 1}})
	if err == nil || !strings.Contains(err.Error(), "rows exceed") {
		t.Fatalf("SourceOf over the row cap returned %v", err)
	}
}
