package dist

import (
	"math"
	"testing"
	"time"

	"repro/internal/comm"
	"repro/internal/core"
	"repro/internal/la"
)

// elastic_test.go pins the fault-tolerance contract: a cluster that
// loses ranks mid-run detects the failure within the suspicion timeout,
// reassigns the dead ranks' shards/rows to the survivors, resumes from
// the last sealed checkpoint — and the recovered chain is bit-identical
// to a clean restart of a survivor-sized cluster from that same
// checkpoint (and to the sequential sampler resumed with the survivor
// partition's moment groups).

// readManifest loads one specific sealed manifest (LatestManifest would
// find the post-recovery rounds' newer ones).
func readManifest(t *testing.T, dir string, iter int) *Manifest {
	t.Helper()
	m, err := ReadManifest(dir, iter)
	if err != nil {
		t.Fatal(err)
	}
	return m
}

// killAtHook returns a MembershipHook that kills the given ranks right
// after they complete iteration killIter of round 0.
func killAtHook(killIter int, victims []int) MembershipHook {
	return func(round int, _ comm.View, fb *comm.Fabric, opt *Options, _ *comm.Membership) {
		if round != 0 {
			opt.OnIteration = nil
			return
		}
		opt.OnIteration = func(rank, iter int) {
			if iter != killIter {
				return
			}
			for _, v := range victims {
				if rank == v {
					fb.Kill(rank)
				}
			}
		}
	}
}

// noFaults is the hook of an elastic run that injects nothing: the
// rounds, fabric and failure detector all run, and must be
// chain-inert.
func noFaults(int, comm.View, *comm.Fabric, *Options, *comm.Membership) {}

func TestElasticKillRecoverMatchesCleanRestart(t *testing.T) {
	cases := []struct {
		name     string
		ranks    int
		victims  []int
		killIter int
		threads  int
	}{
		{"2ranks-kill1", 2, []int{1}, 5, 1},
		{"4ranks-kill2", 4, []int{1, 3}, 5, 1},
		{"2ranks-kill1-threaded", 2, []int{1}, 5, 3},
	}
	for _, tc := range cases {
		tc := tc
		t.Run(tc.name, func(t *testing.T) {
			prob := problem(t, 9)
			cfg := testConfig()
			cfg.Iters = 8
			dir := t.TempDir()
			opt := Options{
				Ranks: tc.ranks, ThreadsPerRank: tc.threads,
				CheckpointDir: dir, CheckpointEvery: 2,
				SuspicionTimeout: 400 * time.Millisecond,
			}
			got, _, view, err := RunRounds(cfg, sourceOf(t, prob), nil, opt, killAtHook(tc.killIter, tc.victims))
			if err != nil {
				t.Fatal(err)
			}
			survivors := tc.ranks - len(tc.victims)
			if finalRanks := len(view.Members); finalRanks != survivors {
				t.Fatalf("finished with %d ranks, want %d", finalRanks, survivors)
			}

			// Kill fired after iteration killIter, whose checkpoint
			// (NextIter = killIter+1) was already sealed — recovery must
			// have resumed from exactly that manifest.
			man := readManifest(t, dir, tc.killIter+1)
			if man.Ranks != tc.ranks {
				t.Fatalf("manifest written by %d ranks, want %d", man.Ranks, tc.ranks)
			}
			refOpt := Options{Ranks: survivors, ThreadsPerRank: tc.threads, CheckpointDir: dir}
			want, _, _, err := RunRounds(cfg, sourceOf(t, prob), man, refOpt, nil)
			if err != nil {
				t.Fatal(err)
			}

			if la.MaxAbsDiff(got.U, want.U) != 0 || la.MaxAbsDiff(got.V, want.V) != 0 {
				t.Fatal("recovered chain differs from a clean restart from the same checkpoint")
			}
			if got.KernelCounts != want.KernelCounts {
				t.Fatalf("kernel counts %v != %v", got.KernelCounts, want.KernelCounts)
			}
			if len(got.SampleRMSE) != cfg.Iters || len(want.SampleRMSE) != cfg.Iters {
				t.Fatalf("trace lengths %d/%d, want %d", len(got.SampleRMSE), len(want.SampleRMSE), cfg.Iters)
			}
			for i := range want.SampleRMSE {
				if got.SampleRMSE[i] != want.SampleRMSE[i] || got.AvgRMSE[i] != want.AvgRMSE[i] {
					t.Fatalf("iter %d: RMSE (%v, %v) != clean restart (%v, %v)",
						i, got.SampleRMSE[i], got.AvgRMSE[i], want.SampleRMSE[i], want.AvgRMSE[i])
				}
			}
		})
	}
}

// TestElasticRecoveryMatchesSequentialResume cross-checks recovery
// against a genuinely independent implementation: the sequential
// sampler, resumed from the reassembled checkpoint with the survivor
// partition's moment groups, must reproduce the recovered distributed
// chain bit-for-bit.
func TestElasticRecoveryMatchesSequentialResume(t *testing.T) {
	prob := problem(t, 11)
	cfg := testConfig()
	cfg.Iters = 8
	dir := t.TempDir()
	opt := Options{
		Ranks: 4, CheckpointDir: dir, CheckpointEvery: 2,
		SuspicionTimeout: 400 * time.Millisecond,
	}
	got, _, view, err := RunRounds(cfg, sourceOf(t, prob), nil, opt, killAtHook(3, []int{2}))
	if err != nil {
		t.Fatal(err)
	}
	if finalRanks := len(view.Members); finalRanks != 3 {
		t.Fatalf("finished with %d ranks, want 3", finalRanks)
	}

	man := readManifest(t, dir, 4)
	base, err := LoadDistCheckpoint(dir, man, prob.R.M, prob.R.N, cfg.K, prob.Test)
	if err != nil {
		t.Fatal(err)
	}
	survivorPlan, _ := BuildPlan(prob, Options{Ranks: 3})
	seqCfg := cfg
	seqCfg.MomentGroupsU, seqCfg.MomentGroupsV = MomentGroupsOf(survivorPlan)
	s, err := core.ResumeSamplerGrown(seqCfg, prob, base)
	if err != nil {
		t.Fatal(err)
	}
	want := s.RunFrom(base.NextIter)

	if la.MaxAbsDiff(got.U, want.U) != 0 || la.MaxAbsDiff(got.V, want.V) != 0 {
		t.Fatal("recovered chain differs from the sequential resume with survivor moment groups")
	}
	if got.KernelCounts != want.KernelCounts {
		t.Fatalf("kernel counts %v != %v", got.KernelCounts, want.KernelCounts)
	}
	// The RMSE evaluation's summation tree differs between the engines
	// (per-rank partials vs the global chunk walk), so the trace matches
	// to reduction tolerance, not bitwise — same contract as the plain
	// distributed-vs-sequential test. The chain itself (U, V) is bitwise.
	for i := range want.SampleRMSE {
		if math.Abs(got.SampleRMSE[i]-want.SampleRMSE[i]) > 1e-12 {
			t.Fatalf("iter %d: RMSE %v != sequential %v", i, got.SampleRMSE[i], want.SampleRMSE[i])
		}
	}
}

// TestElasticFreshRunMatchesRunInProc pins that checkpointing and the
// failure detector are chain-inert: an elastic run with no faults is
// bit-identical to the plain engine.
func TestElasticFreshRunMatchesRunInProc(t *testing.T) {
	prob := problem(t, 13)
	cfg := testConfig()
	want, _, err := RunInProc(cfg, prob, Options{Ranks: 2})
	if err != nil {
		t.Fatal(err)
	}
	opt := Options{
		Ranks: 2, CheckpointDir: t.TempDir(), CheckpointEvery: 2,
		SuspicionTimeout: time.Second,
	}
	got, _, view, err := RunRounds(cfg, sourceOf(t, prob), nil, opt, noFaults)
	if err != nil {
		t.Fatal(err)
	}
	if finalRanks := len(view.Members); finalRanks != 2 {
		t.Fatalf("finished with %d ranks, want 2", finalRanks)
	}
	if la.MaxAbsDiff(got.U, want.U) != 0 || la.MaxAbsDiff(got.V, want.V) != 0 {
		t.Fatal("elastic fresh run differs from RunInProc")
	}
	if got.KernelCounts != want.KernelCounts {
		t.Fatalf("kernel counts %v != %v", got.KernelCounts, want.KernelCounts)
	}
}

// TestElasticShardNativeKillRecover runs the shard-native data plane
// through a kill: after recovery the dead rank's .bcsr shards are
// reassigned (AssignPanels over the survivor count) and the resumed
// chain must equal a clean survivor-sized shard-native restart from the
// same manifest.
func TestElasticShardNativeKillRecover(t *testing.T) {
	path, _ := writeShardedFile(t, 31, 400)
	cfg := testConfig()
	cfg.Iters = 8
	dir := t.TempDir()
	opt := Options{
		Ranks: 3, CheckpointDir: dir, CheckpointEvery: 2,
		SuspicionTimeout: 400 * time.Millisecond,
	}
	got, _, view, err := RunRounds(cfg, Source{Mapped: openShards(t, path), TestFrac: 0.2}, nil, opt, killAtHook(3, []int{2}))
	if err != nil {
		t.Fatal(err)
	}
	if finalRanks := len(view.Members); finalRanks != 2 {
		t.Fatalf("finished with %d ranks, want 2", finalRanks)
	}

	man := readManifest(t, dir, 4)
	if man.Ranks != 3 {
		t.Fatalf("manifest written by %d ranks, want 3", man.Ranks)
	}
	want, _, _, err := RunRounds(cfg, Source{Mapped: openShards(t, path), TestFrac: 0.2}, man, Options{Ranks: 2, CheckpointDir: dir}, nil)
	if err != nil {
		t.Fatal(err)
	}
	if la.MaxAbsDiff(got.U, want.U) != 0 || la.MaxAbsDiff(got.V, want.V) != 0 {
		t.Fatal("recovered shard-native chain differs from a clean restart")
	}
	for i := range want.SampleRMSE {
		if got.SampleRMSE[i] != want.SampleRMSE[i] || got.AvgRMSE[i] != want.AvgRMSE[i] {
			t.Fatalf("iter %d: RMSE (%v, %v) != clean restart (%v, %v)",
				i, got.SampleRMSE[i], got.AvgRMSE[i], want.SampleRMSE[i], want.AvgRMSE[i])
		}
	}
}

// TestResumeRejectsMismatches pins the resume-time validation.
func TestResumeRejectsMismatches(t *testing.T) {
	prob := problem(t, 7)
	cfg := testConfig()
	cfg.Iters = 4
	dir := t.TempDir()
	opt := Options{Ranks: 2, CheckpointDir: dir, CheckpointEvery: 2}
	if _, _, err := RunInProc(cfg, prob, opt); err != nil {
		t.Fatal(err)
	}
	man, err := LatestManifest(dir)
	if err != nil {
		t.Fatal(err)
	}
	if man == nil || man.Iter != 4 {
		t.Fatalf("latest manifest %+v, want iter 4", man)
	}
	badCfg := cfg
	badCfg.Seed = cfg.Seed + 1
	if _, _, _, err := RunRounds(badCfg, sourceOf(t, prob), man, Options{Ranks: 2, CheckpointDir: dir}, nil); err == nil {
		t.Fatal("resume with a different seed must fail")
	}
	badCfg = cfg
	badCfg.K = cfg.K + 1
	if _, _, _, err := RunRounds(badCfg, sourceOf(t, prob), man, Options{Ranks: 2, CheckpointDir: dir}, nil); err == nil {
		t.Fatal("resume with a different K must fail")
	}
}
