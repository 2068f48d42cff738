package dist

import (
	"testing"
	"time"

	"repro/internal/comm"
	"repro/internal/core"
	"repro/internal/la"
)

// membership_test.go pins the elastic-growth contract: a cluster that
// admits joiners mid-run (grow), re-admits a previously convicted rank
// under a fresh incarnation (rejoin), or shrinks and then regrows, must
// finish with U/V, kernel counts, and the full RMSE traces bitwise
// identical to a fresh cluster of the final size started from the
// sealing manifest. All runs ride the seeded FaultFabric, so every
// failure, drain, and admission is deterministic by seed.

// growHook files one join request from rank 0's iteration seam of round
// 0 (the production path: a joiner's TCP request lands in the
// coordinator's Membership while its sampler runs).
func growHook(addr string, atIter int) MembershipHook {
	return func(round int, _ comm.View, _ *comm.FaultFabric, opt *Options, mem *comm.Membership) {
		if round != 0 {
			opt.OnIteration = nil
			return
		}
		opt.OnIteration = func(rank, iter int) {
			if rank == 0 && iter == atIter {
				if _, err := mem.RequestJoin(addr); err != nil {
					panic(err)
				}
			}
		}
	}
}

// assertBitEqual pins the full bit-exactness contract between an elastic
// run and its fresh-restart reference.
func assertBitEqual(t *testing.T, got, want *core.Result, iters int) {
	t.Helper()
	if la.MaxAbsDiff(got.U, want.U) != 0 || la.MaxAbsDiff(got.V, want.V) != 0 {
		t.Fatal("grown chain differs from a fresh restart from the sealing manifest")
	}
	if got.KernelCounts != want.KernelCounts {
		t.Fatalf("kernel counts %v != %v", got.KernelCounts, want.KernelCounts)
	}
	if len(got.SampleRMSE) != iters || len(want.SampleRMSE) != iters {
		t.Fatalf("trace lengths %d/%d, want %d", len(got.SampleRMSE), len(want.SampleRMSE), iters)
	}
	for i := range want.SampleRMSE {
		if got.SampleRMSE[i] != want.SampleRMSE[i] || got.AvgRMSE[i] != want.AvgRMSE[i] {
			t.Fatalf("iter %d: RMSE (%v, %v) != fresh restart (%v, %v)",
				i, got.SampleRMSE[i], got.AvgRMSE[i], want.SampleRMSE[i], want.AvgRMSE[i])
		}
	}
}

func TestMembershipGrowMatchesFreshResume(t *testing.T) {
	cases := []struct {
		name    string
		threads int
	}{
		{"plain", 1},
		{"threaded", 3},
	}
	for _, tc := range cases {
		tc := tc
		t.Run(tc.name, func(t *testing.T) {
			prob := problem(t, 17)
			cfg := testConfig()
			cfg.Iters = 8
			dir := t.TempDir()
			opt := Options{
				Ranks: 2, ThreadsPerRank: tc.threads,
				CheckpointDir: dir, CheckpointEvery: 3,
				SuspicionTimeout: 400 * time.Millisecond,
			}
			// Join filed at iteration 2 → the drain flag rides iteration
			// 3's evaluation allreduce → the cluster seals the grown view
			// at the iteration-4 manifest (written by the 2-rank cluster).
			got, _, view, err := RunRounds(cfg, Source{Prob: prob}, nil, opt, growHook("joiner-a", 2))
			if err != nil {
				t.Fatal(err)
			}
			if view.Epoch != 1 || len(view.Members) != 3 {
				t.Fatalf("final view %+v, want epoch 1 with 3 members", view)
			}
			if !view.Contains(comm.Member{Addr: "joiner-a", Incarnation: 1}) {
				t.Fatalf("final view %+v misses the joiner", view)
			}

			man := readManifest(t, dir, 4)
			if man.Ranks != 2 {
				t.Fatalf("sealing manifest written by %d ranks, want 2", man.Ranks)
			}
			want, _, _, err := RunRounds(cfg, Source{Prob: prob}, man, Options{Ranks: 3, ThreadsPerRank: tc.threads, CheckpointDir: dir}, nil)
			if err != nil {
				t.Fatal(err)
			}
			assertBitEqual(t, got, want, cfg.Iters)
		})
	}
}

// TestMembershipRejoinWithFreshIncarnation kills a rank, lets the
// survivors shrink and resume, then re-admits the dead rank's address:
// it must come back at incarnation 2 (so survivors' conviction of
// incarnation 1 cannot touch it), and the grown chain must match a
// fresh 3-rank restart from the rejoin's sealing manifest.
func TestMembershipRejoinWithFreshIncarnation(t *testing.T) {
	prob := problem(t, 19)
	cfg := testConfig()
	cfg.Iters = 10
	dir := t.TempDir()
	opt := Options{
		Ranks: 3, CheckpointDir: dir, CheckpointEvery: 2,
		SuspicionTimeout: 400 * time.Millisecond,
	}
	hook := func(round int, _ comm.View, fb *comm.FaultFabric, opt *Options, mem *comm.Membership) {
		switch round {
		case 0: // kill rank 2 after iteration 3 (manifest 4 already sealed)
			opt.OnIteration = func(rank, iter int) {
				if rank == 2 && iter == 3 {
					fb.Kill(rank)
				}
			}
		case 1: // the 2-rank survivor round re-admits the dead address
			opt.OnIteration = func(rank, iter int) {
				if rank == 0 && iter == 6 {
					if _, err := mem.RequestJoin("inproc-2"); err != nil {
						panic(err)
					}
				}
			}
		default:
			opt.OnIteration = nil
		}
	}
	got, _, view, err := RunRounds(cfg, Source{Prob: prob}, nil, opt, hook)
	if err != nil {
		t.Fatal(err)
	}
	// Epochs: 0 (fresh) → 1 (failure shrink) → 2 (rejoin sealed).
	if view.Epoch != 2 || len(view.Members) != 3 {
		t.Fatalf("final view %+v, want epoch 2 with 3 members", view)
	}
	if !view.Contains(comm.Member{Addr: "inproc-2", Incarnation: 2}) {
		t.Fatalf("final view %+v must hold inproc-2 at incarnation 2", view)
	}

	man := readManifest(t, dir, 8)
	if man.Ranks != 2 {
		t.Fatalf("sealing manifest written by %d ranks, want 2", man.Ranks)
	}
	want, _, _, err := RunRounds(cfg, Source{Prob: prob}, man, Options{Ranks: 3, CheckpointDir: dir}, nil)
	if err != nil {
		t.Fatal(err)
	}
	assertBitEqual(t, got, want, cfg.Iters)
}

// TestMembershipShrinkThenRegrow walks the full elastic arc
// 2 → 3 → 2 → 4: grow by one joiner, lose a rank, then admit two joins
// racing the same epoch (the dead rank's address rejoining plus a brand
// new one) — and the final 4-rank chain must match a fresh 4-rank
// restart from the last sealing manifest.
func TestMembershipShrinkThenRegrow(t *testing.T) {
	prob := problem(t, 23)
	cfg := testConfig()
	cfg.Iters = 12
	dir := t.TempDir()
	opt := Options{
		Ranks: 2, CheckpointDir: dir, CheckpointEvery: 2,
		SuspicionTimeout: 400 * time.Millisecond,
	}
	hook := func(round int, _ comm.View, fb *comm.FaultFabric, opt *Options, mem *comm.Membership) {
		switch round {
		case 0: // grow: joiner-a admitted at the iteration-4 boundary
			opt.OnIteration = func(rank, iter int) {
				if rank == 0 && iter == 2 {
					if _, err := mem.RequestJoin("joiner-a"); err != nil {
						panic(err)
					}
				}
			}
		case 1: // shrink: inproc-1 dies after iteration 5 (manifest 6 sealed)
			opt.OnIteration = func(rank, iter int) {
				if rank == 1 && iter == 5 {
					fb.Kill(rank)
				}
			}
		case 2: // regrow: two joins race the same epoch
			opt.OnIteration = func(rank, iter int) {
				if rank == 0 && iter == 7 {
					if _, err := mem.RequestJoin("inproc-1"); err != nil {
						panic(err)
					}
					if _, err := mem.RequestJoin("joiner-b"); err != nil {
						panic(err)
					}
				}
			}
		default:
			opt.OnIteration = nil
		}
	}
	got, _, view, err := RunRounds(cfg, Source{Prob: prob}, nil, opt, hook)
	if err != nil {
		t.Fatal(err)
	}
	// Epochs: 0 → 1 (grow) → 2 (shrink) → 3 (double admission).
	if view.Epoch != 3 || len(view.Members) != 4 {
		t.Fatalf("final view %+v, want epoch 3 with 4 members", view)
	}
	// Pending joins are admitted in sorted order, independent of which
	// request reached the coordinator first.
	wantMembers := []comm.Member{
		{Addr: "inproc-0", Incarnation: 1},
		{Addr: "joiner-a", Incarnation: 1},
		{Addr: "inproc-1", Incarnation: 2},
		{Addr: "joiner-b", Incarnation: 1},
	}
	for i, mb := range wantMembers {
		if view.Members[i] != mb {
			t.Fatalf("final view %+v, want members %+v", view.Members, wantMembers)
		}
	}

	man := readManifest(t, dir, 9)
	if man.Ranks != 2 {
		t.Fatalf("sealing manifest written by %d ranks, want 2", man.Ranks)
	}
	want, _, _, err := RunRounds(cfg, Source{Prob: prob}, man, Options{Ranks: 4, CheckpointDir: dir}, nil)
	if err != nil {
		t.Fatal(err)
	}
	assertBitEqual(t, got, want, cfg.Iters)
}

// TestMembershipShardNativeGrow runs the grow path over the
// shard-native data plane: after the seal, the admitted rank takes its
// share of the .bcsr shards (AssignPanels over the grown rank count),
// and the chain must match a fresh 3-rank shard-native restart from the
// sealing manifest.
func TestMembershipShardNativeGrow(t *testing.T) {
	path, _ := writeShardedFile(t, 37, 400)
	cfg := testConfig()
	cfg.Iters = 8
	dir := t.TempDir()
	opt := Options{
		Ranks: 2, CheckpointDir: dir, CheckpointEvery: 3,
		SuspicionTimeout: 400 * time.Millisecond,
	}
	got, _, view, err := RunRounds(cfg, Source{Mapped: openShards(t, path), TestFrac: 0.2}, nil, opt, growHook("joiner-a", 2))
	if err != nil {
		t.Fatal(err)
	}
	if view.Epoch != 1 || len(view.Members) != 3 {
		t.Fatalf("final view %+v, want epoch 1 with 3 members", view)
	}

	man := readManifest(t, dir, 4)
	if man.Ranks != 2 {
		t.Fatalf("sealing manifest written by %d ranks, want 2", man.Ranks)
	}
	want, _, _, err := RunRounds(cfg, Source{Mapped: openShards(t, path), TestFrac: 0.2}, man, Options{Ranks: 3, CheckpointDir: dir}, nil)
	if err != nil {
		t.Fatal(err)
	}
	assertBitEqual(t, got, want, cfg.Iters)
}

// TestMembershipCoordinatorDiesMidProposal kills rank 0 in the window
// between the drain checkpoint and the view exchange — the proposed
// view is never sealed. The survivors shrink, the pending join survives
// in the membership state, and the takeover coordinator re-proposes and
// seals it on the next boundary.
func TestMembershipCoordinatorDiesMidProposal(t *testing.T) {
	prob := problem(t, 29)
	cfg := testConfig()
	cfg.Iters = 10
	dir := t.TempDir()
	opt := Options{
		Ranks: 3, CheckpointDir: dir, CheckpointEvery: 2,
		SuspicionTimeout: 400 * time.Millisecond,
	}
	hook := func(round int, _ comm.View, fb *comm.FaultFabric, opt *Options, mem *comm.Membership) {
		if round != 0 {
			opt.OnIteration = nil
			return
		}
		opt.OnIteration = func(rank, iter int) {
			if rank != 0 {
				return
			}
			if iter == 3 {
				if _, err := mem.RequestJoin("late-0"); err != nil {
					panic(err)
				}
			}
			if iter == 4 {
				// Iteration 4 is the drain boundary: its manifest (iter 5)
				// is sealed before OnIteration runs, and the view exchange
				// happens after — so this kill lands exactly in the
				// proposed-but-unsealed window.
				fb.Kill(rank)
			}
		}
	}
	got, _, view, err := RunRounds(cfg, Source{Prob: prob}, nil, opt, hook)
	if err != nil {
		t.Fatal(err)
	}
	// Epochs: 0 → 1 (coordinator's failure shrink) → 2 (re-proposed seal).
	if view.Epoch != 2 || len(view.Members) != 3 {
		t.Fatalf("final view %+v, want epoch 2 with 3 members", view)
	}
	wantAddrs := []string{"inproc-1", "inproc-2", "late-0"}
	for i, a := range wantAddrs {
		if view.Members[i].Addr != a {
			t.Fatalf("final members %+v, want addresses %v", view.Members, wantAddrs)
		}
	}

	// The drain checkpoint the dead coordinator forced is sealed (iter 5,
	// 3 ranks); the survivors' re-proposal sealed at iter 6 (2 ranks) and
	// the grown cluster resumed from it.
	if man := readManifest(t, dir, 5); man.Ranks != 3 {
		t.Fatalf("drain manifest written by %d ranks, want 3", man.Ranks)
	}
	man := readManifest(t, dir, 6)
	if man.Ranks != 2 {
		t.Fatalf("sealing manifest written by %d ranks, want 2", man.Ranks)
	}
	want, _, _, err := RunRounds(cfg, Source{Prob: prob}, man, Options{Ranks: 3, CheckpointDir: dir}, nil)
	if err != nil {
		t.Fatal(err)
	}
	assertBitEqual(t, got, want, cfg.Iters)
}

// TestMembershipDuplicateJoinAdmittedOnce pins the lost-reply retransmit
// case end to end: the same address asking twice is admitted exactly
// once, at incarnation 1.
func TestMembershipDuplicateJoinAdmittedOnce(t *testing.T) {
	prob := problem(t, 31)
	cfg := testConfig()
	cfg.Iters = 6
	opt := Options{
		Ranks: 2, CheckpointDir: t.TempDir(), CheckpointEvery: 2,
		SuspicionTimeout: 400 * time.Millisecond,
	}
	hook := func(round int, _ comm.View, _ *comm.FaultFabric, opt *Options, mem *comm.Membership) {
		if round != 0 {
			opt.OnIteration = nil
			return
		}
		opt.OnIteration = func(rank, iter int) {
			if rank == 0 && iter == 2 {
				for i := 0; i < 2; i++ {
					if _, err := mem.RequestJoin("dup-joiner"); err != nil {
						panic(err)
					}
				}
			}
		}
	}
	_, _, view, err := RunRounds(cfg, Source{Prob: prob}, nil, opt, hook)
	if err != nil {
		t.Fatal(err)
	}
	if len(view.Members) != 3 {
		t.Fatalf("final view has %d members, want 3 (duplicate join must not double-admit)", len(view.Members))
	}
	if !view.Contains(comm.Member{Addr: "dup-joiner", Incarnation: 1}) {
		t.Fatalf("final view %+v misses dup-joiner at incarnation 1", view)
	}
}

// TestMembershipGrowAtIterDefersAdmission pins the -grow-at-iter hook:
// a join filed at iteration 1 must not drain before the configured
// boundary.
func TestMembershipGrowAtIterDefersAdmission(t *testing.T) {
	prob := problem(t, 41)
	cfg := testConfig()
	cfg.Iters = 8
	dir := t.TempDir()
	opt := Options{
		Ranks: 2, CheckpointDir: dir, CheckpointEvery: 2,
		SuspicionTimeout: 400 * time.Millisecond,
		GrowAtIter:       5,
	}
	_, _, view, err := RunRounds(cfg, Source{Prob: prob}, nil, opt, growHook("joiner-a", 1))
	if err != nil {
		t.Fatal(err)
	}
	if view.Epoch != 1 || len(view.Members) != 3 {
		t.Fatalf("final view %+v, want epoch 1 with 3 members", view)
	}
	// The first drain-eligible evaluation is iteration 5, so the seal
	// lands on the iteration-6 manifest — still written by 2 ranks.
	if man := readManifest(t, dir, 6); man.Ranks != 2 {
		t.Fatalf("sealing manifest written by %d ranks, want 2", man.Ranks)
	}
}
