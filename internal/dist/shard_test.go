package dist

import (
	"errors"
	"math"
	"os"
	"path/filepath"
	"strings"
	"sync"
	"testing"

	"repro/internal/comm"
	"repro/internal/core"
	"repro/internal/datagen"
	"repro/internal/partition"
	"repro/internal/sparse"
)

// shard_test.go pins the shard-native data plane: a virtual cluster
// whose ranks load only their own .bcsr shards (plus the startup
// exchanges) must sample the exact chain of a cluster where every rank
// decodes the whole file — and must actually touch only its own shards
// while doing it.

// writeShardedFile renders the Small benchmark as a many-shard .bcsr.
func writeShardedFile(t *testing.T, seed uint64, shardNNZ int) (path string, full *sparse.CSR) {
	t.Helper()
	ds := datagen.Generate(datagen.Small(seed))
	path = filepath.Join(t.TempDir(), "r.bcsr")
	f, err := os.Create(path)
	if err != nil {
		t.Fatal(err)
	}
	if err := sparse.WriteBinarySharded(f, ds.R, shardNNZ); err != nil {
		t.Fatal(err)
	}
	if err := f.Close(); err != nil {
		t.Fatal(err)
	}
	return path, ds.R
}

// openShards maps path the way cmd/bpmf-dist does before it hands the
// mapping to Source.Mapped or LoadShards; the test closes it.
func openShards(t *testing.T, path string) *sparse.Mapped {
	t.Helper()
	mp, err := sparse.OpenBinary(path)
	if err != nil {
		t.Fatal(err)
	}
	t.Cleanup(func() { mp.Close() })
	return mp
}

// runFullLoad runs a virtual cluster where every rank holds the whole
// matrix, under the panel-aligned plan (the .bcsr full-load path of
// cmd/bpmf-dist).
func runFullLoad(t *testing.T, cfg core.Config, path string, testFrac float64, seed uint64, opt Options) *core.Result {
	t.Helper()
	mp := openShards(t, path)
	fullR, err := mp.Matrix()
	if err != nil {
		t.Fatal(err)
	}
	panels := partition.PanelsOf(mp)
	src := Source{Prob: core.NewProblem(sparse.SplitTrainTest(fullR, testFrac, seed)), Panels: &panels}
	return runOnFabric(t, "full-load", cfg, src, opt)
}

// runShardNative runs the virtual cluster with every rank loading only
// its own shards of path.
func runShardNative(t *testing.T, cfg core.Config, path string, testFrac float64, opt Options) *core.Result {
	t.Helper()
	return runOnFabric(t, "shard-native", cfg, Source{Mapped: openShards(t, path), TestFrac: testFrac}, opt)
}

// loadShards runs the collective shard-native load alone and returns
// each rank's problem (every rank maps the file itself, so the touch
// counters are per rank).
func loadShards(t *testing.T, path string, testFrac float64, seed uint64, opt Options) []*ShardProblem {
	t.Helper()
	opt = opt.normalized()
	fab := comm.NewFabric(opt.Ranks)
	defer fab.Close()
	probs := make([]*ShardProblem, opt.Ranks)
	errs := make([]error, opt.Ranks)
	var wg sync.WaitGroup
	for r, c := range fab.Comms() {
		wg.Add(1)
		go func(r int, c *comm.Comm, mp *sparse.Mapped) {
			defer wg.Done()
			probs[r], errs[r] = LoadShards(c, mp, testFrac, seed, opt)
		}(r, c, openShards(t, path))
	}
	wg.Wait()
	for r, err := range errs {
		if err != nil {
			t.Fatalf("shard load rank %d: %v", r, err)
		}
	}
	return probs
}

func TestShardNativeChainBitIdenticalToFullLoad(t *testing.T) {
	path, _ := writeShardedFile(t, 17, 400) // ~30 shards for Small's 12k ratings
	cfg := testConfig()
	for _, ranks := range []int{1, 2, 4} {
		opt := Options{Ranks: ranks}
		cfg.Seed = 17 // the shard-native split is seeded by the chain's seed
		want := runFullLoad(t, cfg, path, 0.2, 17, opt)
		got := runShardNative(t, cfg, path, 0.2, opt)

		if len(got.SampleRMSE) != len(want.SampleRMSE) {
			t.Fatalf("ranks=%d: trace lengths differ", ranks)
		}
		for i := range want.SampleRMSE {
			if got.SampleRMSE[i] != want.SampleRMSE[i] || got.AvgRMSE[i] != want.AvgRMSE[i] {
				t.Fatalf("ranks=%d iter %d: RMSE (%v, %v) != full-load (%v, %v)",
					ranks, i, got.SampleRMSE[i], got.AvgRMSE[i], want.SampleRMSE[i], want.AvgRMSE[i])
			}
		}
		for i := range want.U.Data {
			if got.U.Data[i] != want.U.Data[i] {
				t.Fatalf("ranks=%d: U[%d] differs", ranks, i)
			}
		}
		for i := range want.V.Data {
			if got.V.Data[i] != want.V.Data[i] {
				t.Fatalf("ranks=%d: V[%d] differs", ranks, i)
			}
		}
	}
}

// TestShardNativeReadsOnlyOwnShards is the acceptance counter: each
// rank's mapped reader must have touched exactly the shards covering
// its own row range — not the whole file.
func TestShardNativeReadsOnlyOwnShards(t *testing.T) {
	path, full := writeShardedFile(t, 23, 400)
	const ranks = 4
	probs := loadShards(t, path, 0.2, 23, Options{Ranks: ranks})

	mp, err := sparse.OpenBinary(path)
	if err != nil {
		t.Fatal(err)
	}
	defer mp.Close()
	totalShards := mp.Shards()
	if totalShards < 2*ranks {
		t.Fatalf("test needs several shards per rank, got %d for %d ranks", totalShards, ranks)
	}
	panels := partition.PanelsOf(mp)

	var touchedSum int64
	for r, sp := range probs {
		rowLo, rowHi := sp.Plan.RowBounds[r], sp.Plan.RowBounds[r+1]
		ownShards := 0
		var ownBytes int64
		for s := range panels.Lo {
			if panels.Lo[s] >= rowLo && panels.Hi[s] <= rowHi {
				ownShards++
				ownBytes += int64(panels.Hi[s]-panels.Lo[s]+1)*8 + panels.NNZ[s]*12
			}
		}
		if sp.Shards != ownShards {
			t.Errorf("rank %d decoded %d shards, owns %d", r, sp.Shards, ownShards)
		}
		if sp.Load.ShardsTouched != int64(ownShards) {
			t.Errorf("rank %d touched %d shards, owns %d (of %d total)", r, sp.Load.ShardsTouched, ownShards, totalShards)
		}
		if sp.Load.PayloadBytesTouched != ownBytes {
			t.Errorf("rank %d touched %d payload bytes, own shards hold %d", r, sp.Load.PayloadBytesTouched, ownBytes)
		}
		touchedSum += sp.Load.ShardsTouched
	}
	if touchedSum != int64(totalShards) {
		t.Errorf("ranks together touched %d shards, file has %d", touchedSum, totalShards)
	}

	// And the reassembled per-rank slices must equal the global split's.
	train, test := sparse.SplitTrainTest(full, 0.2, 23)
	rt := train.Transpose()
	for r, sp := range probs {
		if len(sp.Test) != len(test) {
			t.Fatalf("rank %d has %d test entries, want %d", r, len(sp.Test), len(test))
		}
		for i := range test {
			if sp.Test[i] != test[i] {
				t.Fatalf("rank %d test entry %d differs", r, i)
			}
		}
		rowLo, rowHi := sp.Plan.RowBounds[r], sp.Plan.RowBounds[r+1]
		for i := rowLo; i < rowHi; i++ {
			gc, gv := sp.Plan.R.Row(i)
			wc, wv := train.Row(i)
			if len(gc) != len(wc) {
				t.Fatalf("rank %d train row %d: %d entries, want %d", r, i, len(gc), len(wc))
			}
			for k := range gc {
				if gc[k] != wc[k] || gv[k] != wv[k] {
					t.Fatalf("rank %d train row %d entry %d differs", r, i, k)
				}
			}
		}
		colLo, colHi := sp.Plan.ColBounds[r], sp.Plan.ColBounds[r+1]
		for j := colLo; j < colHi; j++ {
			gc, gv := sp.RT.Row(j)
			wc, wv := rt.Row(j)
			if len(gc) != len(wc) {
				t.Fatalf("rank %d rt col %d: %d raters, want %d", r, j, len(gc), len(wc))
			}
			for k := range gc {
				if gc[k] != wc[k] || gv[k] != wv[k] {
					t.Fatalf("rank %d rt col %d rater %d differs", r, j, k)
				}
			}
		}
	}
}

// TestShardNativeThreadedRanksBitIdentical: the shard-native path must
// compose with per-rank thread pools like the full path does.
func TestShardNativeThreadedRanksBitIdentical(t *testing.T) {
	path, _ := writeShardedFile(t, 29, 700)
	cfg := testConfig()
	base := runShardNative(t, cfg, path, 0.2, Options{Ranks: 2})
	threaded := runShardNative(t, cfg, path, 0.2, Options{Ranks: 2, ThreadsPerRank: 3})
	for i := range base.AvgRMSE {
		if base.AvgRMSE[i] != threaded.AvgRMSE[i] {
			t.Fatalf("iter %d: threaded shard-native diverges", i)
		}
	}
}

// TestLoadShardsRejectsReorder: reordering needs the full matrix.
func TestLoadShardsRejectsReorder(t *testing.T) {
	path, _ := writeShardedFile(t, 31, 500)
	fab := comm.NewFabric(1)
	defer fab.Close()
	if _, err := LoadShards(fab.Comms()[0], openShards(t, path), 0.2, 31, Options{Ranks: 1, Reorder: true}); err == nil {
		t.Fatal("reorder accepted by the shard-native loader")
	}
}

// TestLoadShardsValidatesPeerBlobs plays rank 1 of a two-rank load by
// hand and sends rank 0 one damaged startup blob — in the test-set
// allgather, or as its column-ghost message. The decoded entries index
// rank 0's arrays, so each case must come back from LoadShards as an
// error naming rank 1; at the parent a stray column panicked the
// rank and everything else was silently taken.
func TestLoadShardsValidatesPeerBlobs(t *testing.T) {
	path, full := writeShardedFile(t, 33, 500)
	mp, err := sparse.OpenBinary(path)
	if err != nil {
		t.Fatal(err)
	}
	defer mp.Close()
	opt := Options{Ranks: 2}
	theirs := partition.AssignPanels(partition.PanelsOf(mp), 2, partition.CostModel{})[1] // rank 1's first row
	n := full.N
	blob := func(es ...sparse.Entry) []byte { return encodeEntries(es) }
	ok := sparse.Entry{Row: int32(theirs), Col: 0, Val: 1}
	with := func(f func(e *sparse.Entry)) sparse.Entry {
		e := ok
		f(&e)
		return e
	}

	for _, tc := range []struct {
		name, want string
		ghost      bool
		blob       []byte
	}{
		{"test set: partial record", "whole number", false, append(blob(ok), 1, 2, 3)},
		{"test set: NaN", "non-finite", false, blob(with(func(e *sparse.Entry) { e.Val = math.NaN() }))},
		{"test set: a row of ours", "outside the sender's rows", false, blob(ok, with(func(e *sparse.Entry) { e.Row = 0 }))},
		{"test set: column past the matrix", "columns", false, blob(with(func(e *sparse.Entry) { e.Col = int32(n) }))},
		{"ghosts: partial record", "whole number", true, blob(ok)[:sparse.EntryRecordLen-1]},
		{"ghosts: infinity", "non-finite", true, blob(with(func(e *sparse.Entry) { e.Val = math.Inf(1) }))},
		{"ghosts: a row past the matrix", "outside the sender's rows", true, blob(with(func(e *sparse.Entry) { e.Row = int32(full.M) }))},
		{"ghosts: column index 0xFFFFFFFF", "columns", true, blob(with(func(e *sparse.Entry) { e.Col = -1 }))},
		{"ghosts: a column rank 1 owns itself", "rank 1 owns", true, blob(ok, with(func(e *sparse.Entry) { e.Col = int32(n - 1) }))},
	} {
		t.Run(tc.name, func(t *testing.T) {
			fab := comm.NewFabric(2)
			defer fab.Close()
			comms := fab.Comms()
			peerDone := make(chan struct{})
			go func() {
				defer close(peerDone)
				peer := comms[1]
				if !tc.ghost {
					peer.AllgatherE(tc.blob)
					return
				}
				peer.AllgatherE(nil)                          // an empty test set
				peer.AllreduceSumOrderedE(make([]float64, n)) // no training ratings
				peer.SendE(0, colGhostTag, tc.blob)
			}()
			_, err := LoadShards(comms[0], mp, 0.2, 33, opt)
			comms[1].Fail(errors.New("test over"))
			<-peerDone
			if err == nil || !strings.Contains(err.Error(), "from rank 1") || !strings.Contains(err.Error(), tc.want) {
				t.Fatalf("LoadShards returned %v, want an error from rank 1 mentioning %q", err, tc.want)
			}
		})
	}
}
