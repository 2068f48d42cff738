package dist

import (
	"bytes"
	"errors"
	"math"
	"math/rand"
	"os"
	"path/filepath"
	"slices"
	"strings"
	"sync"
	"testing"

	"repro/internal/comm"
	"repro/internal/core"
	"repro/internal/datagen"
	"repro/internal/la"
	"repro/internal/partition"
	"repro/internal/sparse"
)

// shard_test.go pins the data plane: a cluster whose ranks load only
// their own .bcsr shards (plus the startup exchanges) must sample the
// chain of the sequential sampler grouped by the same bounds
// (sequential@dist-groups), must actually touch only its own shards
// while doing it, and an in-memory problem's one-row-per-shard image
// must yield partition.Build's plan.

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

// seqAtPanelBounds runs the sequential sampler on the global split of
// path's matrix, its moments grouped by the panel-aligned bounds a
// cluster of ranks derives from the file (sequential@dist-groups).
func seqAtPanelBounds(t *testing.T, cfg core.Config, path string, testFrac float64, seed uint64, ranks int) *core.Result {
	t.Helper()
	mp := openShards(t, path)
	full, err := mp.Matrix()
	if err != nil {
		t.Fatal(err)
	}
	prob := core.NewProblem(sparse.SplitTrainTest(full, testFrac, seed))
	plan := &partition.Plan{
		RowBounds: partition.AssignPanels(partition.PanelsOf(mp), ranks),
		ColBounds: partition.Build(prob.R, ranks).ColBounds,
	}
	cfg.MomentGroupsU, cfg.MomentGroupsV = MomentGroupsOf(plan)
	s, err := core.NewSampler(cfg, prob)
	if err != nil {
		t.Fatal(err)
	}
	return s.Run()
}

// runShardNative runs the virtual cluster with every rank loading only
// its own shards of path.
func runShardNative(t *testing.T, cfg core.Config, path string, testFrac float64, opt Options) *core.Result {
	t.Helper()
	return runOnFabric(t, "shard-native", cfg, Source{Mapped: openShards(t, path), TestFrac: testFrac}, opt)
}

// loadShards runs the collective load alone and returns each rank's
// problem. open is called once per rank, so a source that maps its own
// file keeps per-rank touch counters.
func loadShards(t *testing.T, open func() Source, seed uint64, opt Options) []*ShardProblem {
	t.Helper()
	opt = opt.normalized()
	fab := comm.NewFabric(opt.Ranks)
	defer fab.Close()
	probs := make([]*ShardProblem, opt.Ranks)
	errs := make([]error, opt.Ranks)
	var wg sync.WaitGroup
	for r, c := range fab.Comms() {
		wg.Add(1)
		go func(r int, c *comm.Comm, src Source) {
			defer wg.Done()
			probs[r], errs[r] = LoadShards(c, src, seed, opt)
		}(r, c, open())
	}
	wg.Wait()
	for r, err := range errs {
		if err != nil {
			t.Fatalf("shard load rank %d: %v", r, err)
		}
	}
	return probs
}

// TestShardNativeChainMatchesSequentialAtDistGroups: a cluster loading
// its own shards of a file samples sequential@dist-groups' chain — the
// factors and kernel counts bit for bit, the trace up to per-rank
// evaluation order — at every rank count and with threaded ranks.
func TestShardNativeChainMatchesSequentialAtDistGroups(t *testing.T) {
	path, _ := writeShardedFile(t, 17, 400) // ~30 shards for Small's 12k ratings
	cfg := testConfig()
	cfg.Seed = 17 // the shard-native split is seeded by the chain's seed
	for _, opt := range []Options{{Ranks: 1}, {Ranks: 2}, {Ranks: 4}, {Ranks: 2, ThreadsPerRank: 2}} {
		want := seqAtPanelBounds(t, cfg, path, 0.2, 17, opt.Ranks)
		got := runShardNative(t, cfg, path, 0.2, opt)
		if la.MaxAbsDiff(got.U, want.U) != 0 || la.MaxAbsDiff(got.V, want.V) != 0 {
			t.Fatalf("%+v: factors differ from sequential@dist-groups", opt)
		}
		if got.KernelCounts != want.KernelCounts {
			t.Fatalf("%+v: kernel counts %v != %v", opt, got.KernelCounts, want.KernelCounts)
		}
		if len(got.AvgRMSE) != len(want.AvgRMSE) {
			t.Fatalf("%+v: trace lengths differ", opt)
		}
		for i := range want.AvgRMSE {
			if math.Abs(got.AvgRMSE[i]-want.AvgRMSE[i]) > 1e-12 || math.Abs(got.SampleRMSE[i]-want.SampleRMSE[i]) > 1e-12 {
				t.Fatalf("%+v iter %d: RMSE (%v, %v) vs sequential@dist-groups (%v, %v)",
					opt, i, got.SampleRMSE[i], got.AvgRMSE[i], want.SampleRMSE[i], want.AvgRMSE[i])
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
	probs := loadShards(t, func() Source { return Source{Mapped: openShards(t, path), TestFrac: 0.2} }, 23, Options{Ranks: ranks})

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
	theirs := partition.AssignPanels(partition.PanelsOf(mp), 2)[1] // rank 1's first row
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
			_, err := LoadShards(comms[0], Source{Mapped: mp, TestFrac: 0.2}, 33, opt)
			comms[1].Fail(errors.New("test over"))
			<-peerDone
			if err == nil || !strings.Contains(err.Error(), "from rank 1") || !strings.Contains(err.Error(), tc.want) {
				t.Fatalf("LoadShards returned %v, want an error from rank 1 mentioning %q", err, tc.want)
			}
		})
	}
}

// randomRatings draws an m×n rating matrix whose first and last rows are
// empty, as is about a third of the others, with row degrees from 0 to
// 2n (duplicates fold), so some rows outweigh many others.
func randomRatings(r *rand.Rand, m, n int) *sparse.CSR {
	coo := sparse.NewCOO(m, n, 0)
	for i := 1; i+1 < m; i++ {
		if r.Intn(3) == 0 {
			continue
		}
		for k := r.Intn(2 * n); k >= 0; k-- {
			coo.Add(i, r.Intn(n), float64(1+r.Intn(5)))
		}
	}
	return coo.ToCSR()
}

// TestSourceOfPlansLikeBuild is the rule RunInProc's chain rests on: over
// SourceOf's one-row-per-shard image, the row bounds AssignPanels
// derives from the shard table and the column bounds LoadShards derives
// from the reduced degrees are partition.Build's, whatever the empty
// rows, at every rank count. WriteBinarySharded's panels are not a
// substitute: they fold an empty row into the next row's panel, so a
// boundary Build puts after the empty row cannot be drawn.
func TestSourceOfPlansLikeBuild(t *testing.T) {
	r := rand.New(rand.NewSource(71))
	var mats []*sparse.CSR
	mats = append(mats, sparse.NewCOO(0, 3, 0).ToCSR())
	for trial := 0; trial < 12; trial++ {
		mats = append(mats, randomRatings(r, 1+r.Intn(40), 1+r.Intn(12)))
	}
	for mi, a := range mats {
		src := sourceOf(t, core.NewProblem(a, nil))
		for ranks := 1; ranks <= 5; ranks++ {
			want := partition.Build(a, ranks)
			if rows := partition.AssignPanels(partition.PanelsOf(src.Mapped), ranks); !slices.Equal(rows, want.RowBounds) {
				t.Fatalf("matrix %d (%dx%d), %d ranks: image row bounds %v, Build's %v", mi, a.M, a.N, ranks, rows, want.RowBounds)
			}
			for rank, sp := range loadShards(t, func() Source { return src }, 1, Options{Ranks: ranks}) {
				if !slices.Equal(sp.Plan.RowBounds, want.RowBounds) || !slices.Equal(sp.Plan.ColBounds, want.ColBounds) {
					t.Fatalf("matrix %d, %d ranks, rank %d: LoadShards bounds %v / %v, Build's %v / %v",
						mi, ranks, rank, sp.Plan.RowBounds, sp.Plan.ColBounds, want.RowBounds, want.ColBounds)
				}
			}
		}
	}

	// Rows of 10, 0, 0 and 10 ratings: Build cuts two ranks after row 1,
	// where the one-entry panels of WriteBinarySharded have no boundary.
	coo := sparse.NewCOO(4, 10, 20)
	for j := 0; j < 10; j++ {
		coo.Add(0, j, 1)
		coo.Add(3, j, 1)
	}
	a := coo.ToCSR()
	var buf bytes.Buffer
	if err := sparse.WriteBinarySharded(&buf, a, 1); err != nil {
		t.Fatal(err)
	}
	mp, err := sparse.OpenBinaryBytes(buf.Bytes())
	if err != nil {
		t.Fatal(err)
	}
	want := partition.Build(a, 2).RowBounds
	if got := partition.AssignPanels(partition.PanelsOf(mp), 2); slices.Equal(got, want) {
		t.Fatalf("one-entry panels gave Build's bounds %v; the counter-example no longer shows why SourceOf writes a shard per row", want)
	}
	if got := partition.AssignPanels(partition.PanelsOf(sourceOf(t, core.NewProblem(a, nil)).Mapped), 2); !slices.Equal(got, want) {
		t.Fatalf("one-row shards gave %v, Build %v", got, want)
	}
}
