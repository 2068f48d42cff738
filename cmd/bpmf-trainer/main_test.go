package main

import (
	"bytes"
	"math/rand"
	"os"
	"path/filepath"
	"runtime"
	"strings"
	"testing"

	"repro/internal/config"
	"repro/internal/core"
	"repro/internal/feed"
	"repro/internal/serve"
	"repro/internal/sparse"
)

// trainerConfig is a tiny-benchmark loop configuration rooted in dir.
func trainerConfig(dir string) config.Trainer {
	cfg := config.DefaultTrainer()
	cfg.Data = config.Data{Synthetic: "tiny", Scale: 1, TestFrac: 0.2}
	cfg.Sampler = config.Sampler{K: 6, Alpha: 2, Iters: 6, Burnin: 2, Seed: 21}
	cfg.Ckpt = filepath.Join(dir, "base.ckpt")
	cfg.Feed.Log = filepath.Join(dir, "ratings.feedlog")
	cfg.Feed.DeltaDir = filepath.Join(dir, "deltas")
	cfg.Publish.Ckpt = filepath.Join(dir, "model.ckpt")
	cfg.Publish.AddIters = 3
	cfg.Publish.Cycles = 1
	return cfg
}

// coreConfig is runLoop's sampler configuration at a chain length.
func coreConfig(cfg config.Trainer, iters int) core.Config {
	cc := cfg.Sampler.Core()
	cc.Iters = iters
	return cc
}

// writeBaseCheckpoint trains the base chain to cfg.Sampler.Iters and
// writes its checkpoint to cfg.Ckpt, returning the checkpoint and the
// base problem.
func writeBaseCheckpoint(t *testing.T, cfg config.Trainer) (*core.Checkpoint, *sparse.CSR, []sparse.Entry) {
	t.Helper()
	train, test, err := cfg.Data.Split(cfg.Sampler.Seed)
	if err != nil {
		t.Fatal(err)
	}
	s, err := core.NewSampler(coreConfig(cfg, cfg.Sampler.Iters), core.NewProblem(train, test))
	if err != nil {
		t.Fatal(err)
	}
	for it := 0; it < cfg.Sampler.Iters; it++ {
		s.Step(it)
	}
	ckpt := s.Checkpoint()
	if err := core.WriteCheckpointFile(cfg.Ckpt, ckpt.Write); err != nil {
		t.Fatal(err)
	}
	return ckpt, train, test
}

func appendRatings(t *testing.T, cfg config.Trainer, items int, entries []sparse.Entry) {
	t.Helper()
	l, err := feed.OpenLog(cfg.Feed.Log, items)
	if err != nil {
		t.Fatal(err)
	}
	if err := l.Append(entries); err != nil {
		t.Fatal(err)
	}
	if err := l.Close(); err != nil {
		t.Fatal(err)
	}
}

func readFile(t *testing.T, path string) []byte {
	t.Helper()
	b, err := os.ReadFile(path)
	if err != nil {
		t.Fatal(err)
	}
	return b
}

// TestLoopDifferentialOneShot is the acceptance differential: one full
// trainer cycle — log append, compaction through the spill/sort/dedup
// converter, delta merge, warm-start with user growth, publish — must
// produce the exact bytes of a direct in-memory resume over the
// equivalently merged dataset. The log/shard plumbing may not perturb
// the chain by one bit.
func TestLoopDifferentialOneShot(t *testing.T) {
	cfg := trainerConfig(t.TempDir())
	base, train, test := writeBaseCheckpoint(t, cfg)

	// New observations: two unseen users plus a re-rate of a trained one.
	m := train.M
	cols0, _ := train.Row(0)
	entries := []sparse.Entry{
		{Row: int32(m), Col: 3, Val: 4.5},
		{Row: int32(m), Col: 7, Val: 2.0},
		{Row: int32(m + 1), Col: 1, Val: 5.0},
		{Row: 0, Col: cols0[0], Val: 1.5},
	}
	appendRatings(t, cfg, train.N, entries)

	if err := runLoop(cfg, t.Logf); err != nil {
		t.Fatal(err)
	}

	// Reference: the same merge done directly in memory, resumed in one
	// shot to the same total iteration count.
	coo := sparse.NewCOO(m+2, train.N, len(entries))
	for _, e := range entries {
		coo.Add(int(e.Row), int(e.Col), e.Val)
	}
	merged, err := sparse.MergeLastWins(train, coo.ToCSR())
	if err != nil {
		t.Fatal(err)
	}
	s, err := core.ResumeSamplerGrown(
		coreConfig(cfg, cfg.Sampler.Iters+cfg.Publish.AddIters),
		core.NewProblem(merged, test), base)
	if err != nil {
		t.Fatal(err)
	}
	s.RunFrom(base.NextIter)
	var want bytes.Buffer
	if err := s.Checkpoint().Write(&want); err != nil {
		t.Fatal(err)
	}
	if !bytes.Equal(readFile(t, cfg.Publish.Ckpt), want.Bytes()) {
		t.Fatal("published checkpoint differs from the one-shot merged-dataset resume")
	}

	// The drained log is empty; the delta shard persists for recovery.
	l, err := feed.OpenLog(cfg.Feed.Log, train.N)
	if err != nil {
		t.Fatal(err)
	}
	defer l.Close()
	if l.Records() != 0 {
		t.Fatalf("log holds %d records after compaction, want 0", l.Records())
	}
	if _, err := os.Stat(filepath.Join(cfg.Feed.DeltaDir, deltaName(0))); err != nil {
		t.Fatalf("delta shard missing after the cycle: %v", err)
	}
}

// TestLoopRestartEqualsContinuousRun: two single-cycle trainer runs —
// the second warm-starting from the published checkpoint and replaying
// the persisted delta shard, exactly the crash-restart path — must
// reproduce the direct in-memory double resume bit for bit. The restart
// path may not fork the chain.
func TestLoopRestartEqualsContinuousRun(t *testing.T) {
	cfg := trainerConfig(t.TempDir())
	base, train, test := writeBaseCheckpoint(t, cfg)

	m := train.M
	cols0, _ := train.Row(1)
	batch1 := []sparse.Entry{{Row: int32(m), Col: 2, Val: 3.0}, {Row: 1, Col: cols0[0], Val: 4.0}}
	batch2 := []sparse.Entry{{Row: int32(m), Col: 2, Val: 5.0}, {Row: int32(m + 1), Col: 6, Val: 2.5}}

	// Pipeline: cycle, restart, cycle.
	appendRatings(t, cfg, train.N, batch1)
	if err := runLoop(cfg, t.Logf); err != nil {
		t.Fatal(err)
	}
	appendRatings(t, cfg, train.N, batch2)
	if err := runLoop(cfg, t.Logf); err != nil {
		t.Fatal(err)
	}

	// Reference: the same two merges and resumes, purely in memory.
	coo1 := sparse.NewCOO(m+1, train.N, len(batch1))
	for _, e := range batch1 {
		coo1.Add(int(e.Row), int(e.Col), e.Val)
	}
	merged1, err := sparse.MergeLastWins(train, coo1.ToCSR())
	if err != nil {
		t.Fatal(err)
	}
	s1, err := core.ResumeSamplerGrown(coreConfig(cfg, cfg.Sampler.Iters+cfg.Publish.AddIters),
		core.NewProblem(merged1, test), base)
	if err != nil {
		t.Fatal(err)
	}
	s1.RunFrom(base.NextIter)
	mid := s1.Checkpoint()

	coo2 := sparse.NewCOO(m+2, train.N, len(batch2))
	for _, e := range batch2 {
		coo2.Add(int(e.Row), int(e.Col), e.Val)
	}
	merged2, err := sparse.MergeLastWins(merged1, coo2.ToCSR())
	if err != nil {
		t.Fatal(err)
	}
	s2, err := core.ResumeSamplerGrown(coreConfig(cfg, mid.NextIter+cfg.Publish.AddIters),
		core.NewProblem(merged2, test), mid)
	if err != nil {
		t.Fatal(err)
	}
	s2.RunFrom(mid.NextIter)
	var want bytes.Buffer
	if err := s2.Checkpoint().Write(&want); err != nil {
		t.Fatal(err)
	}

	if !bytes.Equal(readFile(t, cfg.Publish.Ckpt), want.Bytes()) {
		t.Fatal("restarted pipeline diverged from the continuous double-resume reference")
	}
}

// TestLoopPublishesSameBytesAtAnyGOMAXPROCS: a cycle samples on
// runtime.GOMAXPROCS work-stealing workers, and every engine samples the
// sequential chain — so the same log over the same base checkpoint
// publishes the same bytes on 1, 2 or 4 workers, and those are the
// bytes of the executor-less (sequential) sampler resumed over the
// merged matrix. Two cycles: the first folds in new users, the second
// extends the chain over an empty log.
func TestLoopPublishesSameBytesAtAnyGOMAXPROCS(t *testing.T) {
	defer runtime.GOMAXPROCS(runtime.GOMAXPROCS(0))

	var base *core.Checkpoint
	var train *sparse.CSR
	var test, entries []sparse.Entry
	var cfg config.Trainer
	published := map[int][]byte{}
	for _, procs := range []int{1, 2, 4} {
		runtime.GOMAXPROCS(procs)
		cfg = trainerConfig(t.TempDir())
		cfg.Publish.Cycles = 2
		base, train, test = writeBaseCheckpoint(t, cfg)
		m := train.M
		cols0, _ := train.Row(0)
		entries = []sparse.Entry{
			{Row: int32(m), Col: 3, Val: 4.5},
			{Row: int32(m), Col: 7, Val: 2.0},
			{Row: int32(m + 2), Col: 1, Val: 5.0}, // leaves user m+1 without a rating
			{Row: 0, Col: cols0[0], Val: 1.5},
			{Row: 2, Col: 5, Val: 3.0},
		}
		appendRatings(t, cfg, train.N, entries)
		if err := runLoop(cfg, t.Logf); err != nil {
			t.Fatalf("GOMAXPROCS=%d: %v", procs, err)
		}
		published[procs] = readFile(t, cfg.Publish.Ckpt)
	}

	coo := sparse.NewCOO(train.M+3, train.N, len(entries))
	for _, e := range entries {
		coo.Add(int(e.Row), int(e.Col), e.Val)
	}
	merged, err := sparse.MergeLastWins(train, coo.ToCSR())
	if err != nil {
		t.Fatal(err)
	}
	s, err := core.ResumeSamplerGrown(
		coreConfig(cfg, cfg.Sampler.Iters+2*cfg.Publish.AddIters),
		core.NewProblem(merged, test), base)
	if err != nil {
		t.Fatal(err)
	}
	s.RunFrom(base.NextIter)
	var want bytes.Buffer
	if err := s.Checkpoint().Write(&want); err != nil {
		t.Fatal(err)
	}
	for procs, got := range published {
		if !bytes.Equal(got, want.Bytes()) {
			t.Errorf("GOMAXPROCS=%d: published checkpoint differs from the sequential resume over the merged matrix", procs)
		}
	}
}

// TestReplayDeltasEqualsSuccessiveOverlay: folding the shards among
// themselves and overlaying the base once builds the matrix (and the
// next shard number) of overlaying them one by one, for shards that
// share cells, rewrite an earlier shard's value and grow the row count;
// a corrupt or wrong-width shard fails with its path.
func TestReplayDeltasEqualsSuccessiveOverlay(t *testing.T) {
	const n = 9
	r := rand.New(rand.NewSource(5))
	// randomShard sets cell (0, 0) to mark — the cell every shard of a
	// sequence rewrites — and nnz random cells elsewhere, dense enough over
	// 9 columns that shards collide with the base and with each other.
	randomShard := func(m, nnz int, mark float64) *sparse.CSR {
		coo := sparse.NewCOO(m, n, nnz+1)
		coo.Add(0, 0, mark)
		for k := 0; k < nnz; k++ {
			coo.Add(r.Intn(m), 1+r.Intn(n-1), float64(r.Intn(50)))
		}
		return coo.ToCSR()
	}
	writeShard := func(dir string, i int, a *sparse.CSR) string {
		path := filepath.Join(dir, deltaName(i))
		var buf bytes.Buffer
		if err := sparse.WriteBinary(&buf, a); err != nil {
			t.Fatal(err)
		}
		if err := os.WriteFile(path, buf.Bytes(), 0o644); err != nil {
			t.Fatal(err)
		}
		return path
	}
	base := randomShard(12, 60, 100)

	for _, k := range []int{0, 1, 2, 7} {
		dir := t.TempDir()
		want := base
		for i := 0; i < k; i++ {
			d := randomShard(12+i/2*2, 25, -float64(i+1)) // every other shard adds two users
			writeShard(dir, i, d)
			var err error
			if want, err = sparse.MergeLastWins(want, d); err != nil {
				t.Fatal(err)
			}
		}
		got, next, err := replayDeltas(base, dir, t.Logf)
		if err != nil {
			t.Fatalf("%d shards: %v", k, err)
		}
		if !sparse.Equal(got, want) {
			t.Fatalf("%d shards: one-pass replay differs from the shard-by-shard overlay", k)
		}
		if next != k {
			t.Fatalf("%d shards: next shard number %d, want %d", k, next, k)
		}
	}

	// A gap in the numbering continues after the highest shard.
	dir := t.TempDir()
	writeShard(dir, 0, randomShard(12, 5, 1))
	writeShard(dir, 4, randomShard(12, 5, 1))
	if _, next, err := replayDeltas(base, dir, t.Logf); err != nil || next != 5 {
		t.Fatalf("shards 0 and 4: next = %d, err = %v; want 5", next, err)
	}

	// A name deltaName did not produce has no place in the replay order:
	// it is refused by name, never numbered around. (At the parent the
	// first two set next = 2 beside shard 7.)
	for _, bad := range []string{
		"delta-12.bcsr", "delta-x.bcsr", "delta-0000003.bcsr", "delta-1000000.bcsr",
		"delta--00001.bcsr", "delta-+00001.bcsr", "delta-000001b.bcsr",
	} {
		dir := t.TempDir()
		path := filepath.Join(dir, bad)
		if err := os.Rename(writeShard(dir, 7, randomShard(12, 5, 1)), path); err != nil {
			t.Fatal(err)
		}
		writeShard(dir, 7, randomShard(12, 5, 1))
		if _, next, err := replayDeltas(base, dir, t.Logf); err == nil || !strings.Contains(err.Error(), path) {
			t.Fatalf("%s beside shard 7: next = %d, err = %v; want an error naming it", bad, next, err)
		}
	}

	// Bad shards are named.
	wide := sparse.NewCOO(12, n+1, 1)
	wide.Add(0, n, 1)
	for name, write := range map[string]func(dir string) string{
		"wrong width": func(dir string) string { return writeShard(dir, 1, wide.ToCSR()) },
		"corrupt": func(dir string) string {
			path := writeShard(dir, 1, randomShard(12, 20, 1))
			b := readFile(t, path)
			if err := os.WriteFile(path, b[:len(b)-5], 0o644); err != nil {
				t.Fatal(err)
			}
			return path
		},
	} {
		dir := t.TempDir()
		writeShard(dir, 0, randomShard(12, 20, 1))
		bad := write(dir)
		writeShard(dir, 2, randomShard(12, 20, 1))
		if _, _, err := replayDeltas(base, dir, t.Logf); err == nil || !strings.Contains(err.Error(), bad) {
			t.Fatalf("%s shard: err = %v, want one naming %s", name, err, bad)
		}
	}
}

// TestLoopRefusesMismatchedLineage: a pin-seed that does not match the
// chain makes the publish guard refuse before a byte lands — the loop
// errors out and the watched path is untouched.
func TestLoopRefusesMismatchedLineage(t *testing.T) {
	cfg := trainerConfig(t.TempDir())
	writeBaseCheckpoint(t, cfg)
	cfg.Publish.PinSeed = cfg.Sampler.Seed + 1

	err := runLoop(cfg, t.Logf)
	if err == nil || !strings.Contains(err.Error(), "refusing to publish") {
		t.Fatalf("mismatched lineage accepted: %v", err)
	}
	if _, statErr := os.Stat(cfg.Publish.Ckpt); !os.IsNotExist(statErr) {
		t.Fatal("refused publish touched the watched path")
	}
}

// TestLoopServeRoundTrip: after a cycle, a bpmf-serve Server watching
// the published path picks the new chain up via MaybeReload (no
// restart) and the lineage pin accepts it.
func TestLoopServeRoundTrip(t *testing.T) {
	cfg := trainerConfig(t.TempDir())
	_, train, _ := writeBaseCheckpoint(t, cfg)

	// Serve the base checkpoint under the trainer's lineage.
	if err := os.Link(cfg.Ckpt, cfg.Publish.Ckpt); err != nil {
		// Copy if the filesystem refuses links.
		b := readFile(t, cfg.Ckpt)
		if err := os.WriteFile(cfg.Publish.Ckpt, b, 0o644); err != nil {
			t.Fatal(err)
		}
	}
	srv, err := serve.Open(cfg.Publish.Ckpt, serve.Options{
		Alpha:   cfg.Sampler.Alpha,
		Lineage: &serve.Lineage{Seed: cfg.Sampler.Seed, K: cfg.Sampler.K},
	})
	if err != nil {
		t.Fatal(err)
	}
	before := srv.Model()

	m := train.M
	appendRatings(t, cfg, train.N, []sparse.Entry{{Row: int32(m), Col: 4, Val: 3.5}})
	if err := runLoop(cfg, t.Logf); err != nil {
		t.Fatal(err)
	}

	swapped, err := srv.MaybeReload()
	if err != nil {
		t.Fatal(err)
	}
	if !swapped || srv.Model() == before {
		t.Fatal("published cycle not picked up by the watcher path")
	}
	if got, want := srv.Model().NumUsers(), m+1; got != want {
		t.Fatalf("served model has %d users, want %d (the folded-in new user)", got, want)
	}
}

// TestIngest: stdin lines append durably (comments and blanks skipped),
// malformed lines are rejected with their line number, and appends
// accumulate across invocations.
func TestIngest(t *testing.T) {
	dir := t.TempDir()
	cfg := config.DefaultTrainer()
	cfg.Feed.Log = filepath.Join(dir, "ratings.feedlog")
	cfg.Feed.Items = 25
	cfg.Ingest = true

	n, err := runIngest(cfg, strings.NewReader("0 1 4.5\n# comment\n\n41 3 2.0  # trailing\n"))
	if err != nil {
		t.Fatal(err)
	}
	if n != 2 {
		t.Fatalf("appended %d ratings, want 2", n)
	}
	n, err = runIngest(cfg, strings.NewReader("7 24 1.0\n"))
	if err != nil || n != 1 {
		t.Fatalf("second ingest: n=%d err=%v", n, err)
	}

	l, err := feed.OpenLog(cfg.Feed.Log, 25)
	if err != nil {
		t.Fatal(err)
	}
	defer l.Close()
	var got []sparse.Entry
	if err := l.Scan(func(e sparse.Entry) error { got = append(got, e); return nil }); err != nil {
		t.Fatal(err)
	}
	want := []sparse.Entry{{Row: 0, Col: 1, Val: 4.5}, {Row: 41, Col: 3, Val: 2.0}, {Row: 7, Col: 24, Val: 1.0}}
	if len(got) != len(want) {
		t.Fatalf("log holds %d records, want %d", len(got), len(want))
	}
	for i := range want {
		if got[i] != want[i] {
			t.Fatalf("record %d = %+v, want %+v", i, got[i], want[i])
		}
	}

	if _, err := runIngest(cfg, strings.NewReader("0 1\n")); err == nil || !strings.Contains(err.Error(), "line 1") {
		t.Fatalf("malformed line accepted: %v", err)
	}
	if _, err := runIngest(cfg, strings.NewReader("0 999 1.0\n")); err == nil {
		t.Fatal("out-of-catalog item accepted")
	}
	bad := cfg
	bad.Feed.Items = 0
	if _, err := runIngest(bad, strings.NewReader("0 1 1.0\n")); err == nil || !strings.Contains(err.Error(), "-items") {
		t.Fatalf("ingest without -items accepted: %v", err)
	}
}
