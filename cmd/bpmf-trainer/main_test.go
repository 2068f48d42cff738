package main

import (
	"bytes"
	"fmt"
	"math/rand"
	"os"
	"path/filepath"
	"runtime"
	"strings"
	"testing"
	"time"

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

// TestReplayDeltasEqualsSuccessiveOverlay: the replayed shards, merged
// over the base in one call, build the matrix (and the next shard number)
// of overlaying them one by one, for shards that share cells, rewrite an
// earlier shard's value and grow the row count; a corrupt or
// wrong-width shard fails with its path.
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
		if err := sparse.WriteBinarySharded(&buf, a, sparse.DefaultShardNNZ); err != nil {
			t.Fatal(err)
		}
		if err := os.WriteFile(path, buf.Bytes(), 0o644); err != nil {
			t.Fatal(err)
		}
		return path
	}
	base := randomShard(12, 60, 100)

	for _, k := range []int{0, 1, 2, 7, 21} {
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
		shards, next, err := replayDeltas(dir, n)
		if err != nil {
			t.Fatalf("%d shards: %v", k, err)
		}
		if len(shards) != k {
			t.Fatalf("%d shards: replay returned %d", k, len(shards))
		}
		got, err := sparse.MergeLastWins(base, shards...)
		if err != nil {
			t.Fatal(err)
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
	if _, next, err := replayDeltas(dir, n); err != nil || next != 5 {
		t.Fatalf("shards 0 and 4: next = %d, err = %v; want 5", next, err)
	}

	// A name deltaName did not produce has no place in the replay order:
	// it is refused by name, never numbered around. (At the parent the
	// first two set next = 2 beside shard 7.)
	for _, bad := range []string{
		"delta-12.bcsr", "delta-x.bcsr", "delta-0000003.bcsr", "delta-01000000.bcsr",
		"delta--00001.bcsr", "delta-+00001.bcsr", "delta-000001b.bcsr",
		"delta-99999999999999999999.bcsr",
	} {
		dir := t.TempDir()
		path := filepath.Join(dir, bad)
		if err := os.Rename(writeShard(dir, 7, randomShard(12, 5, 1)), path); err != nil {
			t.Fatal(err)
		}
		writeShard(dir, 7, randomShard(12, 5, 1))
		if _, next, err := replayDeltas(dir, n); err == nil || !strings.Contains(err.Error(), path) {
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
		if _, _, err := replayDeltas(dir, n); err == nil || !strings.Contains(err.Error(), bad) {
			t.Fatalf("%s shard: err = %v, want one naming %s", name, err, bad)
		}
	}
}

// TestLoopReplayPublishesShardByShardBytes: a trainer started beside 21
// delta shards from earlier runs and a rating log merges the base, the
// shards and the log's new shard in its first cycle, in one call, and
// publishes the bytes of a resume over the matrix built shard by shard —
// each shard overlaid on the last result with its own MergeLastWins. The
// shards collide with the base and with each other and add users; the
// log re-rates cells and writes no user past them, so its shard is as
// tall as the matrix with the replayed shards merged.
func TestLoopReplayPublishesShardByShardBytes(t *testing.T) {
	cfg := trainerConfig(t.TempDir())
	base, train, test := writeBaseCheckpoint(t, cfg)
	if err := os.MkdirAll(cfg.Feed.DeltaDir, 0o755); err != nil {
		t.Fatal(err)
	}
	r := rand.New(rand.NewSource(21))
	want := train
	for i := 0; i < 21; i++ {
		coo := sparse.NewCOO(train.M+i/3, train.N, 12)
		for k := 0; k < 12; k++ {
			coo.Add(r.Intn(coo.M), r.Intn(coo.N), float64(1+r.Intn(5)))
		}
		d := coo.ToCSR()
		var buf bytes.Buffer
		if err := sparse.WriteBinarySharded(&buf, d, sparse.DefaultShardNNZ); err != nil {
			t.Fatal(err)
		}
		if err := os.WriteFile(filepath.Join(cfg.Feed.DeltaDir, deltaName(i)), buf.Bytes(), 0o644); err != nil {
			t.Fatal(err)
		}
		var err error
		if want, err = sparse.MergeLastWins(want, d); err != nil {
			t.Fatal(err)
		}
	}
	entries := []sparse.Entry{{Row: 1, Col: 2, Val: 4.5}, {Row: 0, Col: 5, Val: 1}, {Row: 1, Col: 2, Val: 2.5}}
	appendRatings(t, cfg, train.N, entries)
	if err := runLoop(cfg, t.Logf); err != nil {
		t.Fatal(err)
	}
	fresh, err := sparse.Load(filepath.Join(cfg.Feed.DeltaDir, deltaName(21)))
	if err != nil {
		t.Fatal(err)
	}
	if fresh.M != want.M {
		t.Fatalf("the log's shard has %d rows, the merged matrix %d", fresh.M, want.M)
	}
	coo := sparse.NewCOO(want.M, train.N, 2)
	coo.Add(0, 5, 1)
	coo.Add(1, 2, 2.5) // the log's later rating of (1, 2)
	if want, err = sparse.MergeLastWins(want, coo.ToCSR()); err != nil {
		t.Fatal(err)
	}

	s, err := core.ResumeSamplerGrown(coreConfig(cfg, cfg.Sampler.Iters+cfg.Publish.AddIters),
		core.NewProblem(want, test), base)
	if err != nil {
		t.Fatal(err)
	}
	s.RunFrom(base.NextIter)
	var ref bytes.Buffer
	if err := s.Checkpoint().Write(&ref); err != nil {
		t.Fatal(err)
	}
	if !bytes.Equal(readFile(t, cfg.Publish.Ckpt), ref.Bytes()) {
		t.Fatal("replaying 21 shards published other bytes than the shard-by-shard merge")
	}
}

// phaseFields parses the name=duration fields a start-up or cycle line
// ends with, after its last ": ".
func phaseFields(t *testing.T, line string) map[string]time.Duration {
	t.Helper()
	i := strings.LastIndex(line, ": ")
	if i < 0 {
		t.Fatalf("no phase fields in %q", line)
	}
	got := map[string]time.Duration{}
	for _, f := range strings.Fields(line[i+2:]) {
		name, val, ok := strings.Cut(f, "=")
		d, err := time.ParseDuration(val)
		if !ok || err != nil {
			t.Fatalf("field %q of %q is not name=duration", f, line)
		}
		got[name] = d
	}
	return got
}

// TestLoopLogsPhaseTimes: the start-up line and every cycle line carry
// each of their phases' wall times, none negative, and all of them
// together fit in the run's wall time. The run replays shards, compacts
// a log in its first cycle and finds the log empty in its second.
func TestLoopLogsPhaseTimes(t *testing.T) {
	cfg := trainerConfig(t.TempDir())
	cfg.Publish.Cycles = 2
	_, train, _ := writeBaseCheckpoint(t, cfg)
	if err := os.MkdirAll(cfg.Feed.DeltaDir, 0o755); err != nil {
		t.Fatal(err)
	}
	for i := 0; i < 3; i++ {
		d := sparse.NewCOO(train.M+i, train.N, 1)
		d.Add(i, i, float64(i+1))
		var buf bytes.Buffer
		if err := sparse.WriteBinarySharded(&buf, d.ToCSR(), sparse.DefaultShardNNZ); err != nil {
			t.Fatal(err)
		}
		if err := os.WriteFile(filepath.Join(cfg.Feed.DeltaDir, deltaName(i)), buf.Bytes(), 0o644); err != nil {
			t.Fatal(err)
		}
	}
	appendRatings(t, cfg, train.N, []sparse.Entry{{Row: int32(train.M + 3), Col: 1, Val: 4}, {Row: 2, Col: 2, Val: 1}})

	var lines []string
	start := time.Now()
	err := runLoop(cfg, func(format string, args ...any) { lines = append(lines, fmt.Sprintf(format, args...)) })
	wall := time.Since(start)
	if err != nil {
		t.Fatal(err)
	}
	want := map[string][]string{
		"start-up:": {"load+split", "shard-load"},
		"cycle 1:":  {"compact", "shard-load", "merge", "resume", "iterate", "publish"},
		"cycle 2:":  {"compact", "shard-load", "merge", "resume", "iterate", "publish"},
	}
	var sum time.Duration
	for _, line := range lines {
		t.Log(line)
		for prefix, names := range want {
			if !strings.HasPrefix(line, prefix) {
				continue
			}
			got := phaseFields(t, line)
			if len(got) != len(names) {
				t.Errorf("%q: %d phase fields, want %v", line, len(got), names)
			}
			for _, name := range names {
				d, ok := got[name]
				if !ok || d < 0 {
					t.Errorf("%q: phase %s missing or negative", line, name)
				}
				sum += d
			}
			delete(want, prefix)
		}
	}
	if len(want) > 0 {
		t.Errorf("no line for %v", want)
	}
	if sum > wall {
		t.Errorf("the phases sum to %v, more than the run's %v", sum, wall)
	}
}

// TestReplayDeltasPastSixDigits: numbers outgrow deltaName's six digits
// after 999 999. delta-1000000.bcsr is a shard like any other, replayed
// after delta-999999.bcsr although its name sorts first. Each shard
// writes its own number into cell (0, 0), so the cell names the shard
// replayed last.
func TestReplayDeltasPastSixDigits(t *testing.T) {
	base := sparse.NewCOO(2, 3, 1)
	base.Add(1, 1, 1)
	for _, tc := range []struct {
		shards []int
		next   int
	}{
		{[]int{999998, 999999}, 1000000},
		{[]int{999999, 1000000}, 1000001},
		{[]int{1000000, 999998, 999999}, 1000001},
		{[]int{1000000}, 1000001},
	} {
		dir := t.TempDir()
		for _, n := range tc.shards {
			d := sparse.NewCOO(1, 3, 1)
			d.Add(0, 0, float64(n))
			var buf bytes.Buffer
			if err := sparse.WriteBinarySharded(&buf, d.ToCSR(), sparse.DefaultShardNNZ); err != nil {
				t.Fatal(err)
			}
			if err := os.WriteFile(filepath.Join(dir, deltaName(n)), buf.Bytes(), 0o644); err != nil {
				t.Fatal(err)
			}
		}
		shards, next, err := replayDeltas(dir, 3)
		if err != nil {
			t.Fatalf("shards %v: %v", tc.shards, err)
		}
		got, err := sparse.MergeLastWins(base.ToCSR(), shards...)
		if err != nil {
			t.Fatal(err)
		}
		if next != tc.next {
			t.Errorf("shards %v: next shard number %d, want %d", tc.shards, next, tc.next)
		}
		if cols, vals := got.Row(0); len(cols) != 1 || cols[0] != 0 || vals[0] != float64(tc.next-1) {
			t.Errorf("shards %v: row 0 holds %v at columns %v, want shard %d replayed last", tc.shards, vals, cols, tc.next-1)
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

// writeWrongWidthShard writes a delta shard one column wider than the
// tiny catalogue into cfg's delta dir and returns its path.
func writeWrongWidthShard(t *testing.T, cfg config.Trainer, items int) string {
	t.Helper()
	if err := os.MkdirAll(cfg.Feed.DeltaDir, 0o755); err != nil {
		t.Fatal(err)
	}
	d := sparse.NewCOO(2, items+1, 1)
	d.Add(1, items, 3)
	var buf bytes.Buffer
	if err := sparse.WriteBinarySharded(&buf, d.ToCSR(), sparse.DefaultShardNNZ); err != nil {
		t.Fatal(err)
	}
	path := filepath.Join(cfg.Feed.DeltaDir, deltaName(0))
	if err := os.WriteFile(path, buf.Bytes(), 0o644); err != nil {
		t.Fatal(err)
	}
	return path
}

// TestLoopRefusesWrongWidthShardAtStartUp: the replay beside the base
// load still holds every shard on disk to the catalogue's width — a
// shard one column wider stops start-up with an error naming it, and
// nothing is published.
func TestLoopRefusesWrongWidthShardAtStartUp(t *testing.T) {
	cfg := trainerConfig(t.TempDir())
	_, train, _ := writeBaseCheckpoint(t, cfg)
	path := writeWrongWidthShard(t, cfg, train.N)

	err := runLoop(cfg, t.Logf)
	if err == nil || !strings.Contains(err.Error(), path) || !strings.Contains(err.Error(), "columns") {
		t.Fatalf("wrong-width shard accepted or misreported: %v", err)
	}
	if _, statErr := os.Stat(cfg.Publish.Ckpt); !os.IsNotExist(statErr) {
		t.Fatal("a start-up that refused a shard published a checkpoint")
	}
}

// TestLoopReportsBaseLoadErrorFirst: when the base data and a delta shard
// both fail at start-up, the base load's error is the one reported, every
// time, although the replay runs beside the load and may finish first.
func TestLoopReportsBaseLoadErrorFirst(t *testing.T) {
	dir := t.TempDir()
	cfg := trainerConfig(dir)
	_, train, _ := writeBaseCheckpoint(t, cfg)
	writeWrongWidthShard(t, cfg, train.N)
	missing := filepath.Join(dir, "missing.bcsr")
	cfg.Data = config.Data{Path: missing, Scale: 1, TestFrac: 0.2}
	for run := 0; run < 20; run++ {
		err := runLoop(cfg, nil)
		if err == nil || !strings.Contains(err.Error(), missing) || strings.Contains(err.Error(), "delta") {
			t.Fatalf("run %d: got %v, want the base load's error", run, err)
		}
	}
	if _, statErr := os.Stat(cfg.Publish.Ckpt); !os.IsNotExist(statErr) {
		t.Fatal("a failed start-up published a checkpoint")
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
