// Command bpmf-trainer is the continuous-training loop: it drains an
// append-only rating log into compacted delta .bcsr shards, warm-starts
// the Gibbs chain from the last checkpoint over base + deltas (folding
// in users that appeared since), extends the chain, and atomically
// rotates the finished checkpoint into the path a bpmf-serve watcher
// hot-reloads — fresher posteriors without a server restart.
//
// Producer side (append observations durably, then exit):
//
//	printf '7 3 4.5\n812 19 2.0\n' | bpmf-trainer -ingest -feed-log ratings.feedlog -items 25
//
// Training loop (one cycle per -interval, -cycles of them):
//
//	bpmf -synthetic tiny -k 8 -iters 10 -burnin 4 -ckpt-out base.ckpt
//	bpmf-trainer -synthetic tiny -k 8 -iters 10 -burnin 4 \
//	  -ckpt base.ckpt -feed-log ratings.feedlog -delta-dir deltas \
//	  -publish model.ckpt -add-iters 5 -cycles 3
//
// The sampler knobs (-k, -burnin, -seed, -alpha and the data source)
// must repeat the base run's: they are the chain's identity, and the
// publish-side lineage guard refuses to rotate a checkpoint whose
// (seed, K) do not match the pinned lineage (-pin-seed overrides the
// pin — deliberately mismatching it demonstrates the refusal).
//
// Each cycle is bit-deterministic: the published checkpoint depends
// only on the base chain, the merged rating matrix and the added
// iteration count — not on how many cycles or delta shards produced
// the merge, and not on the machine: a cycle samples on the
// work-stealing engine with runtime.GOMAXPROCS workers, which draws the
// sequential chain. There is no thread flag; GOMAXPROCS=1 in the
// environment confines the trainer to one core.
package main

import (
	"bufio"
	"flag"
	"fmt"
	"io"
	"log"
	"os"
	"path/filepath"
	"runtime"
	"sort"
	"strconv"
	"strings"
	"time"

	"repro/internal/config"
	"repro/internal/core"
	"repro/internal/feed"
	"repro/internal/mc"
	"repro/internal/serve"
	"repro/internal/sparse"
)

func main() {
	log.SetFlags(0)
	log.SetPrefix("bpmf-trainer: ")

	cfg := config.DefaultTrainer()
	if err := config.Parse(flag.CommandLine, os.Args[1:], &cfg); err != nil {
		log.Fatal(err)
	}
	if cfg.Ingest {
		n, err := runIngest(cfg, os.Stdin)
		if err != nil {
			log.Fatal(err)
		}
		fmt.Printf("appended %d ratings to %s\n", n, cfg.Feed.Log)
		return
	}
	if err := runLoop(cfg, log.Printf); err != nil {
		log.Fatal(err)
	}
}

// runIngest appends "user item value" lines (one rating each; blank
// lines and #-comments skipped) from r to the feed log as one durable
// batch: a single fsync'd append, so a crash either keeps every rating
// or leaves the log exactly as it was.
func runIngest(cfg config.Trainer, r io.Reader) (int, error) {
	if cfg.Feed.Items < 1 {
		return 0, fmt.Errorf("-ingest needs -items: the item-catalog width of the log")
	}
	var batch []sparse.Entry
	sc := bufio.NewScanner(r)
	for lineNo := 1; sc.Scan(); lineNo++ {
		fields := splitFields(sc.Text())
		if len(fields) == 0 {
			continue
		}
		if len(fields) != 3 {
			return 0, fmt.Errorf("stdin line %d: want \"user item value\", got %q", lineNo, sc.Text())
		}
		user, err1 := strconv.ParseInt(fields[0], 10, 32)
		item, err2 := strconv.ParseInt(fields[1], 10, 32)
		val, err3 := strconv.ParseFloat(fields[2], 64)
		if err1 != nil || err2 != nil || err3 != nil {
			return 0, fmt.Errorf("stdin line %d: want \"user item value\", got %q", lineNo, sc.Text())
		}
		batch = append(batch, sparse.Entry{Row: int32(user), Col: int32(item), Val: val})
	}
	if err := sc.Err(); err != nil {
		return 0, fmt.Errorf("reading stdin: %w", err)
	}
	if len(batch) == 0 {
		return 0, nil
	}
	l, err := feed.OpenLog(cfg.Feed.Log, cfg.Feed.Items)
	if err != nil {
		return 0, err
	}
	if err := l.Append(batch); err != nil {
		l.Close()
		return 0, err
	}
	return len(batch), l.Close()
}

// splitFields splits an ingest line on whitespace, dropping everything
// from a '#' on as a comment.
func splitFields(line string) []string {
	if i := strings.IndexByte(line, '#'); i >= 0 {
		line = line[:i]
	}
	return strings.Fields(line)
}

// runLoop is the continuous-training loop. Each cycle: compact the
// rating log into a delta shard (when it holds enough records), merge it
// over the current matrix last-write-wins, warm-start the chain from the
// previous cycle's checkpoint (growing U for users the deltas
// introduced), extend it by add-iters iterations, and publish the result
// atomically under the lineage pin. Start-up splits the base data on the
// calling goroutine while a second one reads the checkpoint, opens the
// log and loads the shards earlier runs left (replayDeltas, at the
// checkpoint's catalog width, which must equal the base's). The first
// cycle merges those shards in the same MergeLastWins call as its own
// shard, so a run holds one merged matrix and merges once per cycle. logf
// receives progress lines — the start-up line and each cycle's carry the
// wall time of every phase as name=duration fields, back to back, so they
// sum to no more than the run: the start-up's shard-load is what the
// second goroutine still took after load+split ended — keeping the loop
// testable in-process.
func runLoop(cfg config.Trainer, logf func(string, ...any)) error {
	if logf == nil {
		logf = func(string, ...any) {}
	}
	// A restart resumes the published chain, not the base checkpoint:
	// the publish path is the loop's own durable state.
	ckptPath := cfg.Ckpt
	if _, statErr := os.Stat(cfg.Publish.Ckpt); statErr == nil {
		ckptPath = cfg.Publish.Ckpt
		logf("warm-starting from previously published %s", ckptPath)
	}
	deltaDir := cfg.Feed.DeltaDir
	if deltaDir == "" {
		deltaDir = filepath.Dir(cfg.Feed.Log)
	}
	// The start-up reads overlap: the checkpoint read, then the log
	// open/recover and the replay of the delta shards on disk, both at the
	// checkpoint's catalog width (V's rows — the width the warm start pins
	// the data to anyway), run beside the data load + split.
	var (
		ckpt               *core.Checkpoint
		lg                 *feed.Log
		pending            []*sparse.CSR // the shards not yet merged into cur
		nextDelta          int
		openErr, replayErr error
	)
	start := time.Now()
	opened := make(chan struct{})
	go func() {
		defer close(opened)
		if ckpt, _, openErr = core.ReadCheckpointFile(ckptPath); openErr != nil {
			return
		}
		if lg, openErr = feed.OpenLog(cfg.Feed.Log, ckpt.V.Rows); openErr == nil {
			pending, nextDelta, replayErr = replayDeltas(deltaDir, ckpt.V.Rows)
		}
	}()
	// The base matrix and its frozen test split — the exact split the base
	// checkpoint's posterior accumulators were built over, resolved from
	// (data source, test fraction, seed) the way cmd/bpmf resolved it.
	cur, test, err := cfg.Data.Split(cfg.Sampler.Seed)
	loadSplit := time.Since(start)
	<-opened
	shardLoad := time.Since(start) - loadSplit
	if lg != nil {
		defer lg.Close()
	}
	// The base load's error comes first, then the checkpoint's and the
	// log's, then the catalog checks, and the replay's last: the order of
	// the steps when they ran one after another.
	if err != nil {
		return err
	}
	if openErr != nil {
		return openErr
	}
	if cfg.Feed.Items != 0 && cfg.Feed.Items != cur.N {
		return fmt.Errorf("-items %d does not match the base data's %d-item catalog", cfg.Feed.Items, cur.N)
	}
	if ckpt.V.Rows != cur.N {
		return fmt.Errorf("checkpoint %s has %d items, the base data %d (the item catalog cannot grow)", ckptPath, ckpt.V.Rows, cur.N)
	}
	if replayErr != nil {
		return replayErr
	}
	if rec := lg.RecoveredBytes(); rec > 0 {
		logf("recovered rating log %s: truncated a %d-byte torn tail", cfg.Feed.Log, rec)
	}
	cc := cfg.Sampler.Core() // Iters is set per cycle

	if err := os.MkdirAll(deltaDir, 0o755); err != nil {
		return fmt.Errorf("creating delta dir: %w", err)
	}
	logf("start-up: base %d users x %d items, %d delta shards in %s: %s", cur.M, cur.N, len(pending), deltaDir,
		phases{{"load+split", loadSplit}, {"shard-load", shardLoad}})

	lin := &serve.Lineage{Seed: cfg.Sampler.Seed, K: cfg.Sampler.K}
	if cfg.Publish.PinSeed != 0 {
		lin.Seed = cfg.Publish.PinSeed
	}

	minRecords := int64(cfg.Feed.MinRecords)
	if minRecords < 1 {
		minRecords = 1
	}
	for cycle := 1; cfg.Publish.Cycles == 0 || cycle <= cfg.Publish.Cycles; cycle++ {
		start := time.Now()
		t := start
		lap := func() time.Duration { // the time since the last lap
			now := time.Now()
			d := now.Sub(t)
			t = now
			return d
		}
		var compact, shardLoad time.Duration
		newRatings := int64(0)
		if rec := lg.Records(); rec >= minRecords {
			// The shard is as tall as the matrix it will be merged into,
			// the pending shards included.
			rows := cur.M
			for _, d := range pending {
				rows = max(rows, d.M)
			}
			path := filepath.Join(deltaDir, deltaName(nextDelta))
			stats, err := lg.Compact(path, rows, cfg.Feed.ShardNNZ)
			if err != nil {
				return fmt.Errorf("cycle %d: compacting the rating log: %w", cycle, err)
			}
			compact = lap()
			delta, err := sparse.Load(path)
			if err != nil {
				return fmt.Errorf("cycle %d: reading back delta shard: %w", cycle, err)
			}
			shardLoad = lap()
			// Only after the delta shard is durable and reads back may the
			// log forget the ratings; a crash from here on replays the shard
			// at startup, which last-write-wins makes idempotent.
			if err := lg.Truncate(); err != nil {
				return fmt.Errorf("cycle %d: truncating the rating log: %w", cycle, err)
			}
			compact += lap()
			pending = append(pending, delta)
			nextDelta++
			newRatings = stats.NNZ
		} else if rec > 0 {
			logf("cycle %d: %d ratings buffered (min %d), deferring compaction", cycle, rec, minRecords)
		}
		if len(pending) > 0 {
			if cur, err = sparse.MergeLastWins(cur, pending...); err != nil {
				return fmt.Errorf("cycle %d: merging delta shards: %w", cycle, err)
			}
			pending = nil
		}
		merge := lap()

		cc.Iters = ckpt.NextIter + cfg.Publish.AddIters
		s, err := core.ResumeSamplerGrown(cc, core.NewProblem(cur, test), ckpt)
		if err != nil {
			return fmt.Errorf("cycle %d: warm-starting the chain: %w", cycle, err)
		}
		// Every engine samples the sequential chain, so the published bytes
		// do not depend on the worker count.
		release, err := mc.Attach(s, mc.WorkSteal, runtime.GOMAXPROCS(0))
		if err != nil {
			return fmt.Errorf("cycle %d: %w", cycle, err)
		}
		resume := lap()
		res := s.RunFrom(ckpt.NextIter)
		release()
		iterate := lap()
		prev := ckpt.NextIter
		// The view aliases s, which the cycle drops here: the next cycle's
		// resume copies it into a new sampler, so no detached copy is made.
		ckpt = s.View()

		if err := serve.PublishCheckpoint(cfg.Publish.Ckpt, ckpt, lin); err != nil {
			return fmt.Errorf("cycle %d: %w", cycle, err)
		}
		ph := phases{{"compact", compact}, {"shard-load", shardLoad}, {"merge", merge},
			{"resume", resume}, {"iterate", iterate}, {"publish", lap()}}
		logf("cycle %d: +%d ratings, %d users x %d items, chain %d -> %d iterations, RMSE %.6f, published %s: %s",
			cycle, newRatings, cur.M, cur.N, prev, ckpt.NextIter, res.FinalRMSE(), cfg.Publish.Ckpt, ph)

		if iv := cfg.Publish.Interval.Std(); iv > 0 && (cfg.Publish.Cycles == 0 || cycle < cfg.Publish.Cycles) {
			if rem := iv - time.Since(start); rem > 0 {
				time.Sleep(rem)
			}
		}
	}
	return nil
}

// phases are the wall times of a log line's phases, in the order they
// ran.
type phases []struct {
	name string
	d    time.Duration
}

// String renders the phases as space-separated name=duration fields, to
// the microsecond.
func (p phases) String() string {
	var b strings.Builder
	for i, ph := range p {
		if i > 0 {
			b.WriteByte(' ')
		}
		fmt.Fprintf(&b, "%s=%s", ph.name, ph.d.Round(time.Microsecond))
	}
	return b.String()
}

// deltaName numbers delta shards in creation order — the order crash
// recovery must replay them in. Numbers are six digits wide up to 999 999
// and wider after, so the replay orders shards by number, not by name.
func deltaName(i int) string { return fmt.Sprintf("delta-%06d.bcsr", i) }

// deltaNumber reads a shard's number back from its name. A name deltaName
// did not produce is refused rather than guessed at: numbering on from a
// guess can land below an existing shard, and the next compaction would
// then replay before an older one.
func deltaNumber(name string) (int, bool) {
	n, err := strconv.Atoi(strings.TrimSuffix(strings.TrimPrefix(name, "delta-"), ".bcsr"))
	return n, err == nil && n >= 0 && deltaName(n) == name
}

// replayDeltas loads the delta shards already in dir (from earlier runs
// or a crash between compaction and publish), each of which must have n
// columns (the checkpoint's catalog width), and returns them in creation order — the order they overlay
// the base in — plus the next free shard number. It does not merge: the
// first cycle merges the base, these shards and its own shard in one
// sparse.MergeLastWins call.
func replayDeltas(dir string, n int) ([]*sparse.CSR, int, error) {
	paths, err := filepath.Glob(filepath.Join(dir, "delta-*.bcsr"))
	if err != nil {
		return nil, 0, err
	}
	nums := make(map[string]int, len(paths))
	for _, p := range paths {
		n, ok := deltaNumber(filepath.Base(p))
		if !ok {
			return nil, 0, fmt.Errorf("replaying delta shard %s: name is not delta-NNNNNN.bcsr, so its place in the replay order is unknown", p)
		}
		nums[p] = n
	}
	sort.Slice(paths, func(a, b int) bool { return nums[paths[a]] < nums[paths[b]] })
	shards := make([]*sparse.CSR, len(paths))
	next := 0
	for i, p := range paths {
		next = nums[p] + 1
		d, err := sparse.Load(p)
		if err == nil && d.N != n {
			err = fmt.Errorf("shard has %d columns, base has %d", d.N, n)
		}
		if err != nil {
			return nil, 0, fmt.Errorf("replaying delta shard %s: %w", p, err)
		}
		shards[i] = d
	}
	return shards, next, nil
}
