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
	"repro/internal/order"
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
// rating log into a delta shard (when it holds enough records), merge
// the delta over the current matrix last-write-wins, warm-start the
// chain from the previous cycle's checkpoint (growing U for users the
// deltas introduced), extend it by add-iters iterations, and publish
// the result atomically under the lineage pin. logf receives progress
// lines, keeping the loop testable in-process.
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
	// The start-up reads overlap: the checkpoint read, then the log
	// open/recover at the checkpoint's catalog width (V's rows — the
	// width the warm start pins the data to anyway), run beside the data
	// load + split.
	var (
		ckpt    *core.Checkpoint
		lg      *feed.Log
		openErr error
	)
	opened := make(chan struct{})
	go func() {
		defer close(opened)
		if ckpt, _, openErr = core.ReadCheckpointFile(ckptPath); openErr == nil {
			lg, openErr = feed.OpenLog(cfg.Feed.Log, ckpt.V.Rows)
		}
	}()
	// The base matrix and its frozen test split — the exact split the base
	// checkpoint's posterior accumulators were built over, resolved from
	// (data source, test fraction, seed) the way cmd/bpmf resolved it.
	train, test, err := cfg.Data.Split(cfg.Sampler.Seed)
	<-opened
	if lg != nil {
		defer lg.Close()
	}
	if err != nil {
		return err
	}
	if openErr != nil {
		return openErr
	}
	if cfg.Feed.Items != 0 && cfg.Feed.Items != train.N {
		return fmt.Errorf("-items %d does not match the base data's %d-item catalog", cfg.Feed.Items, train.N)
	}
	if ckpt.V.Rows != train.N {
		return fmt.Errorf("checkpoint %s has %d items, the base data %d (the item catalog cannot grow)", ckptPath, ckpt.V.Rows, train.N)
	}
	if rec := lg.RecoveredBytes(); rec > 0 {
		logf("recovered rating log %s: truncated a %d-byte torn tail", cfg.Feed.Log, rec)
	}
	cc := cfg.Sampler.Core() // Iters is set per cycle

	deltaDir := cfg.Feed.DeltaDir
	if deltaDir == "" {
		deltaDir = filepath.Dir(cfg.Feed.Log)
	}
	if err := os.MkdirAll(deltaDir, 0o755); err != nil {
		return fmt.Errorf("creating delta dir: %w", err)
	}
	cur, nextDelta, err := replayDeltas(train, deltaDir, logf)
	if err != nil {
		return err
	}

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
		newRatings := int64(0)
		if rec := lg.Records(); rec >= minRecords {
			path := filepath.Join(deltaDir, deltaName(nextDelta))
			stats, err := lg.Compact(path, cur.M, cfg.Feed.ShardNNZ)
			if err != nil {
				return fmt.Errorf("cycle %d: compacting the rating log: %w", cycle, err)
			}
			delta, err := sparse.Load(path)
			if err != nil {
				return fmt.Errorf("cycle %d: reading back delta shard: %w", cycle, err)
			}
			cur, err = sparse.MergeLastWins(cur, delta)
			if err != nil {
				return fmt.Errorf("cycle %d: merging delta shard: %w", cycle, err)
			}
			// Only after the delta shard is durable may the log forget the
			// ratings; a crash between the two replays the shard at startup,
			// which last-write-wins makes idempotent.
			if err := lg.Truncate(); err != nil {
				return fmt.Errorf("cycle %d: truncating the rating log: %w", cycle, err)
			}
			nextDelta++
			newRatings = stats.NNZ
		} else if rec > 0 {
			logf("cycle %d: %d ratings buffered (min %d), deferring compaction", cycle, rec, minRecords)
		}

		cc.Iters = ckpt.NextIter + cfg.Publish.AddIters
		s, err := core.ResumeSamplerGrown(cc, core.NewProblem(cur, test), ckpt)
		if err != nil {
			return fmt.Errorf("cycle %d: warm-starting the chain: %w", cycle, err)
		}
		// Every engine samples the sequential chain, so the published bytes
		// do not depend on the worker count. Storage order: over the one
		// or few iterations of a cycle the locality schedule does not win
		// back what order.Build costs (PERF.md, PR 17).
		release, err := mc.Attach(s, mc.WorkSteal, runtime.GOMAXPROCS(0), &order.Schedule{})
		if err != nil {
			return fmt.Errorf("cycle %d: %w", cycle, err)
		}
		res := s.RunFrom(ckpt.NextIter)
		release()
		prev := ckpt.NextIter
		ckpt = s.Checkpoint()

		if err := serve.PublishCheckpoint(cfg.Publish.Ckpt, ckpt, lin); err != nil {
			return fmt.Errorf("cycle %d: %w", cycle, err)
		}
		logf("cycle %d: +%d ratings, %d users x %d items, chain %d -> %d iterations, RMSE %.6f, published %s",
			cycle, newRatings, cur.M, cur.N, prev, ckpt.NextIter, res.FinalRMSE(), cfg.Publish.Ckpt)

		if iv := cfg.Publish.Interval.Std(); iv > 0 && (cfg.Publish.Cycles == 0 || cycle < cfg.Publish.Cycles) {
			if rem := iv - time.Since(start); rem > 0 {
				time.Sleep(rem)
			}
		}
	}
	return nil
}

// deltaName numbers delta shards so lexical order is creation order —
// the order crash recovery must replay them in.
func deltaName(i int) string { return fmt.Sprintf("delta-%06d.bcsr", i) }

// replayDeltas overlays the delta shards already in dir (from earlier
// runs or a crash between compaction and publish) over the base matrix,
// in creation order, and returns the merged matrix plus the next free
// shard number. The shards — small beside the base — are first folded
// newest-wins among themselves and the base is overlaid once; overlaying
// is associative (sparse.MergeLastWins), so this is the matrix the
// shard-by-shard overlay would build.
func replayDeltas(base *sparse.CSR, dir string, logf func(string, ...any)) (*sparse.CSR, int, error) {
	paths, err := filepath.Glob(filepath.Join(dir, "delta-*.bcsr"))
	if err != nil {
		return nil, 0, err
	}
	sort.Strings(paths)
	shards := make([]*sparse.CSR, len(paths))
	next := 0
	for i, p := range paths {
		// The number orders the replay, so a name deltaName did not
		// produce is refused rather than guessed at: numbering on from a
		// guess can land below an existing shard, and the next compaction
		// would then replay before an older one.
		n, name := -1, filepath.Base(p)
		if _, err := fmt.Sscanf(name, "delta-%06d.bcsr", &n); err != nil || n < 0 || deltaName(n) != name {
			return nil, 0, fmt.Errorf("replaying delta shard %s: name is not delta-NNNNNN.bcsr, so its place in the replay order is unknown", p)
		}
		next = n + 1
		d, err := sparse.Load(p)
		if err == nil && d.N != base.N {
			err = fmt.Errorf("shard has %d columns, base has %d", d.N, base.N)
		}
		if err != nil {
			return nil, 0, fmt.Errorf("replaying delta shard %s: %w", p, err)
		}
		shards[i] = d
	}
	if len(shards) == 0 {
		return base, next, nil
	}
	folded, err := sparse.MergeLastWins(shards[0], shards[1:]...)
	if err != nil {
		return nil, 0, fmt.Errorf("replaying delta shards from %s: %w", dir, err)
	}
	cur, err := sparse.MergeLastWins(base, folded)
	if err != nil {
		return nil, 0, fmt.Errorf("replaying delta shards from %s: %w", dir, err)
	}
	logf("replayed %d delta shards from %s (%d users x %d items)", len(paths), dir, cur.M, cur.N)
	return cur, next, nil
}
