package main

import (
	"encoding/json"
	"fmt"
	"io"
	"os"
	"path/filepath"
	"sort"
	"strconv"
	"time"

	"repro/internal/core"
	"repro/internal/feed"
	"repro/internal/serve"
	"repro/internal/sparse"
)

// replicaRound is the refresh round (counting from 0) of the traced run
// whose trainer cycle is repeated in-process, span by span. It is late
// enough for earlier rounds' delta shards to exist, so the replay span
// is not empty.
const replicaRound = 3

// snapshotForReplica copies the state a trainer cycle starts from — the
// rating log, the delta shards and the live checkpoint — so the replica
// can repeat the cycle after the real trainer has consumed the originals.
func (e *env) snapshotForReplica(pub string) error {
	dir := filepath.Join(e.workDir, "replica")
	if err := os.MkdirAll(filepath.Join(dir, "deltas"), 0o755); err != nil {
		return err
	}
	if err := copyFile(filepath.Join(e.workDir, "ratings.feedlog"), filepath.Join(dir, "ratings.feedlog")); err != nil {
		return err
	}
	if err := copyFile(pub, filepath.Join(dir, "live.ckpt")); err != nil {
		return err
	}
	deltas, _ := filepath.Glob(filepath.Join(e.workDir, "deltas", "delta-*.bcsr"))
	for _, d := range deltas {
		if err := copyFile(d, filepath.Join(dir, "deltas", filepath.Base(d))); err != nil {
			return err
		}
	}
	return nil
}

func copyFile(src, dst string) error {
	in, err := os.Open(src)
	if err != nil {
		return err
	}
	defer in.Close()
	out, err := os.Create(dst)
	if err != nil {
		return err
	}
	if _, err := io.Copy(out, in); err != nil {
		out.Close()
		return err
	}
	return out.Close()
}

// replicaStep is one call of the replicated cycle, as the child reports it.
type replicaStep struct {
	Name    string `json:"name"`
	StartNs int64  `json:"start_ns"` // Unix time
	EndNs   int64  `json:"end_ns"`
}

// replicaCycle repeats bpmf-trainer's cycle — the call sequence of its
// runLoop — on the snapshot, with one span per call, and returns the
// seconds spent in each. It runs in a fresh child process of the
// benchmark, because a cycle's cost in a new process is in good part
// first-touch page faults and the collections of a growing heap, which a
// call inside this process's large, warm heap would not pay. The spans
// are the per-layer budget of a refresh; their sum is compared with the
// wall time of the bpmf-trainer subprocess.
func (e *env) replicaCycle(ds *dataset) (map[string]float64, error) {
	dir := filepath.Join(e.workDir, "replica")
	outPath := filepath.Join(dir, "steps.json")
	of, err := os.Create(outPath)
	if err != nil {
		return nil, err
	}
	p, err := e.ps.start("replica child", filepath.Join(e.workDir, "replica.log"), of, e.self,
		"-stage", "replica", "-workload", e.w.name, "-seed", strconv.FormatUint(e.seed, 10), "-data", ds.bcsr, "-dir", dir)
	of.Close()
	if err != nil {
		return nil, err
	}
	if err := p.wait(roundTimeout); err != nil {
		return nil, err
	}
	b, err := os.ReadFile(outPath)
	if err != nil {
		return nil, err
	}
	var steps []replicaStep
	if err := json.Unmarshal(b, &steps); err != nil {
		return nil, fmt.Errorf("replica child output: %w", err)
	}
	spans := map[string]float64{}
	root := e.tr.start("trainer.replica", 0)
	for _, st := range steps {
		e.tr.add(st.Name, root, time.Unix(0, st.StartNs), time.Unix(0, st.EndNs))
		d := float64(st.EndNs-st.StartNs) / 1e9
		spans[st.Name] = d
		if st.Name != "serve.reload" { // the reload belongs to the server, not to the cycle
			spans["sum"] += d
		}
	}
	e.tr.end(root)
	return spans, nil
}

// replicaChild is the body of the replica's child process.
func replicaChild(seed uint64, bcsr, dir string) error {
	pub := filepath.Join(dir, "live.ckpt")
	srv, err := serve.Open(pub, serve.Options{})
	if err != nil {
		return err
	}
	var out []replicaStep
	step := func(name string, f func() error) error {
		t0 := time.Now()
		err := f()
		out = append(out, replicaStep{Name: name, StartNs: t0.UnixNano(), EndNs: time.Now().UnixNano()})
		return err
	}

	var train, cur, delta *sparse.CSR
	var test []sparse.Entry
	var ckpt *core.Checkpoint
	var lg *feed.Log
	var s *core.Sampler
	deltaPath := filepath.Join(dir, "deltas", "delta-replica.bcsr")
	cc := core.DefaultConfig()
	cc.K, cc.Burnin, cc.Seed = latentK, chainBurnin, seed

	steps := []struct {
		name string
		f    func() error
	}{
		{"sparse.load_base", func() error {
			full, err := sparse.Load(bcsr)
			if err == nil {
				train, test = sparse.SplitTrainTest(full, testFrac, seed)
			}
			return err
		}},
		{"core.ckpt_read", func() error {
			f, err := os.Open(pub)
			if err != nil {
				return err
			}
			defer f.Close()
			ckpt, err = core.ReadCheckpoint(f)
			return err
		}},
		{"feed.open_recover", func() (err error) {
			lg, err = feed.OpenLog(filepath.Join(dir, "ratings.feedlog"), train.N)
			return err
		}},
		{"trainer.replay", func() error {
			paths, _ := filepath.Glob(filepath.Join(dir, "deltas", "delta-0*.bcsr"))
			sort.Strings(paths)
			cur = train
			for _, p := range paths {
				d, err := sparse.Load(p)
				if err == nil {
					cur, err = sparse.MergeLastWins(cur, d)
				}
				if err != nil {
					return err
				}
			}
			return nil
		}},
		{"feed.compact", func() error { _, err := lg.Compact(deltaPath, cur.M, 0); return err }},
		{"sparse.load_delta", func() (err error) { delta, err = sparse.Load(deltaPath); return err }},
		{"sparse.merge", func() (err error) { cur, err = sparse.MergeLastWins(cur, delta); return err }},
		{"feed.truncate", func() error { return lg.Truncate() }},
		{"core.resume_grown", func() (err error) {
			cc.Iters = ckpt.NextIter + addIters
			s, err = core.ResumeSamplerGrown(cc, core.NewProblem(cur, test), ckpt)
			return err
		}},
		{"core.run_from", func() error { s.RunFrom(ckpt.NextIter); return nil }},
		{"core.checkpoint", func() error { ckpt = s.Checkpoint(); return nil }},
		{"serve.publish", func() error {
			return serve.PublishCheckpoint(pub, ckpt, &serve.Lineage{Seed: seed, K: latentK})
		}},
		{"serve.reload", func() error {
			swapped, err := srv.MaybeReload()
			if err == nil && !swapped {
				err = fmt.Errorf("the watcher's reload did not swap in the published checkpoint")
			}
			return err
		}},
	}
	for _, st := range steps {
		if err := step(st.name, st.f); err != nil {
			if lg != nil {
				lg.Close()
			}
			return fmt.Errorf("%s: %w", st.name, err)
		}
	}
	if err := lg.Close(); err != nil {
		return err
	}
	return json.NewEncoder(os.Stdout).Encode(out)
}
