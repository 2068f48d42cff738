package serve

import (
	"bytes"
	"context"
	"errors"
	"math"
	"os"
	"path/filepath"
	"sync"
	"testing"
	"time"

	"repro/internal/core"
	"repro/internal/datagen"
	"repro/internal/la"
	"repro/internal/rng"
	"repro/internal/sparse"
)

// trainedChain runs the sequential reference sampler for iters
// iterations on a small problem and returns its checkpoint plus the
// pieces serving needs.
func trainedChain(t *testing.T, seed uint64, iters, burnin int) (*core.Checkpoint, *core.Problem, core.Config) {
	t.Helper()
	ds := datagen.Generate(datagen.Small(seed))
	train, test := sparse.SplitTrainTest(ds.R, 0.2, seed)
	prob := core.NewProblem(train, test)
	cfg := core.DefaultConfig()
	cfg.K = 8
	cfg.Iters = iters
	cfg.Burnin = burnin
	cfg.Seed = seed
	cfg.RankOneMax = 10
	cfg.KernelThreshold = 40
	s, err := core.NewSampler(cfg, prob)
	if err != nil {
		t.Fatal(err)
	}
	for it := 0; it < iters; it++ {
		s.Step(it)
	}
	return s.Checkpoint(), prob, cfg
}

func modelOptions(prob *core.Problem, cfg core.Config) Options {
	return Options{Alpha: cfg.Alpha, Exclude: prob.R, Test: prob.Test}
}

// TestFoldInBitMatchesUpdateItem is the acceptance property test: the
// serving layer's fold-in must be the sampler's own core.UpdateItem
// conditional, bit for bit, for identical inputs — across rating counts
// that exercise every Figure 2 kernel the small thresholds select.
func TestFoldInBitMatchesUpdateItem(t *testing.T) {
	ckpt, prob, cfg := trainedChain(t, 31, 6, 3)
	m, err := NewModel(ckpt, modelOptions(prob, cfg))
	if err != nil {
		t.Fatal(err)
	}
	stream := rng.New(77)
	nItems := m.NumItems()
	for trial := 0; trial < 40; trial++ {
		// Random strictly-ascending item subset; sizes sweep through the
		// rank-one (<=10), serial-Cholesky and parallel-Cholesky (>=40)
		// kernel ranges of the test config.
		nnz := 1 + stream.Intn(60)
		items := make([]int32, 0, nnz)
		vals := make([]float64, 0, nnz)
		for i := 0; i < nItems && len(items) < nnz; i++ {
			if stream.Float64() < float64(nnz)/float64(nItems)*1.5 {
				items = append(items, int32(i))
				vals = append(vals, 1+4*stream.Float64())
			}
		}
		key := m.NumUsers() + trial
		got, err := m.FoldIn(items, vals, key)
		if err != nil {
			t.Fatal(err)
		}
		// Reference: the sampler's own item update with identical inputs.
		want := la.NewVector(m.K())
		kern := m.cfg.SelectKernel(len(items))
		ws := core.NewWorkspace(m.K())
		core.UpdateItem(ws, kern, &m.cfg, items, vals,
			m.v, m.userHyper(), ws.ItemStream(ckpt.Seed, ckpt.NextIter, core.SideU, key),
			nil, nil, want)
		for i := range want {
			if got[i] != want[i] {
				t.Fatalf("trial %d (nnz=%d, kernel=%v): fold-in[%d] = %v, UpdateItem = %v",
					trial, len(items), kern, i, got[i], want[i])
			}
		}
		// Determinism: same inputs, same draw.
		again, err := m.FoldIn(items, vals, key)
		if err != nil {
			t.Fatal(err)
		}
		for i := range again {
			if again[i] != got[i] {
				t.Fatalf("trial %d: fold-in is not deterministic", trial)
			}
		}
	}
}

// TestFoldInHyperMatchesResumedSampler pins the hyperparameter
// reconstruction: the model's user-side (μ, Λ) must equal the draw the
// resumed chain itself performs at iteration NextIter.
func TestFoldInHyperMatchesResumedSampler(t *testing.T) {
	ckpt, prob, cfg := trainedChain(t, 32, 6, 3)
	m, err := NewModel(ckpt, modelOptions(prob, cfg))
	if err != nil {
		t.Fatal(err)
	}
	// Complete the chain from the checkpoint; Step's user-side hyper draw
	// at iteration NextIter conditions on the checkpointed U with the
	// same keyed stream the model reconstructed from.
	s, err := core.ResumeSamplerGrown(cfg, prob, ckpt)
	if err != nil {
		t.Fatal(err)
	}
	s.Step(ckpt.NextIter)
	if la.MaxAbsDiff(s.HU.Lambda, m.userHyper().Lambda) != 0 {
		t.Fatal("reconstructed user hyper precision differs from resumed sampler's draw")
	}
	for i := range s.HU.Mu {
		if s.HU.Mu[i] != m.userHyper().Mu[i] {
			t.Fatal("reconstructed user hyper mean differs from resumed sampler's draw")
		}
	}
}

func TestPredictServesCheckpointPosterior(t *testing.T) {
	ckpt, prob, cfg := trainedChain(t, 33, 8, 3)
	m, err := NewModel(ckpt, modelOptions(prob, cfg))
	if err != nil {
		t.Fatal(err)
	}
	// Reference intervals from the same chain state.
	s, err := core.ResumeSamplerGrown(cfg, prob, ckpt)
	if err != nil {
		t.Fatal(err)
	}
	res := s.RunFrom(cfg.Iters) // no extra iterations: just finalize
	if len(res.Intervals) == 0 {
		t.Fatal("no reference intervals")
	}
	for _, iv := range res.Intervals {
		p, err := m.Predict(int(iv.Row), int(iv.Col))
		if err != nil {
			t.Fatal(err)
		}
		if !p.Posterior {
			t.Fatalf("(%d,%d): expected checkpointed posterior stats", iv.Row, iv.Col)
		}
		if p.Mean != iv.Mean || p.Std != iv.Std {
			t.Fatalf("(%d,%d): served mean/std %v/%v != predictor %v/%v",
				iv.Row, iv.Col, p.Mean, p.Std, iv.Mean, iv.Std)
		}
	}
	// A pair outside the test set gets the point score and the
	// observation-noise floor.
	p, err := m.Predict(0, 0)
	if err != nil {
		t.Fatal(err)
	}
	if p.Posterior && len(prob.Test) > 0 {
		found := false
		for _, e := range prob.Test {
			if e.Row == 0 && e.Col == 0 {
				found = true
			}
		}
		if !found {
			t.Fatal("non-test pair claims posterior stats")
		}
	}
	if want := la.Dot(ckpt.U.Row(0), ckpt.V.Row(0)); p.Score != want {
		t.Fatalf("point score %v != u·v %v", p.Score, want)
	}
	if math.IsNaN(p.Std) || p.Std <= 0 {
		t.Fatalf("bad observation-noise floor %v", p.Std)
	}
}

// TestRecommendScoresMatchPredict: the ranking pass and Predict report
// the same score for a (user, item) pair, bit for bit.
func TestRecommendScoresMatchPredict(t *testing.T) {
	ckpt, prob, cfg := trainedChain(t, 34, 4, 2)
	m, err := NewModel(ckpt, modelOptions(prob, cfg))
	if err != nil {
		t.Fatal(err)
	}
	top, err := m.Recommend(3, m.NumItems())
	if err != nil || len(top) == 0 {
		t.Fatalf("Recommend: %d items, %v", len(top), err)
	}
	for _, it := range top {
		p, err := m.Predict(3, it.Index)
		if err != nil {
			t.Fatal(err)
		}
		if it.Score != p.Score {
			t.Fatalf("item %d: ranked score %v != Predict %v", it.Index, it.Score, p.Score)
		}
	}
}

func TestModelQueryErrors(t *testing.T) {
	ckpt, prob, cfg := trainedChain(t, 36, 4, 2)
	m, err := NewModel(ckpt, modelOptions(prob, cfg))
	if err != nil {
		t.Fatal(err)
	}
	if _, err := m.Predict(-1, 0); !errors.Is(err, ErrUserRange) {
		t.Fatalf("Predict(-1, 0): %v", err)
	}
	if _, err := m.Predict(0, m.NumItems()); !errors.Is(err, ErrItemRange) {
		t.Fatalf("Predict item overflow: %v", err)
	}
	if _, err := m.Recommend(m.NumUsers(), 3); !errors.Is(err, ErrUserRange) {
		t.Fatalf("Recommend user overflow: %v", err)
	}
	if top, err := m.Recommend(0, 0); err != nil || top != nil {
		t.Fatalf("Recommend n=0: %v, %v", top, err)
	}
	if top, err := m.Recommend(0, math.MaxInt); err != nil || len(top) > m.NumItems() {
		t.Fatalf("Recommend huge n: %d items, %v", len(top), err)
	}
	if _, err := m.RecommendVector(la.NewVector(m.K()+1), nil, 3); !errors.Is(err, ErrBadInput) {
		t.Fatalf("wrong-K vector: %v", err)
	}
	if _, err := m.FoldIn([]int32{0, 2}, []float64{1}, 0); !errors.Is(err, ErrBadInput) {
		t.Fatalf("length mismatch: %v", err)
	}
	if _, err := m.FoldIn([]int32{2, 1}, []float64{1, 2}, 0); !errors.Is(err, ErrBadInput) {
		t.Fatalf("unsorted items: %v", err)
	}
	if _, err := m.FoldIn([]int32{1, 1}, []float64{1, 2}, 0); !errors.Is(err, ErrBadInput) {
		t.Fatalf("duplicate items: %v", err)
	}
	if _, err := m.FoldIn([]int32{int32(m.NumItems())}, []float64{3}, 0); !errors.Is(err, ErrItemRange) {
		t.Fatalf("item overflow: %v", err)
	}
	// Finite ratings whose draw overflows, through each kernel: rank-one
	// (1 rating), serial Cholesky (20) and parallel Cholesky (every item).
	all := make([]int32, m.NumItems())
	huge := make([]float64, len(all))
	for i := range all {
		all[i], huge[i] = int32(i), 1e308
	}
	for _, n := range []int{1, 20, len(all)} {
		if _, err := m.FoldIn(all[:n], huge[:n], 0); !errors.Is(err, ErrBadInput) {
			t.Fatalf("%d ratings of 1e308: %v", n, err)
		}
	}
	// Empty ratings are legal: a draw from the user prior.
	if u, err := m.FoldIn(nil, nil, 5); err != nil || len(u) != m.K() {
		t.Fatalf("empty fold-in: %v, %v", u, err)
	}
}

func TestNewModelValidation(t *testing.T) {
	ckpt, prob, cfg := trainedChain(t, 37, 4, 2)
	if _, err := NewModel(nil, Options{}); !errors.Is(err, ErrBadInput) {
		t.Fatalf("nil checkpoint: %v", err)
	}
	badTest := modelOptions(prob, cfg)
	badTest.Test = badTest.Test[:len(badTest.Test)-1]
	if _, err := NewModel(ckpt, badTest); !errors.Is(err, ErrBadInput) {
		t.Fatalf("test/accumulator mismatch: %v", err)
	}
	other := datagen.Generate(datagen.Tiny(9))
	badExcl := modelOptions(prob, cfg)
	badExcl.Exclude = other.R
	if _, err := NewModel(ckpt, badExcl); !errors.Is(err, ErrBadInput) {
		t.Fatalf("exclusion shape mismatch: %v", err)
	}
	broken := *ckpt
	broken.K = ckpt.K + 1
	if _, err := NewModel(&broken, Options{}); !errors.Is(err, ErrBadInput) {
		t.Fatalf("K/shape mismatch: %v", err)
	}
}

// TestRecommendUserWithEverythingRated builds a hand-made snapshot where
// user 0 rated the whole catalog: Recommend must return nil, not panic.
func TestRecommendUserWithEverythingRated(t *testing.T) {
	k, users, items := 4, 2, 3
	stream := rng.New(3)
	u := la.NewMatrix(users, k)
	v := la.NewMatrix(items, k)
	stream.FillNorm(u.Data)
	stream.FillNorm(v.Data)
	ckpt := &core.Checkpoint{K: k, U: u, V: v, Seed: 1}
	coo := sparse.NewCOO(users, items, 4)
	for j := 0; j < items; j++ {
		coo.Add(0, j, 3)
	}
	coo.Add(1, 0, 4)
	m, err := NewModel(ckpt, Options{Exclude: coo.ToCSR()})
	if err != nil {
		t.Fatal(err)
	}
	top, err := m.Recommend(0, 5)
	if err != nil || top != nil {
		t.Fatalf("fully-rated user: got %v, %v", top, err)
	}
	top, err = m.Recommend(1, 5)
	if err != nil || len(top) != 2 {
		t.Fatalf("user 1 should get the 2 unrated items, got %v, %v", top, err)
	}
}

// writeCheckpointFile writes ckpt to path atomically (temp + rename), the
// pattern a production trainer would use next to a live server.
func writeCheckpointFile(t *testing.T, path string, ckpt *core.Checkpoint) {
	t.Helper()
	var buf bytes.Buffer
	if err := ckpt.Write(&buf); err != nil {
		t.Fatal(err)
	}
	tmp := path + ".tmp"
	if err := os.WriteFile(tmp, buf.Bytes(), 0o644); err != nil {
		t.Fatal(err)
	}
	if err := os.Rename(tmp, path); err != nil {
		t.Fatal(err)
	}
}

// TestServerHotSwapRaceClean hammers the query API from many goroutines
// while the main goroutine keeps swapping snapshots — the path the CI
// -race job pins.
func TestServerHotSwapRaceClean(t *testing.T) {
	ckptA, prob, cfg := trainedChain(t, 38, 4, 2)
	ckptB, _, _ := trainedChain(t, 38, 6, 2)
	path := filepath.Join(t.TempDir(), "model.ckpt")
	writeCheckpointFile(t, path, ckptA)
	srv, err := Open(path, modelOptions(prob, cfg))
	if err != nil {
		t.Fatal(err)
	}

	stop := make(chan struct{})
	var wg sync.WaitGroup
	for g := 0; g < 4; g++ {
		wg.Add(1)
		go func(g int) {
			defer wg.Done()
			for i := 0; ; i++ {
				select {
				case <-stop:
					return
				default:
				}
				m := srv.Model()
				user := (g*31 + i) % m.NumUsers()
				if _, err := m.Predict(user, i%m.NumItems()); err != nil {
					t.Error(err)
					return
				}
				if _, err := m.Recommend(user, 3); err != nil {
					t.Error(err)
					return
				}
				if _, err := m.FoldIn([]int32{0, 1}, []float64{4, 2}, i); err != nil {
					t.Error(err)
					return
				}
			}
		}(g)
	}
	for swap := 0; swap < 20; swap++ {
		next := ckptA
		if swap%2 == 0 {
			next = ckptB
		}
		writeCheckpointFile(t, path, next)
		if err := srv.Reload(); err != nil {
			t.Fatal(err)
		}
	}
	close(stop)
	wg.Wait()
	if got := srv.Reloads.Load(); got < 21 {
		t.Fatalf("expected >= 21 reloads, got %d", got)
	}
}

func TestServerReloadKeepsServingOnError(t *testing.T) {
	ckpt, prob, cfg := trainedChain(t, 39, 4, 2)
	path := filepath.Join(t.TempDir(), "model.ckpt")
	writeCheckpointFile(t, path, ckpt)
	srv, err := Open(path, modelOptions(prob, cfg))
	if err != nil {
		t.Fatal(err)
	}
	before := srv.Model()
	if err := os.WriteFile(path, []byte("corrupt"), 0o644); err != nil {
		t.Fatal(err)
	}
	if err := srv.Reload(); err == nil {
		t.Fatal("expected reload error on corrupt checkpoint")
	}
	if srv.Model() != before {
		t.Fatal("failed reload must keep the previous snapshot serving")
	}
	// Recovery: a good file reloads again.
	writeCheckpointFile(t, path, ckpt)
	if err := srv.Reload(); err != nil {
		t.Fatal(err)
	}
	if srv.Model() == before {
		t.Fatal("recovered reload did not swap the snapshot")
	}
}

func TestServerWatchPicksUpFileChange(t *testing.T) {
	ckptA, prob, cfg := trainedChain(t, 40, 4, 2)
	ckptB, _, _ := trainedChain(t, 40, 6, 2)
	path := filepath.Join(t.TempDir(), "model.ckpt")
	writeCheckpointFile(t, path, ckptA)
	srv, err := Open(path, modelOptions(prob, cfg))
	if err != nil {
		t.Fatal(err)
	}
	ctx, cancel := context.WithCancel(context.Background())
	defer cancel()
	done := make(chan struct{})
	go func() {
		defer close(done)
		srv.Watch(ctx, 5*time.Millisecond, nil)
	}()
	writeCheckpointFile(t, path, ckptB)
	// Nudge mtime far forward in case the filesystem's granularity hides
	// the rewrite.
	future := time.Now().Add(time.Hour)
	if err := os.Chtimes(path, future, future); err != nil {
		t.Fatal(err)
	}
	deadline := time.After(5 * time.Second)
	for srv.Reloads.Load() < 2 {
		select {
		case <-deadline:
			t.Fatal("watcher never picked up the new checkpoint")
		case <-time.After(5 * time.Millisecond):
		}
	}
	cancel()
	<-done
}

// startWatch runs srv.Watch on its own goroutine; the returned stop
// cancels it and waits until Watch has returned.
func startWatch(srv *Server, interval time.Duration) (stop func()) {
	ctx, cancel := context.WithCancel(context.Background())
	done := make(chan struct{})
	go func() {
		defer close(done)
		srv.Watch(ctx, interval, nil)
	}()
	return func() { cancel(); <-done }
}

// waitReloads waits up to limit for srv to have swapped want snapshots
// in (the initial load is the first).
func waitReloads(t *testing.T, srv *Server, want int64, limit time.Duration, what string) {
	t.Helper()
	deadline := time.Now().Add(limit)
	for srv.Reloads.Load() < want {
		if time.Now().After(deadline) {
			t.Fatalf("%s was not reloaded within %s (reloads %d, want %d)", what, limit, srv.Reloads.Load(), want)
		}
		time.Sleep(time.Millisecond)
	}
}

// TestServerWatchTickerAlone changes only the served file's mtime. On
// Linux that is an IN_ATTRIB event, which fileWake does not ask for, so
// the reload must come from the ticker: TestServerWatchPicksUpFileChange
// renames, and there the rename's wake would hide a dead ticker. Watch
// checks the file once on entry, which may load the first change; once
// that reload is counted the loop is running, and only the ticker can
// load the second.
func TestServerWatchTickerAlone(t *testing.T) {
	ckpt, prob, cfg := trainedChain(t, 40, 4, 2)
	path := filepath.Join(t.TempDir(), "model.ckpt")
	writeCheckpointFile(t, path, ckpt)
	srv, err := Open(path, modelOptions(prob, cfg))
	if err != nil {
		t.Fatal(err)
	}
	defer startWatch(srv, 5*time.Millisecond)()
	for want := int64(2); want <= 3; want++ {
		mtime := time.Now().Add(time.Duration(want) * time.Hour)
		if err := os.Chtimes(path, mtime, mtime); err != nil {
			t.Fatal(err)
		}
		waitReloads(t, srv, want, 5*time.Second, "a file whose mtime changed")
	}
}

// TestRecommendRanksRawScoresUnderClamping pins the fix for the
// clamp-before-rank bug: with clamping enabled, items predicted above
// ClampMax must still rank by raw preference, not collapse into an
// index-order tie at ClampMax. Reported scores are clamped.
func TestRecommendRanksRawScoresUnderClamping(t *testing.T) {
	ckpt, prob, cfg := trainedChain(t, 45, 4, 2)
	raw, err := NewModel(ckpt, modelOptions(prob, cfg))
	if err != nil {
		t.Fatal(err)
	}
	optsClamped := modelOptions(prob, cfg)
	// A range so narrow that many predictions clip at both ends.
	optsClamped.ClampMin, optsClamped.ClampMax = -0.1, 0.1
	clamped, err := NewModel(ckpt, optsClamped)
	if err != nil {
		t.Fatal(err)
	}
	for user := 0; user < raw.NumUsers(); user += 53 {
		a, err := raw.Recommend(user, 10)
		if err != nil {
			t.Fatal(err)
		}
		b, err := clamped.Recommend(user, 10)
		if err != nil {
			t.Fatal(err)
		}
		if len(a) != len(b) {
			t.Fatalf("user %d: %d vs %d items", user, len(a), len(b))
		}
		for i := range a {
			if a[i].Index != b[i].Index {
				t.Fatalf("user %d rank %d: clamping changed the ranking (%d vs %d)",
					user, i, a[i].Index, b[i].Index)
			}
			if b[i].Score < -0.1 || b[i].Score > 0.1 {
				t.Fatalf("user %d rank %d: reported score %v not clamped", user, i, b[i].Score)
			}
		}
	}
}

// TestNewModelRefusesInvertedClamp: an inverted clamp range is refused,
// not served unclipped; an empty one ([3, 3], or the zero value) is off.
func TestNewModelRefusesInvertedClamp(t *testing.T) {
	ckpt, prob, cfg := trainedChain(t, 47, 4, 2)
	for _, r := range [][2]float64{{5, 1}, {0, -1}} {
		opts := modelOptions(prob, cfg)
		opts.ClampMin, opts.ClampMax = r[0], r[1]
		if _, err := NewModel(ckpt, opts); !errors.Is(err, ErrBadInput) {
			t.Errorf("clamp [%g, %g]: NewModel returned %v, want ErrBadInput", r[0], r[1], err)
		}
	}
	raw, err := NewModel(ckpt, modelOptions(prob, cfg))
	if err != nil {
		t.Fatal(err)
	}
	opts := modelOptions(prob, cfg)
	opts.ClampMin, opts.ClampMax = 3, 3
	empty, err := NewModel(ckpt, opts)
	if err != nil {
		t.Fatal(err)
	}
	a, _ := raw.Predict(0, 0)
	b, _ := empty.Predict(0, 0)
	if a.Score != b.Score {
		t.Fatalf("clamp [3, 3] changed a score: %v vs %v", b.Score, a.Score)
	}
}

// TestServerPinSeedRejectsRetrainedChain pins the reload-misalignment
// fix: when the test split was derived from a specific training seed, a
// hot reload of a checkpoint trained under another seed must fail and
// keep the old snapshot serving.
func TestServerPinSeedRejectsRetrainedChain(t *testing.T) {
	ckpt, prob, cfg := trainedChain(t, 46, 4, 2)
	// Identical shapes, different seed: only the seed pin can catch it.
	otherSeed := *ckpt
	otherSeed.Seed = ckpt.Seed + 1
	path := filepath.Join(t.TempDir(), "model.ckpt")
	writeCheckpointFile(t, path, ckpt)
	opts := modelOptions(prob, cfg)
	opts.Lineage = &Lineage{Seed: cfg.Seed}
	srv, err := Open(path, opts)
	if err != nil {
		t.Fatal(err)
	}
	before := srv.Model()
	writeCheckpointFile(t, path, &otherSeed)
	if err := srv.Reload(); !errors.Is(err, ErrBadInput) {
		t.Fatalf("expected seed-pin rejection, got %v", err)
	}
	if srv.Model() != before {
		t.Fatal("rejected reload must keep the previous snapshot")
	}
}

// TestResumeThenServeRoundTrip is the satellite end-to-end: checkpoint
// mid-run, serialize, resume to completion, serialize again, serve — the
// served scores must be the finished chain's factors exactly.
func TestResumeThenServeRoundTrip(t *testing.T) {
	ds := datagen.Generate(datagen.Small(44))
	train, test := sparse.SplitTrainTest(ds.R, 0.2, 44)
	prob := core.NewProblem(train, test)
	cfg := core.DefaultConfig()
	cfg.K = 8
	cfg.Iters = 8
	cfg.Burnin = 3
	cfg.Seed = 44

	// Straight run for reference.
	ref, err := core.NewSampler(cfg, prob)
	if err != nil {
		t.Fatal(err)
	}
	want := ref.Run()

	// Interrupted run: 4 iterations, serialize, resume, finish, serve.
	s, err := core.NewSampler(cfg, prob)
	if err != nil {
		t.Fatal(err)
	}
	for it := 0; it < 4; it++ {
		s.Step(it)
	}
	var buf bytes.Buffer
	if err := s.Checkpoint().Write(&buf); err != nil {
		t.Fatal(err)
	}
	mid, err := core.ReadCheckpoint(&buf)
	if err != nil {
		t.Fatal(err)
	}
	resumed, err := core.ResumeSamplerGrown(cfg, prob, mid)
	if err != nil {
		t.Fatal(err)
	}
	resumed.RunFrom(mid.NextIter)

	var final bytes.Buffer
	if err := resumed.Checkpoint().Write(&final); err != nil {
		t.Fatal(err)
	}
	ckpt, err := core.ReadCheckpoint(&final)
	if err != nil {
		t.Fatal(err)
	}
	m, err := NewModel(ckpt, Options{Alpha: cfg.Alpha, Exclude: prob.R, Test: prob.Test})
	if err != nil {
		t.Fatal(err)
	}
	for user := 0; user < m.NumUsers(); user += 97 {
		for item := 0; item < m.NumItems(); item += 41 {
			p, err := m.Predict(user, item)
			if err != nil {
				t.Fatal(err)
			}
			if wantScore := la.Dot(want.U.Row(user), want.V.Row(item)); p.Score != wantScore {
				t.Fatalf("(%d,%d): served %v != uninterrupted chain %v", user, item, p.Score, wantScore)
			}
		}
	}
}
