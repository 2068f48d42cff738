package serve

import (
	"errors"
	"fmt"
	"path/filepath"
	"runtime"
	"sync"
	"sync/atomic"
	"testing"
	"time"

	"repro/internal/core"
	"repro/internal/la"
	"repro/internal/rank"
	"repro/internal/rng"
)

// syntheticModel builds a serving model from a synthetic checkpoint of
// chosen dimensions, so tests can place the catalog size exactly on and
// around the scoring panel boundaries.
func syntheticModel(t *testing.T, users, items, k int, opts Options) *Model {
	t.Helper()
	stream := rng.New(uint64(users*1000 + items))
	u := la.NewMatrix(users, k)
	v := la.NewMatrix(items, k)
	stream.FillNorm(u.Data)
	stream.FillNorm(v.Data)
	m, err := NewModel(&core.Checkpoint{K: k, Seed: 9, NextIter: 3, U: u, V: v}, opts)
	if err != nil {
		t.Fatal(err)
	}
	return m
}

// sameItems fails unless got and want are bit-identical ranked lists.
func sameItems(t *testing.T, label string, got, want []rank.Item) {
	t.Helper()
	if len(got) != len(want) {
		t.Fatalf("%s: %d items, want %d", label, len(got), len(want))
	}
	for i := range want {
		if got[i] != want[i] {
			t.Fatalf("%s: rank %d: %+v != %+v", label, i, got[i], want[i])
		}
	}
}

// TestBatchedRecommendBitIdenticalAtFixedSizes is the differential
// acceptance test for the flush core: handcrafted batches of exactly
// 1/2/3/4/5/16/64 requests — partial and full kernel blocks, over
// catalogs sitting on and around the 64-item panel boundary — must
// complete every job bit-identically to the unbatched per-request path,
// including fold-in vector recommends with explicit exclusion lists.
func TestBatchedRecommendBitIdenticalAtFixedSizes(t *testing.T) {
	for _, items := range []int{63, 64, 65, 200} {
		m := syntheticModel(t, 40, items, 8, Options{ClampEnabled: true, ClampMin: 1, ClampMax: 5})
		stream := rng.New(uint64(items))
		for _, size := range []int{1, 2, 3, 4, 5, 16, 64} {
			batch := make([]*scoreJob, size)
			for i := range batch {
				if i%5 == 4 {
					vec := la.NewVector(m.K())
					stream.FillNorm(vec)
					excl := []int32{0, int32(1 + stream.Intn(items-1))}
					batch[i] = &scoreJob{m: m, vec: vec, excl: excl,
						n: 1 + stream.Intn(10), done: make(chan struct{})}
				} else {
					batch[i] = &scoreJob{m: m, user: stream.Intn(m.NumUsers()),
						n: 1 + stream.Intn(10), done: make(chan struct{})}
				}
			}
			run(batch)
			for i, j := range batch {
				label := fmt.Sprintf("items=%d size=%d job=%d", items, size, i)
				select {
				case <-j.done:
				default:
					t.Fatalf("%s: job not completed", label)
				}
				if j.err != nil {
					t.Fatalf("%s: %v", label, j.err)
				}
				var want []rank.Item
				var err error
				if j.vec != nil {
					want, err = m.RecommendVector(j.vec, j.excl, j.n)
				} else {
					want, err = m.Recommend(j.user, j.n)
				}
				if err != nil {
					t.Fatal(err)
				}
				sameItems(t, label, j.items, want)
			}
		}
	}
}

// TestBatcherConcurrentMixedTrafficAcrossHotReload is the -race stress
// test and pins the snapshot-capture contract: with four flusher slots,
// 16 goroutines of mixed Recommend / RecommendVector / Predict traffic
// run through the real coalescing machinery (whatever batches happen to
// form, on whichever flusher) while the model is hot-reloaded under
// them. Every answer must equal the unbatched call on the snapshot the
// caller grabbed — never a mix of two models.
func TestBatcherConcurrentMixedTrafficAcrossHotReload(t *testing.T) {
	defer runtime.GOMAXPROCS(runtime.GOMAXPROCS(4))
	ckptA, prob, cfg := trainedChain(t, 51, 6, 3)
	// Same problem, longer chain: a genuinely different snapshot that the
	// serving options still accept.
	ckptB, _, _ := trainedChain(t, 51, 9, 3)
	dir := t.TempDir()
	path := filepath.Join(dir, "model.ckpt")
	writeCheckpointFile(t, path, ckptA)
	srv, err := Open(path, modelOptions(prob, cfg))
	if err != nil {
		t.Fatal(err)
	}
	b := NewBatcher(BatchOptions{MaxBatch: 8, MaxDelay: 100 * time.Microsecond, QueueBound: 4096})
	if b.maxFlushers != 4 {
		t.Fatalf("flusher bound %d, want GOMAXPROCS = 4", b.maxFlushers)
	}

	var stop atomic.Bool
	var wg sync.WaitGroup
	for w := 0; w < 16; w++ {
		wg.Add(1)
		go func(w int) {
			defer wg.Done()
			stream := rng.New(uint64(300 + w))
			for it := 0; !stop.Load(); it++ {
				// The reference is computed against the same snapshot the
				// batched call used — a reload in between must not matter.
				m := srv.Model()
				var got, want []rank.Item
				var err error
				switch it % 3 {
				case 0:
					user, item := stream.Intn(m.NumUsers()), stream.Intn(m.NumItems())
					gp, err := b.Predict(m, user, item)
					wp, werr := m.Predict(user, item)
					if err != nil || werr != nil || gp != wp {
						t.Errorf("worker %d it %d: predict %+v (%v) != %+v (%v)", w, it, gp, err, wp, werr)
						return
					}
					continue
				case 1:
					user, n := stream.Intn(m.NumUsers()), 1+stream.Intn(20)
					got, err = b.Recommend(m, user, n)
					want, _ = m.Recommend(user, n)
				default:
					vec := la.NewVector(m.K())
					stream.FillNorm(vec)
					excl := []int32{int32(stream.Intn(m.NumItems()))}
					n := 1 + stream.Intn(10)
					got, err = b.RecommendVector(m, vec, excl, n)
					want, _ = m.RecommendVector(vec, excl, n)
				}
				if err != nil {
					t.Errorf("worker %d it %d: %v", w, it, err)
					return
				}
				if len(got) != len(want) {
					t.Errorf("worker %d it %d: %d items != %d", w, it, len(got), len(want))
					return
				}
				for i := range want {
					if got[i] != want[i] {
						t.Errorf("worker %d it %d rank %d: %+v != %+v", w, it, i, got[i], want[i])
						return
					}
				}
			}
		}(w)
	}
	for r := 0; r < 10; r++ {
		if r%2 == 0 {
			writeCheckpointFile(t, path, ckptB)
		} else {
			writeCheckpointFile(t, path, ckptA)
		}
		if err := srv.Reload(); err != nil {
			t.Fatal(err)
		}
		time.Sleep(2 * time.Millisecond)
	}
	stop.Store(true)
	wg.Wait()
}

// gateExcluder is an exclusion source (excluding nothing) whose lookups
// block until the test opens the gate. A flusher looks its jobs'
// exclusion lists up one after another before it scores, so a closed
// gate parks every flusher at the start of its round, and the number of
// lookups inside at once is the number of flushes in flight.
type gateExcluder struct {
	users, items int
	gate         chan struct{} // a send lets one lookup through, closing it lets all through
	entered      chan struct{} // one token per lookup that reached the gate; buffered past any test's lookup count so it never blocks one
	inside, peak atomic.Int32
}

func (g *gateExcluder) Dims() (int, int) { return g.users, g.items }

func (g *gateExcluder) AppendRowCols(dst []int32, user int) ([]int32, error) {
	n := g.inside.Add(1)
	for p := g.peak.Load(); n > p && !g.peak.CompareAndSwap(p, n); p = g.peak.Load() {
	}
	g.entered <- struct{}{}
	<-g.gate
	g.inside.Add(-1)
	return dst, nil
}

// gatedModel returns a synthetic model whose exclusion lookups go
// through a closed gate, and the gate.
func gatedModel(t *testing.T) (*Model, *gateExcluder) {
	t.Helper()
	g := &gateExcluder{users: 10, items: 100, gate: make(chan struct{}), entered: make(chan struct{}, 1024)}
	return syntheticModel(t, g.users, g.items, 4, Options{ExcludeSource: g}), g
}

// parkFlusher issues one Recommend that takes a free flusher slot and
// waits until its flush is parked at the gate.
func parkFlusher(t *testing.T, b *Batcher, m *Model, g *gateExcluder, wg *sync.WaitGroup, user int, out *error) {
	t.Helper()
	wg.Add(1)
	go func() {
		defer wg.Done()
		_, *out = b.Recommend(m, user, 5)
	}()
	select {
	case <-g.entered:
	case <-time.After(5 * time.Second):
		t.Fatal("flusher never reached the gate")
	}
}

// waitQueued polls until the batcher's queue holds depth jobs and
// returns the number of active flushers seen at that moment.
func waitQueued(t *testing.T, b *Batcher, depth int) int {
	t.Helper()
	for deadline := time.Now().Add(5 * time.Second); ; time.Sleep(time.Millisecond) {
		b.mu.Lock()
		got, flushers := len(b.queue), b.flushers
		b.mu.Unlock()
		if got == depth {
			return flushers
		}
		if time.Now().After(deadline) {
			t.Fatalf("queue depth %d, want %d", got, depth)
		}
	}
}

// waitIdle polls until every flusher slot is given back (the goroutine
// that drains a pile-up releases its slot just after the last answer).
func waitIdle(t *testing.T, b *Batcher) {
	t.Helper()
	for deadline := time.Now().Add(5 * time.Second); ; time.Sleep(time.Millisecond) {
		b.mu.Lock()
		queued, flushers := len(b.queue), b.flushers
		b.mu.Unlock()
		if queued == 0 && flushers == 0 {
			return
		}
		if time.Now().After(deadline) {
			t.Fatalf("%d queued, %d flusher slots held, want an idle batcher", queued, flushers)
		}
	}
}

// TestBatcherFlushesConcurrentlyUpToBound: two requests arriving at an
// idle two-slot batcher are both being flushed at once — neither waits
// for the other — and whatever arrives after the slots are taken queues
// instead of starting a third flush.
func TestBatcherFlushesConcurrentlyUpToBound(t *testing.T) {
	defer runtime.GOMAXPROCS(runtime.GOMAXPROCS(2))
	m, g := gatedModel(t)
	b := NewBatcher(BatchOptions{MaxBatch: 4, QueueBound: 64})

	var wg sync.WaitGroup
	errs := make([]error, 6)
	parkFlusher(t, b, m, g, &wg, 0, &errs[0])
	parkFlusher(t, b, m, g, &wg, 1, &errs[1]) // returns only once two flushes are in flight
	if in := g.inside.Load(); in != 2 {
		t.Fatalf("%d flushes in flight, want 2", in)
	}
	for i := 2; i < 6; i++ {
		wg.Add(1)
		go func(i int) {
			defer wg.Done()
			_, errs[i] = b.Recommend(m, i, 5)
		}(i)
	}
	if flushers := waitQueued(t, b, 4); flushers != 2 {
		t.Fatalf("%d active flushers with both slots taken, want 2", flushers)
	}
	close(g.gate)
	wg.Wait()
	for i, err := range errs {
		if err != nil {
			t.Fatalf("request %d: %v", i, err)
		}
	}
	if peak := g.peak.Load(); peak != 2 {
		t.Fatalf("peak of %d concurrent flushes, want exactly the bound 2", peak)
	}
	waitIdle(t, b)
}

// TestFlusherAnswersAfterItsOwnRound: a caller that took a flusher slot
// gets its answer when the round holding its own job is done, though
// requests that queued up behind it are still being ranked — that drain
// runs on a goroutine of its own and gives the slot back when it ends.
func TestFlusherAnswersAfterItsOwnRound(t *testing.T) {
	defer runtime.GOMAXPROCS(runtime.GOMAXPROCS(1))
	m, g := gatedModel(t)
	b := NewBatcher(BatchOptions{MaxBatch: 4, QueueBound: 64})

	var first, rest sync.WaitGroup
	errs := make([]error, 3)
	parkFlusher(t, b, m, g, &first, 0, &errs[0]) // holds the only slot
	for i := 1; i < 3; i++ {
		rest.Add(1)
		go func(i int) {
			defer rest.Done()
			_, errs[i] = b.Recommend(m, i, 5)
		}(i)
	}
	waitQueued(t, b, 2)

	g.gate <- struct{}{} // the first caller's round, and only that, goes through
	answered := make(chan struct{})
	go func() { first.Wait(); close(answered) }()
	select {
	case <-answered:
	case <-time.After(5 * time.Second):
		t.Fatal("the flusher's own response waited on the requests queued behind it")
	}
	select { // those are being ranked meanwhile, parked at the gate
	case <-g.entered:
	case <-time.After(5 * time.Second):
		t.Fatal("nobody took over the queued requests")
	}
	if flushers := waitQueued(t, b, 0); flushers != 1 {
		t.Fatalf("%d flusher slots held during the drain, want 1", flushers)
	}

	close(g.gate)
	rest.Wait()
	for i, err := range errs {
		if err != nil {
			t.Fatalf("request %d: %v", i, err)
		}
	}
	waitIdle(t, b)
}

// TestBatcherShedsAtQueueBoundAndRecovers is the overload drill: with
// every flusher slot busy and the queue at its SLO bound, the next
// scored request is shed synchronously with a Retry-After hint instead
// of queuing unboundedly, while Predict — which never queues — is still
// served; once the queue drains the batcher serves normally again.
func TestBatcherShedsAtQueueBoundAndRecovers(t *testing.T) {
	m, g := gatedModel(t)
	b := NewBatcher(BatchOptions{MaxBatch: 4, QueueBound: 3, RetryAfter: 7 * time.Second})

	var wg sync.WaitGroup
	results := make([]error, b.maxFlushers+3)
	for i := 0; i < b.maxFlushers; i++ {
		parkFlusher(t, b, m, g, &wg, i%m.NumUsers(), &results[i])
	}
	for i := b.maxFlushers; i < len(results); i++ {
		wg.Add(1)
		go func(i int) {
			defer wg.Done()
			_, results[i] = b.Recommend(m, i%m.NumUsers(), 5)
		}(i)
	}
	waitQueued(t, b, 3)

	// One more scored request: shed, synchronously, with the configured hint.
	_, err := b.Recommend(m, 9, 5)
	var shed *Shed
	if !errors.As(err, &shed) {
		t.Fatalf("expected a *Shed at the queue bound, got %v", err)
	}
	if shed.RateLimited || shed.RetryAfter != 7*time.Second {
		t.Fatalf("unexpected shed: %+v", shed)
	}
	// A predict at the same moment is served: it has no queue slot to be refused.
	p, err := b.Predict(m, 1, 2)
	if want, _ := m.Predict(1, 2); err != nil || p != want {
		t.Fatalf("predict at the queue bound: %+v (%v), want %+v", p, err, want)
	}

	close(g.gate)
	wg.Wait()
	for i, err := range results {
		if err != nil {
			t.Fatalf("queued request %d failed: %v", i, err)
		}
	}

	// Recovery: steady-state service resumes after the burst.
	got, err := b.Recommend(m, 0, 5)
	if err != nil {
		t.Fatal(err)
	}
	want, _ := m.Recommend(0, 5)
	sameItems(t, "post-burst", got, want)
}

// TestAdmitRateLimitsPerClient drives the token bucket with an
// injected clock: within one bucket window a client is admitted burst
// times and then shed with the exact refill time; other clients are
// unaffected; time passing refills the bucket.
func TestAdmitRateLimitsPerClient(t *testing.T) {
	b := NewBatcher(BatchOptions{MaxBatch: 4, Rate: 2, Burst: 2})
	now := time.Unix(1000, 0)
	b.lim.now = func() time.Time { return now }

	if err := b.Admit("10.0.0.1"); err != nil {
		t.Fatalf("first: %v", err)
	}
	if err := b.Admit("10.0.0.1"); err != nil {
		t.Fatalf("second (burst): %v", err)
	}
	err := b.Admit("10.0.0.1")
	var shed *Shed
	if !errors.As(err, &shed) || !shed.RateLimited {
		t.Fatalf("third should rate-limit, got %v", err)
	}
	// Empty bucket at 2 tokens/s: the next token is 500ms away.
	if shed.RetryAfter != 500*time.Millisecond {
		t.Fatalf("retry-after %s, want 500ms", shed.RetryAfter)
	}
	// A different client has its own bucket.
	if err := b.Admit("10.0.0.2"); err != nil {
		t.Fatalf("other client: %v", err)
	}
	// One second later the first client has 2 tokens again (capped at burst).
	now = now.Add(time.Second)
	if err := b.Admit("10.0.0.1"); err != nil {
		t.Fatalf("after refill: %v", err)
	}
	// Rate 0 admits everyone.
	open := NewBatcher(BatchOptions{MaxBatch: 1})
	for i := 0; i < 100; i++ {
		if err := open.Admit("10.0.0.1"); err != nil {
			t.Fatalf("unlimited batcher shed: %v", err)
		}
	}
}

// TestBatcherUnbatchedMode pins the MaxBatch=1 escape hatch (the
// measurable baseline): requests bypass the queue entirely and answer
// through the per-request path.
func TestBatcherUnbatchedMode(t *testing.T) {
	m := syntheticModel(t, 10, 100, 4, Options{})
	b := NewBatcher(BatchOptions{MaxBatch: 1, QueueBound: 1})
	for i := 0; i < 5; i++ {
		got, err := b.Recommend(m, i, 5)
		if err != nil {
			t.Fatal(err)
		}
		want, _ := m.Recommend(i, 5)
		sameItems(t, "unbatched", got, want)
		p, err := b.Predict(m, i, i)
		wp, _ := m.Predict(i, i)
		if err != nil || p != wp {
			t.Fatalf("predict %+v != %+v (%v)", p, wp, err)
		}
	}
	b.mu.Lock()
	depth := len(b.queue)
	b.mu.Unlock()
	if depth != 0 {
		t.Fatalf("unbatched mode queued %d jobs", depth)
	}
}

// TestBatcherErrorShapesMatchUnbatched pins the validation contract:
// bad requests through the batcher fail with the same errors as the
// unbatched methods, before any queuing.
func TestBatcherErrorShapesMatchUnbatched(t *testing.T) {
	m := syntheticModel(t, 10, 100, 4, Options{})
	b := NewBatcher(DefaultBatchOptions())
	if _, err := b.Recommend(m, -1, 5); !errors.Is(err, ErrUserRange) {
		t.Fatalf("negative user: %v", err)
	}
	if _, err := b.Recommend(m, 10, 5); !errors.Is(err, ErrUserRange) {
		t.Fatalf("user beyond rows: %v", err)
	}
	if items, err := b.Recommend(m, 3, 0); err != nil || items != nil {
		t.Fatalf("n=0 must be a nil no-op, got %v (%v)", items, err)
	}
	if _, err := b.RecommendVector(m, la.NewVector(3), nil, 5); !errors.Is(err, ErrBadInput) {
		t.Fatalf("short vector: %v", err)
	}
	if _, err := b.Predict(m, 0, 100); !errors.Is(err, ErrItemRange) {
		t.Fatalf("item beyond rows: %v", err)
	}
}
