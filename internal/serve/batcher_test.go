package serve

import (
	"errors"
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

// TestBatcherConcurrentMixedTrafficAcrossHotReload is the -race stress
// test and pins the snapshot contract: with four scoring slots, 16
// goroutines of mixed Recommend / RecommendVector / Predict traffic go
// through the gate (twelve of them waiting for a slot at any moment)
// while the model is hot-reloaded under them. Every answer must equal
// the Model call on the snapshot the caller grabbed — never a mix of two
// models.
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
	b := NewBatcher(BatchOptions{QueueBound: 4096})
	if cap(b.slots) != 4 {
		t.Fatalf("%d scoring slots, want GOMAXPROCS = 4", cap(b.slots))
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
				// gated call used — a reload in between must not matter.
				m := srv.Model()
				var got, want []rank.Item
				var err error
				switch it % 3 {
				case 0:
					// Predicts go to the model, past the gate.
					if _, err := m.Predict(stream.Intn(m.NumUsers()), stream.Intn(m.NumItems())); err != nil {
						t.Errorf("worker %d it %d: predict: %v", w, it, err)
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
// block until the test opens the gate. A ranking looks its user's
// exclusion list up inside its scoring slot, just before rank.Recommend,
// so a closed gate parks every ranking that holds a slot, and the number
// of lookups inside at once is the number of rankings in flight.
type gateExcluder struct {
	users, items int
	gate         chan struct{} // closing it lets every lookup through
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
	return syntheticModel(t, g.users, g.items, 4, Options{Exclude: g}), g
}

// parkRanking issues one Recommend that takes a free scoring slot and
// waits until it is parked at the gate, inside the slot.
func parkRanking(t *testing.T, b *Batcher, m *Model, g *gateExcluder, wg *sync.WaitGroup, user int, out *error) {
	t.Helper()
	wg.Add(1)
	go func() {
		defer wg.Done()
		_, *out = b.Recommend(m, user, 5)
	}()
	select {
	case <-g.entered:
	case <-time.After(5 * time.Second):
		t.Fatal("the ranking never reached the gate")
	}
}

// waitState polls until the gate holds exactly slots scoring slots and
// waiting callers in line.
func waitState(t *testing.T, b *Batcher, slots, waiting int) {
	t.Helper()
	for deadline := time.Now().Add(5 * time.Second); ; time.Sleep(time.Millisecond) {
		s, w := len(b.slots), int(b.waiting.Load())
		if s == slots && w == waiting {
			return
		}
		if time.Now().After(deadline) {
			t.Fatalf("%d slots held and %d waiting, want %d and %d", s, w, slots, waiting)
		}
	}
}

// TestBatcherFlushesConcurrentlyUpToBound: two rankings arriving at an
// idle two-slot gate are both inside their scan at once — neither waits
// for the other — and whatever arrives after the slots are taken waits
// in line instead of starting a third scan. Once the gate opens every
// waiter completes, never more than two at a time, and nobody is left
// waiting or holding a slot.
func TestBatcherFlushesConcurrentlyUpToBound(t *testing.T) {
	defer runtime.GOMAXPROCS(runtime.GOMAXPROCS(2))
	m, g := gatedModel(t)
	b := NewBatcher(BatchOptions{QueueBound: 64})

	var wg sync.WaitGroup
	errs := make([]error, 6)
	parkRanking(t, b, m, g, &wg, 0, &errs[0])
	parkRanking(t, b, m, g, &wg, 1, &errs[1]) // returns only once two rankings are in flight
	if in := g.inside.Load(); in != 2 {
		t.Fatalf("%d rankings in flight, want 2", in)
	}
	for i := 2; i < 6; i++ {
		wg.Add(1)
		go func(i int) {
			defer wg.Done()
			_, errs[i] = b.Recommend(m, i, 5)
		}(i)
	}
	waitState(t, b, 2, 4)
	if in := g.inside.Load(); in != 2 {
		t.Fatalf("%d rankings in flight with four callers waiting, want 2", in)
	}
	close(g.gate)
	wg.Wait()
	for i, err := range errs {
		if err != nil {
			t.Fatalf("request %d: %v", i, err)
		}
	}
	if peak := g.peak.Load(); peak != 2 {
		t.Fatalf("peak of %d concurrent rankings, want exactly the bound 2", peak)
	}
	waitState(t, b, 0, 0)
}

// TestBatcherShedsAtQueueBoundAndRecovers is the overload drill: with
// every scoring slot parked and QueueBound callers waiting for one, the
// next ranking is shed synchronously with the configured Retry-After
// hint instead of joining the line, while what takes no slot — a
// Model.Predict, a ranking of n = 0, a user out of range — is still
// answered; once the gate opens every waiter completes and the gate
// serves normally again.
func TestBatcherShedsAtQueueBoundAndRecovers(t *testing.T) {
	m, g := gatedModel(t)
	b := NewBatcher(BatchOptions{QueueBound: 3, RetryAfter: 7 * time.Second})
	slots := cap(b.slots)

	var wg sync.WaitGroup
	results := make([]error, slots+3)
	for i := 0; i < slots; i++ {
		parkRanking(t, b, m, g, &wg, i%m.NumUsers(), &results[i])
	}
	for i := slots; i < len(results); i++ {
		wg.Add(1)
		go func(i int) {
			defer wg.Done()
			_, results[i] = b.Recommend(m, i%m.NumUsers(), 5)
		}(i)
	}
	waitState(t, b, slots, 3)

	// One more ranking, by user row and by vector: shed, synchronously,
	// with the configured hint.
	_, err := b.Recommend(m, 9, 5)
	_, verr := b.RecommendVector(m, la.NewVector(m.K()), nil, 5)
	for _, err := range []error{err, verr} {
		var shed *Shed
		if !errors.As(err, &shed) {
			t.Fatalf("expected a *Shed at the queue bound, got %v", err)
		}
		if shed.RateLimited || shed.RetryAfter != 7*time.Second {
			t.Fatalf("unexpected shed: %+v", shed)
		}
	}
	// What needs no slot is answered at the same moment, not shed.
	if _, err := m.Predict(1, 2); err != nil {
		t.Fatalf("predict at the queue bound: %v", err)
	}
	if top, err := b.Recommend(m, 9, 0); err != nil || top != nil {
		t.Fatalf("n = 0 at the queue bound: %v (%v)", top, err)
	}
	if _, err := b.Recommend(m, m.NumUsers(), 5); !errors.Is(err, ErrUserRange) {
		t.Fatalf("user out of range at the queue bound: %v, want ErrUserRange", err)
	}
	waitState(t, b, slots, 3) // the sheds and the answers left the line as it was

	close(g.gate)
	wg.Wait()
	for i, err := range results {
		if err != nil {
			t.Fatalf("waiting request %d failed: %v", i, err)
		}
	}
	waitState(t, b, 0, 0)

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
	b := NewBatcher(BatchOptions{Rate: 2, Burst: 2})
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
	open := NewBatcher(BatchOptions{})
	for i := 0; i < 100; i++ {
		if err := open.Admit("10.0.0.1"); err != nil {
			t.Fatalf("unlimited gate shed: %v", err)
		}
	}
}

// TestBatcherErrorShapesMatchUnbatched pins the validation contract:
// bad requests through the gate fail with the Model methods' errors,
// without taking a scoring slot.
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
	if len(b.slots) != 0 || b.waiting.Load() != 0 {
		t.Fatalf("%d slots held, %d waiting after requests that scan nothing", len(b.slots), b.waiting.Load())
	}
}
