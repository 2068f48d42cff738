package sched

import (
	"fmt"
	"sync"
	"sync/atomic"
	"testing"
	"testing/quick"
	"time"
)

func TestDequeSingleThreadLIFO(t *testing.T) {
	var d deque
	order := []int{}
	for i := 0; i < 5; i++ {
		i := i
		d.push(func(*Worker) { order = append(order, i) })
	}
	for {
		task := d.pop()
		if task == nil {
			break
		}
		task(nil)
	}
	// Owner pops from the bottom: LIFO.
	want := []int{4, 3, 2, 1, 0}
	for i := range want {
		if order[i] != want[i] {
			t.Fatalf("pop order %v, want %v", order, want)
		}
	}
}

func TestDequeStealFIFO(t *testing.T) {
	var d deque
	order := []int{}
	for i := 0; i < 5; i++ {
		i := i
		d.push(func(*Worker) { order = append(order, i) })
	}
	for {
		task := d.steal()
		if task == nil {
			break
		}
		task(nil)
	}
	// Thieves take from the top: FIFO.
	for i := range order {
		if order[i] != i {
			t.Fatalf("steal order %v", order)
		}
	}
}

func TestDequeGrowth(t *testing.T) {
	var d deque
	n := 5000 // many times the slice's first sizes
	var count int
	for i := 0; i < n; i++ {
		d.push(func(*Worker) { count++ })
	}
	if d.size() != n {
		t.Fatalf("size = %d, want %d", d.size(), n)
	}
	for {
		task := d.pop()
		if task == nil {
			break
		}
		task(nil)
	}
	if count != n {
		t.Fatalf("executed %d of %d after growth", count, n)
	}
}

func TestPoolRunsAllTasks(t *testing.T) {
	pool := NewPool(4)
	defer pool.Close()
	var count atomic.Int64
	pool.Run(func(w *Worker) {
		g := pool.NewGroup()
		for i := 0; i < 1000; i++ {
			g.Spawn(w, func(*Worker) { count.Add(1) })
		}
		g.Sync(w)
	})
	if count.Load() != 1000 {
		t.Fatalf("ran %d of 1000 tasks", count.Load())
	}
}

// parallelForShapes are the (lo, n, grain) ranges the ParallelFor tests
// split: empty, shorter than a grain, whole grains and remainders, from
// lo = 0 and from offsets that are not multiples of the grain.
var parallelForShapes = []struct{ lo, n, grain int }{
	{0, 0, 3}, {0, 1, 3}, {0, 7, 3}, {0, 100, 3}, {0, 10000, 3}, {0, 1000, 10},
	{5, 0, 8}, {5, 3, 8}, {5, 8, 8}, {5, 9, 8}, {13, 61, 8}, {1000, 4097, 8},
	{-7, 50, 1}, {3, 1023, 7}, {11, 640, 64}, {2, 641, 64},
}

func TestParallelForCoversRangeExactlyOnce(t *testing.T) {
	pool := NewPool(8)
	defer pool.Close()
	for _, c := range parallelForShapes {
		hits := make([]atomic.Int32, c.n)
		pool.ParallelFor(c.lo, c.lo+c.n, c.grain, func(_ *Worker, lo, hi int) {
			for i := lo; i < hi; i++ {
				hits[i-c.lo].Add(1)
			}
		})
		for i := range hits {
			if hits[i].Load() != 1 {
				t.Fatalf("lo=%d n=%d grain=%d: index %d visited %d times",
					c.lo, c.n, c.grain, c.lo+i, hits[i].Load())
			}
		}
	}
}

// TestParallelForGrainRespected: every chunk is at most a grain long and
// starts a whole number of grains past lo, and only the chunk that ends
// at hi may be shorter than a grain — the alignment that hands a sweep
// whole lane groups.
func TestParallelForGrainRespected(t *testing.T) {
	pool := NewPool(4)
	defer pool.Close()
	for _, c := range parallelForShapes {
		hi := c.lo + c.n
		var chunks atomic.Int64
		var bad atomic.Pointer[[2]int]
		pool.ParallelFor(c.lo, hi, c.grain, func(_ *Worker, lo, end int) {
			chunks.Add(1)
			if end-lo > c.grain || (lo-c.lo)%c.grain != 0 || (end-lo < c.grain && end != hi) {
				bad.CompareAndSwap(nil, &[2]int{lo, end})
			}
		})
		if b := bad.Load(); b != nil {
			t.Fatalf("lo=%d hi=%d grain=%d: chunk [%d, %d) is not a whole grain aligned to lo (only the last may be short)",
				c.lo, hi, c.grain, b[0], b[1])
		}
		if want := (c.n + c.grain - 1) / c.grain; chunks.Load() != int64(want) {
			t.Fatalf("lo=%d hi=%d grain=%d: %d chunks, want %d", c.lo, hi, c.grain, chunks.Load(), want)
		}
	}
}

func TestNestedSpawn(t *testing.T) {
	pool := NewPool(4)
	defer pool.Close()
	var count atomic.Int64
	pool.Run(func(w *Worker) {
		g := pool.NewGroup()
		for i := 0; i < 10; i++ {
			g.Spawn(w, func(w2 *Worker) {
				inner := pool.NewGroup()
				for j := 0; j < 10; j++ {
					inner.Spawn(w2, func(*Worker) { count.Add(1) })
				}
				inner.Sync(w2)
			})
		}
		g.Sync(w)
	})
	if count.Load() != 100 {
		t.Fatalf("nested spawn ran %d of 100", count.Load())
	}
}

func TestDeeplyNestedDoesNotDeadlock(t *testing.T) {
	// More nesting levels than workers: Sync must help execute tasks.
	pool := NewPool(2)
	defer pool.Close()
	var depthReached atomic.Int64
	var recurse func(w *Worker, depth int)
	recurse = func(w *Worker, depth int) {
		if depth == 0 {
			depthReached.Add(1)
			return
		}
		g := pool.NewGroup()
		g.Spawn(w, func(w2 *Worker) { recurse(w2, depth-1) })
		g.Sync(w)
	}
	pool.Run(func(w *Worker) { recurse(w, 20) })
	if depthReached.Load() != 1 {
		t.Fatal("nested recursion did not complete")
	}
}

func TestGroupPanicPropagates(t *testing.T) {
	pool := NewPool(2)
	defer pool.Close()
	defer func() {
		if recover() == nil {
			t.Fatal("Sync must re-panic a task panic")
		}
	}()
	pool.Run(func(w *Worker) {
		g := pool.NewGroup()
		g.Spawn(w, func(*Worker) { panic("boom") })
		g.Sync(w)
	})
}

// TestRunPanicPropagates: a panic in Run's own task, off any group, is
// re-raised on the caller, and the pool keeps running tasks after it.
func TestRunPanicPropagates(t *testing.T) {
	pool := NewPool(2)
	defer pool.Close()
	func() {
		defer func() {
			if r := recover(); r != "boom" {
				t.Fatalf("Run re-raised %v, want boom", r)
			}
		}()
		pool.Run(func(*Worker) { panic("boom") })
	}()
	ran := false
	pool.Run(func(*Worker) { ran = true })
	if !ran {
		t.Fatal("the pool ran nothing after a panic")
	}
}

// TestTasksRunOnWorkers: every ParallelFor body and every Run task is
// handed a pool worker, never nil — the caller blocks instead of
// executing tasks — so a body can spawn nested tasks on its worker's pool.
func TestTasksRunOnWorkers(t *testing.T) {
	pool := NewPool(2)
	defer pool.Close()
	for rep := 0; rep < 200; rep++ {
		var nilW atomic.Int64
		pool.ParallelFor(0, 64, 1+rep%4, func(w *Worker, lo, hi int) {
			if w == nil || w.Pool() != pool {
				nilW.Add(1)
			}
		})
		if n := nilW.Load(); n > 0 {
			t.Fatalf("repetition %d: %d ParallelFor bodies ran without a worker of the pool", rep, n)
		}
		pool.Run(func(w *Worker) {
			if w == nil {
				t.Error("Run handed its task a nil worker")
			}
		})
	}
}

func TestPoolCloseIdempotent(t *testing.T) {
	pool := NewPool(2)
	pool.Close()
	pool.Close() // must not panic or hang
}

// TestStealsHappenUnderImbalance: one task spawns all the work onto its
// own worker's deque, and the first task that worker pops blocks until a
// task has run on another worker, so the test passes only if some worker
// stole, however many cores the box lends the pool at the time.
func TestStealsHappenUnderImbalance(t *testing.T) {
	pool := NewPool(4)
	defer pool.Close()
	var count atomic.Int64
	stolen := make(chan struct{})
	var once sync.Once
	pool.Run(func(owner *Worker) {
		var blocked atomic.Bool
		g := pool.NewGroup()
		for i := 0; i < 2000; i++ {
			g.Spawn(owner, func(w *Worker) {
				count.Add(1)
				if w != owner {
					once.Do(func() { close(stolen) })
				} else if blocked.CompareAndSwap(false, true) {
					select {
					case <-stolen:
					case <-time.After(30 * time.Second):
						t.Error("no task ran on another worker within 30 s")
					}
				}
			})
		}
		g.Sync(owner)
	})
	if count.Load() != 2000 {
		t.Fatalf("ran %d of 2000", count.Load())
	}
}

// TestDequeStressExactlyOnce: the owner pushes across growth and the reuse
// of the stolen prefix and pops every third task while three thieves
// steal until the deque drains; every task runs exactly once. Under -race
// this is the test a deque whose slots are read and written without
// synchronisation fails.
func TestDequeStressExactlyOnce(t *testing.T) {
	const n = 200_000
	var d deque
	ran := make([]atomic.Int32, n)
	var pushed atomic.Bool
	var wg sync.WaitGroup
	for range 3 {
		wg.Add(1)
		go func() {
			defer wg.Done()
			for {
				if task := d.steal(); task != nil {
					task(nil)
				} else if pushed.Load() && d.size() == 0 {
					return
				}
			}
		}()
	}
	for i := range n {
		d.push(func(*Worker) { ran[i].Add(1) })
		if i%3 == 2 {
			if task := d.pop(); task != nil {
				task(nil)
			}
		}
	}
	pushed.Store(true)
	wg.Wait()
	for i := range ran {
		if c := ran[i].Load(); c != 1 {
			t.Fatalf("task %d ran %d times", i, c)
		}
	}
}

// TestDequeSteadyStateAllocs: once a deque has reached its working size,
// push, pop and steal allocate nothing, the pushes reusing the prefix
// that steals emptied.
func TestDequeSteadyStateAllocs(t *testing.T) {
	var d deque
	task := func(*Worker) {}
	for range 64 {
		d.push(task)
	}
	// One run of many rounds: AllocsPerRun rounds its average down, which
	// would hide a slice that grows only now and then.
	allocs := testing.AllocsPerRun(1, func() {
		for range 1000 {
			for range 16 {
				d.push(task)
			}
			for range 8 {
				d.steal()
				d.pop()
			}
		}
	})
	if allocs != 0 {
		t.Fatalf("%v allocations in 1000 rounds of 16 pushes, 8 steals and 8 pops, want 0", allocs)
	}
	if d.size() != 64 {
		t.Fatalf("size %d after balanced rounds, want 64", d.size())
	}
}

// TestDequeClearsFreedSlots: a popped, stolen or moved task leaves no
// reference behind in the slice, so a drained deque pins no closure.
func TestDequeClearsFreedSlots(t *testing.T) {
	var d deque
	task := func(*Worker) {}
	for range 8 {
		d.push(task)
	}
	for range 6 {
		d.steal()
	}
	d.push(task) // the slice is full: the two queued tasks move to its front
	if d.steal() == nil || d.pop() == nil || d.pop() == nil || d.size() != 0 {
		t.Fatal("the deque did not hold three tasks after the move")
	}
	for i, t2 := range d.tasks[:cap(d.tasks)] {
		if t2 != nil {
			t.Fatalf("slot %d of a drained deque still holds a task", i)
		}
	}
}

// TestConcurrentCallers: goroutines off the pool call ParallelFor and Run
// on one 2-worker pool at once. Each body covers its own range exactly
// once, and each panic, in a Run task or in a ParallelFor body, reaches
// the caller it belongs to.
func TestConcurrentCallers(t *testing.T) {
	pool := NewPool(2)
	defer pool.Close()
	var wg sync.WaitGroup
	for c := range 6 {
		wg.Add(1)
		go func() {
			defer wg.Done()
			for rep := range 20 {
				n := 100 + 37*c + rep
				hits := make([]atomic.Int32, n)
				pool.ParallelFor(0, n, 1+c%4, func(_ *Worker, lo, hi int) {
					for i := lo; i < hi; i++ {
						hits[i].Add(1)
					}
				})
				for i := range hits {
					if h := hits[i].Load(); h != 1 {
						t.Errorf("caller %d rep %d: index %d visited %d times", c, rep, i, h)
						return
					}
				}
				want := fmt.Sprintf("caller %d rep %d", c, rep)
				if got := recovered(func() { pool.Run(func(*Worker) { panic(want) }) }); got != want {
					t.Errorf("Run re-raised %v, want %q", got, want)
				}
				if got := recovered(func() {
					pool.ParallelFor(0, n, 4, func(_ *Worker, lo, hi int) {
						if lo <= n/2 && n/2 < hi {
							panic(want)
						}
					})
				}); got != want {
					t.Errorf("ParallelFor re-raised %v, want %q", got, want)
				}
			}
		}()
	}
	wg.Wait()
}

// recovered runs f and returns what it panicked with, or nil.
func recovered(f func()) (r any) {
	defer func() { r = recover() }()
	f()
	return nil
}

func TestStaticForCoversRange(t *testing.T) {
	for _, nt := range []int{1, 2, 3, 8} {
		for _, n := range []int{0, 1, 5, 100} {
			hits := make([]atomic.Int32, n)
			StaticFor(nt, 0, n, func(_, lo, hi int) {
				for i := lo; i < hi; i++ {
					hits[i].Add(1)
				}
			})
			for i := range hits {
				if hits[i].Load() != 1 {
					t.Fatalf("nt=%d n=%d: index %d visited %d times", nt, n, i, hits[i].Load())
				}
			}
		}
	}
}

// TestStaticForContiguousChunks records the (thread, lo, hi) ranges
// StaticFor hands its bodies and requires them to be StaticChunks' bounds,
// thread t on the t-th range, with sizes that differ by at most 1 (OpenMP
// static semantics); ranges start off zero and some tables have more
// threads than indices.
func TestStaticForContiguousChunks(t *testing.T) {
	for _, c := range []struct{ threads, lo, hi int }{
		{4, 0, 10}, {4, 7, 17}, {3, 5, 6}, {8, 3, 8}, {1, 2, 9}, {0, 4, 7}, {5, 100, 100},
	} {
		var mu sync.Mutex
		got := map[int][2]int{}
		StaticFor(c.threads, c.lo, c.hi, func(th, lo, hi int) {
			mu.Lock()
			defer mu.Unlock()
			if _, dup := got[th]; dup {
				t.Errorf("%+v: thread %d ran twice", c, th)
			}
			got[th] = [2]int{lo, hi}
		})
		if c.hi <= c.lo {
			if len(got) != 0 {
				t.Fatalf("%+v: empty range ran %v", c, got)
			}
			continue
		}
		b := StaticChunks(c.threads, c.lo, c.hi)
		if len(got) != len(b)-1 {
			t.Fatalf("%+v: %d threads ran, StaticChunks has %d ranges %v", c, len(got), len(b)-1, b)
		}
		for th := range len(b) - 1 {
			if got[th] != [2]int{b[th], b[th+1]} {
				t.Fatalf("%+v: thread %d ran %v, StaticChunks %v", c, th, got[th], b)
			}
			if sz := b[th+1] - b[th]; sz < (c.hi-c.lo)/(len(b)-1) || sz > (c.hi-c.lo+len(b)-2)/(len(b)-1) {
				t.Fatalf("%+v: chunk sizes of %v not balanced", c, b)
			}
		}
	}
}

func TestStaticChunksProperties(t *testing.T) {
	f := func(nt, n uint8) bool {
		threads := int(nt%16) + 1
		size := int(n)
		b := StaticChunks(threads, 0, size)
		if b[0] != 0 || b[len(b)-1] != size {
			return false
		}
		for i := 1; i < len(b); i++ {
			if b[i] < b[i-1] {
				return false
			}
		}
		return true
	}
	if err := quick.Check(f, nil); err != nil {
		t.Fatal(err)
	}
}

func TestStaticForZeroAndNegativeThreads(t *testing.T) {
	var ran atomic.Int32
	StaticFor(0, 0, 5, func(_, lo, hi int) { ran.Add(int32(hi - lo)) })
	if ran.Load() != 5 {
		t.Fatalf("nthreads<1 fallback ran %d of 5", ran.Load())
	}
}
