package sched

import (
	"sync"
	"sync/atomic"
	"testing"
	"testing/quick"
)

func TestDequeSingleThreadLIFO(t *testing.T) {
	d := newDeque()
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
	d := newDeque()
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
	d := newDeque()
	n := 5000 // larger than the initial buffer
	var count int
	for i := 0; i < n; i++ {
		d.push(func(*Worker) { count++ })
	}
	if d.size() != int64(n) {
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

func TestStealsHappenUnderImbalance(t *testing.T) {
	pool := NewPool(4)
	defer pool.Close()
	// One external task spawns all work onto a single worker's deque; the
	// other workers must steal to help.
	var count atomic.Int64
	pool.Run(func(w *Worker) {
		g := pool.NewGroup()
		for i := 0; i < 2000; i++ {
			g.Spawn(w, func(*Worker) {
				// Small spin so thieves have time to engage.
				s := 0
				for j := 0; j < 2000; j++ {
					s += j
				}
				_ = s
				count.Add(1)
			})
		}
		g.Sync(w)
	})
	if count.Load() != 2000 {
		t.Fatalf("ran %d of 2000", count.Load())
	}
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
