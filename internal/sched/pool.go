package sched

import (
	"math/rand"
	"runtime"
	"sync"
	"sync/atomic"
)

// Pool is a work-stealing thread pool in the style of TBB's task scheduler.
// Each worker owns a deque; idle workers steal from random victims; tasks
// may spawn nested subtasks and wait for them with Group.Sync, during which
// the waiting worker keeps executing other tasks (help-first scheduling),
// which is what makes nested parallelism cheap. The deques are the pool's
// only queues: Run's root task goes onto worker 0's.
//
// Lock order: sleepMu may be held while a deque's lock is taken (a worker
// about to park checks every deque under it), never the reverse, and no
// other lock is taken while a deque's is held.
type Pool struct {
	workers []*Worker
	done    chan struct{}
	wg      sync.WaitGroup

	sleepMu   sync.Mutex
	sleepCond *sync.Cond
	sleeping  int
	closed    bool
}

// Worker is the per-thread execution context. Tasks receive the worker
// that runs them so nested spawns go to the local deque.
type Worker struct {
	pool *Pool
	id   int
	dq   deque
	rng  *rand.Rand
}

// ID returns the worker index in [0, NumWorkers).
func (w *Worker) ID() int { return w.id }

// Pool returns the pool the worker belongs to: a task handed its worker
// spawns nested subtasks there.
func (w *Worker) Pool() *Pool { return w.pool }

// NewPool creates a pool with n workers. If n <= 0 it defaults to
// runtime.GOMAXPROCS(0).
func NewPool(n int) *Pool {
	if n <= 0 {
		n = runtime.GOMAXPROCS(0)
	}
	p := &Pool{done: make(chan struct{})}
	p.sleepCond = sync.NewCond(&p.sleepMu)
	p.workers = make([]*Worker, n)
	for i := 0; i < n; i++ {
		p.workers[i] = &Worker{pool: p, id: i, rng: rand.New(rand.NewSource(int64(i)*0x9e3779b9 + 1))}
	}
	p.wg.Add(n)
	for i := 0; i < n; i++ {
		go p.workers[i].run()
	}
	return p
}

// NumWorkers returns the number of workers in the pool.
func (p *Pool) NumWorkers() int { return len(p.workers) }

// Close shuts the pool down and waits for all workers to exit. Draining
// currently queued work is NOT guaranteed; callers should Sync their
// groups first.
func (p *Pool) Close() {
	p.sleepMu.Lock()
	if p.closed {
		p.sleepMu.Unlock()
		return
	}
	p.closed = true
	close(p.done)
	p.sleepCond.Broadcast()
	p.sleepMu.Unlock()
	p.wg.Wait()
}

// wake wakes one sleeping worker, if any.
func (p *Pool) wake() {
	p.sleepMu.Lock()
	if p.sleeping > 0 {
		p.sleepCond.Signal()
	}
	p.sleepMu.Unlock()
}

func (w *Worker) run() {
	defer w.pool.wg.Done()
	idleSpins := 0
	for {
		t := w.findTask()
		if t != nil {
			idleSpins = 0
			t(w)
			continue
		}
		select {
		case <-w.pool.done:
			return
		default:
		}
		idleSpins++
		if idleSpins < 64 {
			runtime.Gosched()
			continue
		}
		// Park until a Run or a spawn wakes us.
		p := w.pool
		p.sleepMu.Lock()
		if p.closed {
			p.sleepMu.Unlock()
			return
		}
		// Re-check for work before sleeping to avoid lost wakeups.
		if w.anyWork() {
			p.sleepMu.Unlock()
			idleSpins = 0
			continue
		}
		p.sleeping++
		p.sleepCond.Wait()
		p.sleeping--
		closed := p.closed
		p.sleepMu.Unlock()
		if closed {
			return
		}
		idleSpins = 0
	}
}

// anyWork reports whether any deque holds a task. The caller holds
// sleepMu.
func (w *Worker) anyWork() bool {
	for _, v := range w.pool.workers {
		if v.dq.size() > 0 {
			return true
		}
	}
	return false
}

// findTask looks for work: own deque first, then random-victim stealing.
func (w *Worker) findTask() Task {
	if t := w.dq.pop(); t != nil {
		return t
	}
	n := len(w.pool.workers)
	if n > 1 {
		// Random victim selection, up to 2n attempts.
		for a := 0; a < 2*n; a++ {
			v := w.pool.workers[w.rng.Intn(n)]
			if v == w {
				continue
			}
			if t := v.dq.steal(); t != nil {
				return t
			}
		}
	}
	return nil
}

// Group tracks a set of spawned tasks so a parent can wait for all of
// them. It is the analogue of tbb::task_group.
type Group struct {
	pool    *Pool
	pending atomic.Int64
	panicV  atomic.Pointer[panicBox]
}

type panicBox struct{ v any }

// NewGroup creates a task group on the pool.
func (p *Pool) NewGroup() *Group { return &Group{pool: p} }

// Spawn schedules fn to run on the pool as part of the group. w is the pool
// worker running the caller, and the task goes to its own deque (LIFO,
// cache-friendly, stealable by others): only a pool task spawns, and code
// off the pool enters through Run or ParallelFor.
func (g *Group) Spawn(w *Worker, fn func(w *Worker)) {
	g.pending.Add(1)
	w.dq.push(func(tw *Worker) {
		defer func() {
			if r := recover(); r != nil {
				g.panicV.CompareAndSwap(nil, &panicBox{v: r})
			}
			g.pending.Add(-1)
		}()
		fn(tw)
	})
	g.pool.wake()
}

// Sync waits until every spawned task in the group has finished, the pool
// worker w executing tasks while it waits (this is what allows nested
// parallelism without deadlock on a bounded pool). If a task panicked,
// Sync re-panics with the first recovered value.
func (g *Group) Sync(w *Worker) {
	for g.pending.Load() > 0 {
		if t := w.findTask(); t != nil {
			t(w)
			continue
		}
		runtime.Gosched()
	}
	if pb := g.panicV.Load(); pb != nil {
		panic(pb.v)
	}
}

// Run executes fn on one of the pool's workers and blocks until it (and
// everything it spawned and synced) completes; a panic in fn, including
// one a Sync re-raised, is re-raised on the caller. It is the entry point
// from non-pool code, and every task runs on a pool worker: fn goes onto
// worker 0's deque, where worker 0 pops it or an idle worker steals it.
// Any number of goroutines may call Run at once. The caller blocks rather
// than spins, so it leaves its core to the workers. A pool task must not
// call Run or ParallelFor on its own pool: its worker would block without
// executing tasks, and with every worker so blocked the pool stops.
func (p *Pool) Run(fn func(w *Worker)) {
	done := make(chan any, 1)
	p.workers[0].dq.push(func(w *Worker) {
		defer func() { done <- recover() }()
		fn(w)
	})
	p.wake()
	if r := <-done; r != nil {
		panic(r)
	}
}

// ParallelFor executes body(i) for every i in [lo, hi) on the pool using
// recursive binary splitting with the given grain size (the longest chunk
// executed sequentially). It blocks until all iterations complete, like
// Run, and every body runs on a pool worker. Every split point lies a
// whole number of grains past lo — the halfway point rounded up to the
// next grain — so every chunk but the last starts at lo plus a multiple of
// grain and is exactly grain long: a sweep that draws each range's items
// in four-item lane groups receives whole grains (core.ItemGrain
// positions, two groups), since a cut inside a grain would leave a partly
// empty lane group on each side of it. The iteration-to-chunk
// decomposition is a pure function of (lo, hi, grain), never of the
// number of workers, so any arithmetic performed in chunk order is
// schedule-independent.
func (p *Pool) ParallelFor(lo, hi, grain int, body func(w *Worker, lo, hi int)) {
	if grain < 1 {
		grain = 1
	}
	if hi <= lo {
		return
	}
	p.Run(func(w *Worker) {
		g := p.NewGroup()
		var split func(w *Worker, lo, hi int)
		split = func(w *Worker, lo, hi int) {
			for hi-lo > grain {
				// hi-lo > grain puts mid in [lo+grain, hi).
				mid := lo + (hi-lo+2*grain-1)/(2*grain)*grain
				right := hi
				g.Spawn(w, func(w *Worker) { split(w, mid, right) })
				hi = mid
			}
			body(w, lo, hi)
		}
		split(w, lo, hi)
		g.Sync(w)
	})
}
