package sched

import (
	"math/rand"
	"runtime"
	"sync"
	"sync/atomic"
)

// Pool is a work-stealing thread pool in the style of TBB's task scheduler.
// Each worker owns a Chase–Lev deque; idle workers steal from random
// victims; tasks may spawn nested subtasks and wait for them with
// Group.Sync, during which the waiting worker keeps executing other tasks
// (help-first scheduling), which is what makes nested parallelism cheap.
type Pool struct {
	workers []*Worker
	inject  chan Task // external submissions
	done    chan struct{}
	wg      sync.WaitGroup

	sleepMu   sync.Mutex
	sleepCond *sync.Cond
	sleeping  int
	closed    bool

	// Stats (approximate, for tests and instrumentation).
	Steals atomic.Int64
	Execs  atomic.Int64
}

// Worker is the per-thread execution context. Tasks receive the worker
// that runs them so nested spawns go to the local deque.
type Worker struct {
	pool *Pool
	id   int
	dq   *deque
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
	p := &Pool{
		inject: make(chan Task, 1024),
		done:   make(chan struct{}),
	}
	p.sleepCond = sync.NewCond(&p.sleepMu)
	p.workers = make([]*Worker, n)
	for i := 0; i < n; i++ {
		p.workers[i] = &Worker{pool: p, id: i, dq: newDeque(), rng: rand.New(rand.NewSource(int64(i)*0x9e3779b9 + 1))}
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
			w.pool.Execs.Add(1)
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
		// Park until new work is injected or a spawn wakes us.
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

// anyWork reports whether any deque or the inject queue appears non-empty.
func (w *Worker) anyWork() bool {
	if len(w.pool.inject) > 0 {
		return true
	}
	for _, v := range w.pool.workers {
		if v.dq.size() > 0 {
			return true
		}
	}
	return false
}

// findTask looks for work: own deque first, then the inject queue, then
// random-victim stealing.
func (w *Worker) findTask() Task {
	if t := w.dq.pop(); t != nil {
		return t
	}
	select {
	case t := <-w.pool.inject:
		return t
	default:
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
				w.pool.Steals.Add(1)
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

// Spawn schedules fn to run on the pool as part of the group. If called
// from a pool worker (w != nil) the task goes to that worker's own deque
// (LIFO, cache-friendly, stealable by others); otherwise it goes to the
// global inject queue.
func (g *Group) Spawn(w *Worker, fn func(w *Worker)) {
	g.pending.Add(1)
	t := Task(func(tw *Worker) {
		defer func() {
			if r := recover(); r != nil {
				g.panicV.CompareAndSwap(nil, &panicBox{v: r})
			}
			g.pending.Add(-1)
		}()
		fn(tw)
	})
	if w != nil {
		w.dq.push(t)
		g.pool.wake()
	} else {
		g.pool.inject <- t
		g.pool.wake()
	}
}

// Sync waits until every spawned task in the group has finished. If called
// from a pool worker, the worker helps execute tasks while waiting (this is
// what allows nested parallelism without deadlock on a bounded pool). If a
// task panicked, Sync re-panics with the first recovered value.
func (g *Group) Sync(w *Worker) {
	spins := 0
	for g.pending.Load() > 0 {
		var t Task
		if w != nil {
			t = w.findTask()
		} else {
			select {
			case t = <-g.pool.inject:
			default:
			}
		}
		if t != nil {
			g.pool.Execs.Add(1)
			t(w)
			spins = 0
			continue
		}
		spins++
		runtime.Gosched()
		_ = spins
	}
	if pb := g.panicV.Load(); pb != nil {
		panic(pb.v)
	}
}

// Run executes fn on the pool and blocks until it (and everything it
// spawned and synced) completes. It is the entry point from non-pool code.
func (p *Pool) Run(fn func(w *Worker)) {
	g := p.NewGroup()
	g.Spawn(nil, fn)
	g.Sync(nil)
}

// ParallelFor executes body(i) for every i in [lo, hi) on the pool using
// recursive binary splitting with the given grain size (minimum chunk
// length executed sequentially). It blocks until all iterations complete.
// The iteration-to-chunk decomposition is a pure function of (lo, hi,
// grain), never of the number of workers, so any arithmetic performed in
// chunk order is schedule-independent.
func (p *Pool) ParallelFor(lo, hi, grain int, body func(w *Worker, lo, hi int)) {
	if grain < 1 {
		grain = 1
	}
	if hi <= lo {
		return
	}
	g := p.NewGroup()
	var split func(w *Worker, lo, hi int)
	split = func(w *Worker, lo, hi int) {
		for hi-lo > grain {
			mid := lo + (hi-lo)/2
			right := hi
			g.Spawn(w, func(w *Worker) { split(w, mid, right) })
			hi = mid
		}
		body(w, lo, hi)
	}
	g.Spawn(nil, func(w *Worker) { split(w, lo, hi) })
	g.Sync(nil)
}
