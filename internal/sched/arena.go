package sched

import (
	"runtime"
	"sync"
)

// Arena is a worker-local free list of reusable scratch values. Its one
// use is the Gibbs sampler's item workspaces, one leased per range of
// items a task draws. It exists so hot loops can lease scratch per work
// item without heap allocation: Get prefers the calling worker's shard, so
// in steady state a worker keeps re-leasing the same cache-warm buffers,
// and the shard mutexes are virtually uncontended.
//
// Values are leased per work item, not pinned per worker: a worker that
// helps execute other tasks while blocked inside a nested Group.Sync may
// hold several leases at once (help-first scheduling), which a single
// per-worker slot could not support.
type Arena[T any] struct {
	newFn  func() T
	shards []arenaShard[T]
}

type arenaShard[T any] struct {
	mu   sync.Mutex
	free []T
	// Pad shards apart so two workers' free lists do not share a cache
	// line.
	_ [64]byte
}

// NewArena creates an arena whose values are built by newFn on a free-list
// miss. The shard count is fixed at GOMAXPROCS+1 (workers hash onto the
// first GOMAXPROCS shards; non-worker goroutines share the last), so one
// arena serves pools of any size as well as pool-less sequential callers.
func NewArena[T any](newFn func() T) *Arena[T] {
	return &Arena[T]{
		newFn:  newFn,
		shards: make([]arenaShard[T], runtime.GOMAXPROCS(0)+1),
	}
}

func (a *Arena[T]) shard(w *Worker) *arenaShard[T] {
	if w == nil {
		return &a.shards[len(a.shards)-1]
	}
	return &a.shards[w.id%(len(a.shards)-1)]
}

// Get leases a value, preferring the calling worker's shard (w may be nil
// for non-pool callers). The value's contents are whatever the previous
// lease left behind; callers that need zeroed scratch must clear it.
func (a *Arena[T]) Get(w *Worker) T {
	s := a.shard(w)
	s.mu.Lock()
	if n := len(s.free); n > 0 {
		v := s.free[n-1]
		var zero T
		s.free[n-1] = zero // drop the reference so the arena never pins extra values
		s.free = s.free[:n-1]
		s.mu.Unlock()
		return v
	}
	s.mu.Unlock()
	return a.newFn()
}

// Put returns a leased value to the releasing worker's shard (w may be
// nil, as in Get).
func (a *Arena[T]) Put(w *Worker, v T) {
	s := a.shard(w)
	s.mu.Lock()
	s.free = append(s.free, v)
	s.mu.Unlock()
}
