// Package sched implements the two task schedulers the paper compares on a
// single node: a TBB-style work-stealing runtime (one locked deque per
// worker, random victim selection, nested spawn/sync) and an OpenMP-style
// static-chunk scheduler. The work-stealing pool is what gives the paper's
// "TBB" curve in Figure 3 its load-balance advantage on skewed rating
// distributions.
package sched

import "sync"

// Task is a unit of work executed by a pool worker. The *Worker argument
// identifies the executing worker so the task can spawn nested subtasks
// onto that worker's own deque.
type Task func(w *Worker)

// deque is a work-stealing deque guarded by one mutex, as TBB locks a
// victim's task pool to steal from it. The owner pops at the bottom
// (LIFO, the task it spawned last is the one still in cache); thieves
// steal from the top (FIFO, the oldest and so largest piece of a split
// range). A task costs tens of µs, so a worker seldom waits on the lock.
// Any goroutine may push: Pool.Run pushes its root task onto worker 0's
// deque.
type deque struct {
	mu    sync.Mutex
	tasks []Task // tasks[top:] are queued, oldest first; the rest is nil
	top   int
}

// push adds a task at the bottom. A full slice first reuses the prefix
// thieves have emptied, so a deque that has reached its working size
// pushes without allocating.
func (d *deque) push(t Task) {
	d.mu.Lock()
	if d.top > 0 && len(d.tasks) == cap(d.tasks) {
		n := copy(d.tasks, d.tasks[d.top:])
		clear(d.tasks[n:])
		d.tasks, d.top = d.tasks[:n], 0
	}
	d.tasks = append(d.tasks, t)
	d.mu.Unlock()
}

// pop removes the task at the bottom, or returns nil if the deque is
// empty.
func (d *deque) pop() Task {
	d.mu.Lock()
	defer d.mu.Unlock()
	n := len(d.tasks) - 1
	if n < d.top {
		return nil
	}
	t := d.tasks[n]
	d.tasks[n] = nil // pin no closure
	d.tasks = d.tasks[:n]
	return t
}

// steal removes the task at the top, or returns nil if the deque is empty.
func (d *deque) steal() Task {
	d.mu.Lock()
	defer d.mu.Unlock()
	if d.top == len(d.tasks) {
		return nil
	}
	t := d.tasks[d.top]
	d.tasks[d.top] = nil
	d.top++
	return t
}

// size returns the number of queued tasks.
func (d *deque) size() int {
	d.mu.Lock()
	defer d.mu.Unlock()
	return len(d.tasks) - d.top
}
