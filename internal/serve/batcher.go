package serve

import (
	"fmt"
	"math"
	"runtime"
	"sync"
	"time"

	"repro/internal/la"
	"repro/internal/rank"
)

// BatchOptions configures a model route's request batcher and admission
// control. The zero value is not usable; start from DefaultBatchOptions.
type BatchOptions struct {
	// MaxBatch caps how many queued requests one flush scores together.
	// 1 disables coalescing entirely: requests run the unbatched
	// per-request path directly (the pre-batcher behavior, kept as the
	// measurable baseline), with rate limiting still applied by Admit.
	MaxBatch int
	// MaxDelay bounds how long a flusher waits to fill a partial batch.
	// The wait only ever applies to a flusher's later rounds, which exist
	// because requests piled up while it scored: a request that finds a
	// free flusher slot flushes immediately, so p50 at low load does not
	// regress. 0 never waits.
	MaxDelay time.Duration
	// QueueBound is the SLO bound on queued rankings (Recommend,
	// RecommendVector): when the queue is this deep, new ones are shed
	// with a *Shed instead of queuing unboundedly. Predict and top-N
	// table hits never queue, so it never sheds them. 0 means no bound.
	QueueBound int
	// Rate is the per-client admission rate in requests/second enforced
	// by Admit via a token bucket per client key. 0 disables rate
	// limiting.
	Rate float64
	// Burst is the token-bucket depth (how many requests a client may
	// issue back-to-back before the rate applies). 0 derives
	// max(1, ceil(Rate)).
	Burst int
	// RetryAfter is the back-off hint attached to queue-overload sheds
	// (rate-limit sheds compute the exact token refill time instead).
	// 0 defaults to one second.
	RetryAfter time.Duration
}

// DefaultBatchOptions returns the serving defaults: coalesce up to 64
// requests per flush, wait at most 200µs to fill a partial batch while
// busy, shed beyond 1024 queued requests, no per-client rate limit.
func DefaultBatchOptions() BatchOptions {
	return BatchOptions{
		MaxBatch:   64,
		MaxDelay:   200 * time.Microsecond,
		QueueBound: 1024,
		RetryAfter: time.Second,
	}
}

func (o BatchOptions) retryAfter() time.Duration {
	if o.RetryAfter > 0 {
		return o.RetryAfter
	}
	return time.Second
}

// Shed is the admission-control rejection: the request was refused
// before any scoring work, either because the client exceeded its rate
// (RateLimited, HTTP 429) or because the queue hit its SLO bound
// (overload, HTTP 503). RetryAfter is the back-off hint to surface in a
// Retry-After header.
type Shed struct {
	RateLimited bool
	RetryAfter  time.Duration
}

func (s *Shed) Error() string {
	if s.RateLimited {
		return fmt.Sprintf("serve: client rate limit exceeded (retry after %s)", s.RetryAfter)
	}
	return fmt.Sprintf("serve: overloaded, request queue at its bound (retry after %s)", s.RetryAfter)
}

// scoreJob is one queued ranking request. The model snapshot is captured
// at submit time, so a batch formed across a concurrent hot reload
// scores each request against exactly the snapshot its caller grabbed —
// the same guarantee the unbatched path gives.
type scoreJob struct {
	m *Model
	n int

	user int       // whose factor row and exclusion list to rank, when vec is nil
	vec  la.Vector // explicit factor row (fold-in recommends)
	excl []int32   // explicit exclusions for vec

	items []rank.Item
	err   error
	done  chan struct{}
}

// Batcher coalesces concurrent Recommend/RecommendVector calls against
// one model route into shared rank.Recommend passes — V streamed once
// per flush instead of once per request — and applies admission control
// in front of them. Every response stays
// bit-identical to the per-request path (pinned by the differential
// tests in batcher_test.go).
//
// There is no standing goroutine and no single scoring goroutine: a
// request that finds one of the GOMAXPROCS flusher slots free takes it,
// takes up to MaxBatch queued jobs (its own among them) and ranks them
// inline; one that finds every slot taken queues and is picked up by
// the next flusher to finish a round. A caller flushes one round only:
// if requests piled up behind it, the slot passes to a goroutine that
// drains them and exits, so no response waits on other callers' work.
// An idle server answers with no hand-off, a busy one keeps every core
// scoring, and batches grow only as fast as load outruns the cores. What
// has no scoring work to share never queues: Predict is O(K) and a top-N
// table hit a slice copy, so neither waits behind a catalog scan. All
// methods are safe for concurrent use.
type Batcher struct {
	opts        BatchOptions
	maxFlushers int // runtime.GOMAXPROCS(0) at construction

	mu       sync.Mutex
	queue    []*scoreJob
	flushers int           // flusher slots taken, at most maxFlushers
	full     chan struct{} // signaled when the queue reaches MaxBatch

	lim limiter
}

// NewBatcher returns a batcher over opts. MaxBatch < 1 is treated as 1
// (unbatched mode).
func NewBatcher(opts BatchOptions) *Batcher {
	if opts.MaxBatch < 1 {
		opts.MaxBatch = 1
	}
	b := &Batcher{opts: opts, maxFlushers: runtime.GOMAXPROCS(0), full: make(chan struct{}, 1)}
	if opts.Rate > 0 {
		burst := float64(opts.Burst)
		if burst <= 0 {
			burst = math.Max(1, math.Ceil(opts.Rate))
		}
		b.lim = limiter{
			rate:    opts.Rate,
			burst:   burst,
			now:     time.Now,
			clients: make(map[string]*bucket),
		}
	}
	return b
}

// Admit applies per-client token-bucket rate limiting. client is any
// stable caller identity (bpmf-serve uses the remote host). A nil
// return admits the request; otherwise the error is a *Shed carrying
// the exact time until the client's next token.
func (b *Batcher) Admit(client string) error {
	if b.opts.Rate <= 0 {
		return nil
	}
	if wait, ok := b.lim.allow(client); !ok {
		return &Shed{RateLimited: true, RetryAfter: wait}
	}
	return nil
}

// Predict serves Model.Predict. It never enters the flush queue — one
// inner product has nothing to coalesce and must not wait behind a
// catalog scan — so QueueBound cannot shed it (Admit's rate limit can).
func (b *Batcher) Predict(m *Model, user, item int) (Prediction, error) {
	return m.Predict(user, item)
}

// Recommend serves Model.Recommend through the batch queue. What has no
// scoring work to share — a bad user index, n <= 0, a hit in the
// precomputed top-N table, unbatched mode — is answered by the model
// directly; everything else contributes its user row to the next
// flush's multi-user pass.
func (b *Batcher) Recommend(m *Model, user, n int) ([]rank.Item, error) {
	if b.opts.MaxBatch <= 1 || n <= 0 || m.checkUser(user) != nil || (m.table != nil && n <= m.table.n) {
		return m.Recommend(user, n)
	}
	j := &scoreJob{m: m, user: user, n: n, done: make(chan struct{})}
	if err := b.submit(j); err != nil {
		return nil, err
	}
	return j.items, j.err
}

// RecommendVector serves Model.RecommendVector (the fold-in
// recommendation path) through the batch queue: a well-formed factor
// row joins the same multi-user pass as the user-row recommends.
func (b *Batcher) RecommendVector(m *Model, u la.Vector, excl []int32, n int) ([]rank.Item, error) {
	if b.opts.MaxBatch <= 1 || n <= 0 || m.checkVector(u) != nil {
		return m.RecommendVector(u, excl, n)
	}
	j := &scoreJob{m: m, vec: u, excl: excl, n: n, done: make(chan struct{})}
	if err := b.submit(j); err != nil {
		return nil, err
	}
	return j.items, j.err
}

// submit queues one job and blocks until a flush completes it. If a
// flusher slot is free the caller takes it and ranks what is queued — its
// own job included — inline: no timer and no hand-off in the way of an
// uncontended request. Returns a *Shed without queuing when the queue is
// at its bound.
func (b *Batcher) submit(j *scoreJob) error {
	b.mu.Lock()
	if b.opts.QueueBound > 0 && len(b.queue) >= b.opts.QueueBound {
		b.mu.Unlock()
		return &Shed{RetryAfter: b.opts.retryAfter()}
	}
	b.queue = append(b.queue, j)
	if len(b.queue) >= b.opts.MaxBatch {
		select {
		case b.full <- struct{}{}:
		default:
		}
	}
	var batch []*scoreJob
	if b.flushers < b.maxFlushers {
		b.flushers++
		batch = b.take()
	}
	b.mu.Unlock()
	if batch != nil {
		run(batch)
		b.flushLoop(true)
	}
	<-j.done
	return nil
}

// take removes the next round's jobs, up to MaxBatch, from the head of
// the queue. The caller holds b.mu.
func (b *Batcher) take() []*scoreJob {
	n := min(len(b.queue), b.opts.MaxBatch)
	batch := make([]*scoreJob, n)
	copy(batch, b.queue[:n])
	rest := copy(b.queue, b.queue[n:])
	clear(b.queue[rest:]) // release job pointers past the new tail
	b.queue = b.queue[:rest]
	return batch
}

// flushLoop holds a flusher slot after its first round: it drains the
// queue in rounds of up to MaxBatch jobs, waiting up to MaxDelay for a
// partial batch to fill (these rounds only exist because requests piled
// up while the previous one scored), and gives the slot back once the
// queue is empty. The submitter that took the slot calls it with caller
// set and never runs those rounds itself — they are other callers' work,
// and its response must not wait on them — so if anything is queued the
// slot moves to a goroutine that lives until the queue is empty.
// Flushers share nothing but the queue: each round's jobs and queries
// are its own.
func (b *Batcher) flushLoop(caller bool) {
	for {
		b.mu.Lock()
		if !caller && b.opts.MaxDelay > 0 && len(b.queue) > 0 && len(b.queue) < b.opts.MaxBatch {
			b.mu.Unlock()
			t := time.NewTimer(b.opts.MaxDelay)
			select {
			case <-b.full:
			case <-t.C:
			}
			t.Stop()
			b.mu.Lock() // another flusher may have taken the jobs meanwhile
		}
		if len(b.queue) == 0 {
			b.flushers--
			b.mu.Unlock()
			return
		}
		if caller {
			b.mu.Unlock()
			go b.flushLoop(false)
			return
		}
		batch := b.take()
		b.mu.Unlock()
		run(batch)
	}
}

// run ranks one batch. Jobs are grouped by model snapshot (a hot reload
// between two submits may interleave two snapshots in one batch) and
// each group shares one pass; every job is completed exactly as the
// unbatched path would against its own snapshot.
func run(batch []*scoreJob) {
	for lo := 0; lo < len(batch); {
		m := batch[lo].m
		hi := lo + 1
		for hi < len(batch) && batch[hi].m == m {
			hi++
		}
		runModel(m, batch[lo:hi])
		lo = hi
	}
	for _, j := range batch {
		close(j.done)
	}
}

// runModel completes one same-snapshot slice of a batch with the pass
// Model.Recommend runs for a batch of one: a query per job (shapes were
// validated against this snapshot at submit), ranked together, clamped.
func runModel(m *Model, jobs []*scoreJob) {
	buf := m.leaseExcl()
	defer m.exclBuf.Put(buf)
	qs := make([]rank.Query, len(jobs))
	for i, j := range jobs {
		if j.vec != nil {
			qs[i] = rank.Query{U: j.vec, Excl: j.excl, N: j.n}
			continue
		}
		qs[i] = rank.Query{U: m.u.Row(j.user), N: j.n}
		if qs[i].Excl, j.err = m.excludeList(j.user, buf); j.err != nil {
			qs[i].N = 0 // rank nothing for a failed request
		}
	}
	rank.Recommend(m.v, qs)
	for i, j := range jobs {
		if j.err == nil {
			j.items = m.clampItems(qs[i].Items)
		}
	}
}

// limiter is the per-client token-bucket table behind Admit.
type limiter struct {
	rate  float64 // tokens per second
	burst float64

	now func() time.Time // injected by clock-controlled tests

	mu      sync.Mutex
	clients map[string]*bucket
}

// bucket is one client's token state.
type bucket struct {
	tokens float64
	last   time.Time
}

// maxClients caps the limiter table. When an insert would exceed it,
// clients idle long enough to have refilled to full burst are dropped —
// semantically lossless, since a fresh entry starts at full burst too.
const maxClients = 4096

// allow takes one token from client's bucket, reporting whether the
// request is admitted; when denied it returns the time until the next
// token instead.
func (l *limiter) allow(client string) (time.Duration, bool) {
	l.mu.Lock()
	defer l.mu.Unlock()
	now := l.now()
	bk := l.clients[client]
	if bk == nil {
		if len(l.clients) >= maxClients {
			l.evictIdle(now)
		}
		bk = &bucket{tokens: l.burst, last: now}
		l.clients[client] = bk
	} else {
		bk.tokens += l.rate * now.Sub(bk.last).Seconds()
		if bk.tokens > l.burst {
			bk.tokens = l.burst
		}
		bk.last = now
	}
	if bk.tokens >= 1 {
		bk.tokens--
		return 0, true
	}
	return time.Duration((1 - bk.tokens) / l.rate * float64(time.Second)), false
}

// evictIdle drops every bucket idle long enough to be full again.
func (l *limiter) evictIdle(now time.Time) {
	fullAfter := time.Duration(l.burst / l.rate * float64(time.Second))
	for c, bk := range l.clients {
		if now.Sub(bk.last) >= fullAfter {
			delete(l.clients, c)
		}
	}
}
