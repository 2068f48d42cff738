package serve

import (
	"fmt"
	"math"
	"runtime"
	"sync"
	"sync/atomic"
	"time"

	"repro/internal/la"
	"repro/internal/rank"
)

// BatchOptions configures a model route's admission gate (see Batcher
// for the names). Start from DefaultBatchOptions.
type BatchOptions struct {
	// QueueBound is the SLO bound on rankings (Recommend,
	// RecommendVector) waiting for a scoring slot: with this many
	// waiting, new ones are shed with a *Shed instead of queuing
	// unboundedly. Predict never waits, so it never sheds it. 0 means no
	// bound.
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

// DefaultBatchOptions returns the serving defaults: shed beyond 1024
// waiting rankings, no per-client rate limit.
func DefaultBatchOptions() BatchOptions {
	return BatchOptions{QueueBound: 1024, RetryAfter: time.Second}
}

// Shed is the admission-control rejection: the request was refused
// before any scoring work, either because the client exceeded its rate
// (RateLimited, HTTP 429) or because the rankings waiting for a scoring
// slot hit their SLO bound (overload, HTTP 503). RetryAfter is the
// back-off hint to surface in a Retry-After header.
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

// Batcher is one model route's admission gate: a per-client token bucket
// (Admit) in front of every request, and in front of the catalog scans a
// bound of GOMAXPROCS concurrent rankings plus a bounded line of callers
// waiting for one of those slots. A ranking runs Model.Recommend /
// RecommendVector on its caller's goroutine, inside a slot, against the
// snapshot the caller grabbed. The gate starts no goroutine and keeps no
// queue: the waiters are blocked senders on the slot channel, which Go
// serves first come, first served.
//
// Nothing is batched: with as many slots as cores a request that gets a
// core also finds a slot, so rankings do not pile up to share a pass
// (PERF.md, PR 14 section). The name is the request batcher's this type
// replaced; benchmark/ compiles against it, so the rename is queued in
// ROADMAP item 5. A slot is held for a whole ranking: the integer scan
// of the catalog's int8 copy (an eighth of V's bytes) and the exact
// la.Dot of the few items it cannot skip. Safe for concurrent use.
type Batcher struct {
	opts BatchOptions

	slots   chan struct{} // a send takes a scoring slot, a receive gives it back; cap is GOMAXPROCS at construction
	waiting atomic.Int32  // callers blocked in acquire

	lim limiter
}

// NewBatcher returns a gate over opts.
func NewBatcher(opts BatchOptions) *Batcher {
	if opts.RetryAfter <= 0 {
		opts.RetryAfter = time.Second
	}
	b := &Batcher{opts: opts, slots: make(chan struct{}, runtime.GOMAXPROCS(0))}
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

// Recommend serves Model.Recommend inside a scoring slot. What scans no
// catalog — a bad user index or n <= 0 — takes no slot and is never shed
// by QueueBound.
func (b *Batcher) Recommend(m *Model, user, n int) ([]rank.Item, error) {
	if n <= 0 || m.checkUser(user) != nil {
		return m.Recommend(user, n)
	}
	if err := b.acquire(); err != nil {
		return nil, err
	}
	defer b.release()
	return m.Recommend(user, n)
}

// RecommendVector serves Model.RecommendVector (the fold-in
// recommendation path) inside a scoring slot; a malformed factor row or
// n <= 0 is answered without one.
func (b *Batcher) RecommendVector(m *Model, u la.Vector, excl []int32, n int) ([]rank.Item, error) {
	if n <= 0 || m.checkVector(u) != nil {
		return m.RecommendVector(u, excl, n)
	}
	if err := b.acquire(); err != nil {
		return nil, err
	}
	defer b.release()
	return m.RecommendVector(u, excl, n)
}

// acquire takes a scoring slot, waiting for one when all are taken —
// unless QueueBound callers already wait, in which case it returns a
// *Shed at once.
func (b *Batcher) acquire() error {
	select {
	case b.slots <- struct{}{}:
		return nil
	default:
	}
	if w := b.waiting.Add(1); b.opts.QueueBound > 0 && int(w) > b.opts.QueueBound {
		b.waiting.Add(-1)
		return &Shed{RetryAfter: b.opts.RetryAfter}
	}
	b.slots <- struct{}{}
	b.waiting.Add(-1)
	return nil
}

// release gives the caller's scoring slot to the longest-waiting caller,
// or back to the gate.
func (b *Batcher) release() { <-b.slots }

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
		bk.tokens += float64(l.rate * now.Sub(bk.last).Seconds())
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
