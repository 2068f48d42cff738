// Package comm is the hand-rolled message-passing layer that stands in for
// MPI 3.0 in this Go reproduction (Go has no MPI ecosystem). It provides
// the features the paper's distributed BPMF needs:
//
//   - ranks and tagged point-to-point messages with MPI-style matching
//     (by source and tag, with wildcard source);
//   - sends that never block the sender (transports queue internally,
//     the role MPI_Isend plays in the paper: communication overlaps the
//     computation that follows the send);
//   - coalescing send buffers (the paper's Section IV-C: per-item sends
//     are too expensive, so items are batched until a buffer fills);
//   - collectives: barrier, broadcast, allgather, and a deterministic
//     ordered allreduce (partials combined in rank order so every rank
//     computes bit-identical results);
//   - pluggable transports: an in-process fabric (goroutine channels) for
//     single-binary virtual clusters and tests, and a TCP mesh for real
//     multi-process runs (cmd/bpmf-dist). The in-process fabric also
//     injects the faults the mesh can have — Kill (a crashed rank) and
//     Sever (a cut link) — so recovery is tested in one process.
//
// Every operation that can fail returns an error — a dead peer, a closed
// endpoint or a corrupt frame unwinds the caller instead of crashing the
// process — which is what the E suffix of the send, receive and
// collective names records.
package comm

import (
	"errors"
	"fmt"
	"sync"
	"time"
)

// AnySource matches messages from any rank in RecvE/RecvTimeout.
const AnySource = -1

// collectiveTagBase reserves the upper tag space for internal collective
// operations; user tags must stay below it.
const collectiveTagBase = 1 << 30

// Message is a received tagged message.
type Message struct {
	Src  int
	Tag  int
	Data []byte
}

// Transport moves bytes between ranks. Implementations must deliver
// messages between any ordered pair of ranks in send order
// (MPI's non-overtaking rule for equal tags).
type Transport interface {
	// Send delivers data to dst's endpoint asynchronously. The data slice
	// is owned by the transport after the call.
	Send(dst, tag int, data []byte) error
	// Close releases transport resources.
	Close() error
}

// Comm is one rank's communicator endpoint.
type Comm struct {
	rank, size int
	tr         Transport

	mu      sync.Mutex
	pending []Message // unmatched arrivals
	waiters []*waiter // outstanding receives
	closed  bool
	collSeq uint64 // collective sequence number (advances identically on all ranks)

	// failErr is the endpoint's terminal error (a detected peer failure or
	// transport corruption); failCh is closed when it is set, waking every
	// blocked error-returning receive.
	failErr error
	failCh  chan struct{}

	// Stats for instrumentation (bytes and message counts sent/received).
	stats Stats
}

// ErrRecvTimeout is returned by RecvTimeout when no matching message
// arrives within the deadline (and the endpoint has not failed).
var ErrRecvTimeout = errors.New("comm: receive timed out")

// Stats counts traffic through an endpoint.
type Stats struct {
	MsgsSent, MsgsRecv   int64
	BytesSent, BytesRecv int64
}

type waiter struct {
	src, tag int
	ch       chan Message
}

// newComm builds an endpoint; transports call deliver for arrivals.
func newComm(rank, size int) *Comm {
	return &Comm{rank: rank, size: size, failCh: make(chan struct{})}
}

// Fail marks the endpoint as failed: every blocked and future
// error-returning operation observes err. The first error wins;
// subsequent calls are no-ops. Transports and the failure detector call
// this when a peer dies; it never fires on a healthy endpoint.
func (c *Comm) Fail(err error) {
	c.mu.Lock()
	if c.failErr == nil && err != nil {
		c.failErr = err
		close(c.failCh)
	}
	c.mu.Unlock()
}

// Err returns the endpoint's terminal error, or nil while it is healthy.
func (c *Comm) Err() error {
	c.mu.Lock()
	defer c.mu.Unlock()
	return c.failErr
}

// Rank returns this endpoint's rank in [0, Size).
func (c *Comm) Rank() int { return c.rank }

// Size returns the number of ranks.
func (c *Comm) Size() int { return c.size }

// Stats returns a snapshot of the endpoint's traffic counters.
func (c *Comm) Stats() Stats {
	c.mu.Lock()
	defer c.mu.Unlock()
	return c.stats
}

// deliver is called by transports when a message arrives.
func (c *Comm) deliver(m Message) {
	c.mu.Lock()
	c.stats.MsgsRecv++
	c.stats.BytesRecv += int64(len(m.Data))
	for i, w := range c.waiters {
		if (w.src == AnySource || w.src == m.Src) && w.tag == m.Tag {
			c.waiters = append(c.waiters[:i], c.waiters[i+1:]...)
			c.mu.Unlock()
			w.ch <- m
			return
		}
	}
	c.pending = append(c.pending, m)
	c.mu.Unlock()
}

// SendE sends data to dst with the given tag. It does not block on the
// receiver (transports queue internally), and the data slice must not be
// modified after the call. A closed or failed endpoint, an invalid
// destination, and transport errors all surface to the caller, so a dead
// peer unwinds the rank instead of crashing the process.
func (c *Comm) SendE(dst, tag int, data []byte) error {
	if dst < 0 || dst >= c.size {
		return fmt.Errorf("invalid destination rank %d (size %d)", dst, c.size)
	}
	c.mu.Lock()
	if c.failErr != nil {
		err := c.failErr
		c.mu.Unlock()
		return err
	}
	if c.closed {
		c.mu.Unlock()
		return fmt.Errorf("endpoint closed")
	}
	c.stats.MsgsSent++
	c.stats.BytesSent += int64(len(data))
	tr := c.tr
	c.mu.Unlock()
	if tr == nil {
		return fmt.Errorf("endpoint has no transport")
	}
	return tr.Send(dst, tag, data)
}

// postRecv matches an already-pending message (FIFO per pair) or
// registers a waiter for (src, tag). Exactly one of the returns is
// meaningful: a matched message when w == nil, else the posted waiter.
func (c *Comm) postRecv(src, tag int) (Message, *waiter) {
	c.mu.Lock()
	for i, m := range c.pending {
		if (src == AnySource || src == m.Src) && tag == m.Tag {
			c.pending = append(c.pending[:i], c.pending[i+1:]...)
			c.mu.Unlock()
			return m, nil
		}
	}
	w := &waiter{src: src, tag: tag, ch: make(chan Message, 1)}
	c.waiters = append(c.waiters, w)
	c.mu.Unlock()
	return Message{}, w
}

// cancelWaiter removes a posted waiter. If delivery already claimed it,
// the in-flight message is collected and returned instead (the waiter's
// channel has capacity 1 and deliver commits to it right after removing
// the waiter under the lock, so this wait is bounded).
func (c *Comm) cancelWaiter(w *waiter) (Message, bool) {
	c.mu.Lock()
	for i, cand := range c.waiters {
		if cand == w {
			c.waiters = append(c.waiters[:i], c.waiters[i+1:]...)
			c.mu.Unlock()
			return Message{}, false
		}
	}
	c.mu.Unlock()
	return <-w.ch, true
}

// RecvE blocks until a message with the given tag arrives from src
// (AnySource matches any rank), or the endpoint fails (a peer death
// detected by the heartbeat detector, a transport-level corruption). A
// message already matched when the failure fires is still delivered.
func (c *Comm) RecvE(src, tag int) (Message, error) {
	return c.recv(src, tag, nil)
}

// RecvTimeout is RecvE with a per-operation deadline: it returns
// ErrRecvTimeout when no matching message arrives within d.
func (c *Comm) RecvTimeout(src, tag int, d time.Duration) (Message, error) {
	timer := time.NewTimer(d)
	defer timer.Stop()
	return c.recv(src, tag, timer.C)
}

// recv is the one receive body: it waits for a match, the endpoint's
// failure, or deadline (nil never fires). A message matched when the
// failure or the deadline fires is still returned.
func (c *Comm) recv(src, tag int, deadline <-chan time.Time) (Message, error) {
	if err := c.Err(); err != nil {
		return Message{}, err
	}
	m, w := c.postRecv(src, tag)
	if w == nil {
		return m, nil
	}
	var err error
	select {
	case m := <-w.ch:
		return m, nil
	case <-c.failCh:
		err = c.Err()
	case <-deadline:
		err = ErrRecvTimeout
	}
	if m, ok := c.cancelWaiter(w); ok {
		return m, nil
	}
	return Message{}, err
}

// Close shuts down the endpoint's transport.
func (c *Comm) Close() error {
	c.mu.Lock()
	if c.closed {
		c.mu.Unlock()
		return nil
	}
	c.closed = true
	tr := c.tr
	c.mu.Unlock()
	if tr != nil {
		return tr.Close()
	}
	return nil
}

// nextCollTag returns the tag for the next collective operation. Every
// rank must invoke collectives in the same order (SPMD), which keeps the
// sequence numbers aligned.
func (c *Comm) nextCollTag() int {
	c.mu.Lock()
	defer c.mu.Unlock()
	c.collSeq++
	return collectiveTagBase + int(c.collSeq%(1<<20))
}
