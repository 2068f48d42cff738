package comm

import (
	"encoding/binary"
	"fmt"
	"time"
)

// failure.go is the failure-detection layer: every rank runs a Detector
// that exchanges heartbeats with all peers over a reserved tag. A peer
// silent for longer than the suspicion timeout fails the local endpoint
// with a RankFailedError, which wakes every blocked error-returning
// operation — so a rank stuck in a ghost wait or a collective on a dead
// peer unwinds within the suspicion timeout instead of hanging forever.
// MPI-style accuracy caveats apply: the detector can only suspect, not
// prove, death; an extremely delayed peer is indistinguishable from a
// dead one, so the suspicion timeout trades detection latency against
// false positives.

// heartbeatTag is the reserved tag of detector traffic — far above the
// engine's per-iteration item tags and the dist startup tags (1<<28),
// far below the collective space (1<<30).
const heartbeatTag = 1 << 29

// RankFailedError reports a dead (or suspected-dead) peer.
type RankFailedError struct {
	// Rank is the failed rank in the communicator that detected the
	// failure, or -1 when the failing rank is unknown (e.g. a local
	// transport error).
	Rank int
	// Err describes how the failure was detected.
	Err error
}

func (e *RankFailedError) Error() string {
	if e.Rank < 0 {
		return fmt.Sprintf("comm: rank failed: %v", e.Err)
	}
	return fmt.Sprintf("comm: rank %d failed: %v", e.Rank, e.Err)
}

func (e *RankFailedError) Unwrap() error { return e.Err }

// Detector is one rank's heartbeat failure detector: a sender goroutine
// emits heartbeats to every peer each interval, a receiver goroutine
// tracks per-peer last-heard times and fails the endpoint when a peer's
// silence exceeds the suspicion timeout.
type Detector struct {
	c                    *Comm
	interval, suspicion  time.Duration
	members              []Member        // per-rank identities; nil = unkeyed
	table                *SuspicionTable // cross-round convictions; may be nil
	beat                 []byte          // heartbeat payload (own incarnation), nil unkeyed
	done                 chan struct{}
	senderDone, recvDone chan struct{}
}

// StartDetectorView attaches a heartbeat failure detector to the
// endpoint. interval is the heartbeat period (0 derives suspicion/20);
// suspicion is how long a peer may stay silent before it is declared
// failed. On a single-rank communicator the detector is inert. Stop it
// before closing the endpoint.
//
// With members set, detector state is keyed by (address, incarnation):
// members names each rank's identity and table carries convictions
// across re-meshes. Heartbeats then carry the sender's incarnation;
// beats from an older incarnation at a peer's address are ignored (a
// stale process cannot keep its successor's entry fresh), convictions
// are recorded in the table, and a member whose exact incarnation the
// table already convicted is failed immediately — while a *new*
// incarnation at a convicted address gets a full suspicion window,
// which is what lets a crashed rank rejoin at its old address without
// being insta-convicted by survivors' stale state. nil members (and
// table) give the unkeyed detector: unstamped beats, no convictions.
func StartDetectorView(c *Comm, interval, suspicion time.Duration, members []Member, table *SuspicionTable) *Detector {
	if interval <= 0 {
		interval = suspicion / 20
	}
	if interval <= 0 {
		interval = 50 * time.Millisecond
	}
	d := &Detector{
		c: c, interval: interval, suspicion: suspicion,
		members:    members,
		table:      table,
		done:       make(chan struct{}),
		senderDone: make(chan struct{}),
		recvDone:   make(chan struct{}),
	}
	if members != nil {
		if len(members) != c.Size() {
			c.Fail(&RankFailedError{Rank: -1, Err: fmt.Errorf("detector got %d member identities for a size-%d communicator", len(members), c.Size())})
			close(d.senderDone)
			close(d.recvDone)
			return d
		}
		d.beat = binary.LittleEndian.AppendUint64(nil, members[c.Rank()].Incarnation)
		if table != nil {
			for r, mb := range members {
				if r != c.Rank() && table.Convicted(mb.Addr, mb.Incarnation) {
					c.Fail(&RankFailedError{
						Rank: r,
						Err:  fmt.Errorf("incarnation %d at %s was already convicted", mb.Incarnation, mb.Addr),
					})
					close(d.senderDone)
					close(d.recvDone)
					return d
				}
			}
		}
	}
	if c.Size() > 1 && suspicion > 0 {
		go d.sendLoop()
		go d.recvLoop()
	} else {
		close(d.senderDone)
		close(d.recvDone)
	}
	return d
}

// Stop shuts the detector down and waits for its goroutines. It does not
// un-fail an endpoint the detector already failed.
func (d *Detector) Stop() {
	select {
	case <-d.done:
	default:
		close(d.done)
	}
	<-d.senderDone
	<-d.recvDone
}

// sendHeartbeat sends one best-effort heartbeat, bypassing the failed
// state: an endpoint that has convicted a dead peer must keep proving its
// own liveness while its owner unwinds, or peers whose detectors have not
// yet convicted the dead rank would suspect this one instead. Only a
// closed endpoint stops heartbeats.
func (c *Comm) sendHeartbeat(dst int, payload []byte) error {
	if dst < 0 || dst >= c.size {
		return fmt.Errorf("invalid destination rank %d (size %d)", dst, c.size)
	}
	c.mu.Lock()
	if c.closed {
		c.mu.Unlock()
		return fmt.Errorf("endpoint closed")
	}
	tr := c.tr
	c.mu.Unlock()
	if tr == nil {
		return fmt.Errorf("endpoint has no transport")
	}
	return tr.Send(dst, heartbeatTag, payload)
}

// KeepaliveView emits best-effort heartbeats to every peer for the given
// duration, even on a failed endpoint. Survivors of a rank failure call
// it while unwinding: their own detector already has its verdict, but a
// peer whose detector has not yet convicted the dead rank would otherwise
// see this rank go quiet first and suspect it instead — and survivors
// that disagree about who died cannot rebuild a mesh. The duration should
// cover a full suspicion window, so the slowest peer convicts the right
// rank before this one goes silent. Every beat carries the sender's
// incarnation, so incarnation-keyed detectors discard beats from a stale
// life at this address (unkeyed ones ignore the stamp).
func KeepaliveView(c *Comm, interval, duration time.Duration, incarnation uint64) {
	payload := binary.LittleEndian.AppendUint64(nil, incarnation)
	if interval <= 0 {
		interval = 50 * time.Millisecond
	}
	deadline := time.Now().Add(duration)
	for time.Now().Before(deadline) {
		for peer := 0; peer < c.Size(); peer++ {
			if peer == c.Rank() {
				continue
			}
			if c.sendHeartbeat(peer, payload) != nil {
				return // endpoint closed: nothing left to prove
			}
		}
		time.Sleep(interval)
	}
}

// sendLoop emits best-effort heartbeats: a send error means the endpoint
// is closed (the peer-death case is handled by sendHeartbeat bypassing
// the failed state), so errors just end the loop.
func (d *Detector) sendLoop() {
	defer close(d.senderDone)
	tick := time.NewTicker(d.interval)
	defer tick.Stop()
	beat := func() bool {
		for peer := 0; peer < d.c.Size(); peer++ {
			if peer == d.c.Rank() {
				continue
			}
			if err := d.c.sendHeartbeat(peer, d.beat); err != nil {
				return false
			}
		}
		return true
	}
	if !beat() {
		return
	}
	for {
		select {
		case <-d.done:
			return
		case <-tick.C:
			if !beat() {
				return
			}
		}
	}
}

// staleBeat reports whether a received heartbeat came from an older
// incarnation than the member the detector expects at that rank — a
// process from a previous view still draining must not keep its
// successor's liveness entry fresh. Unstamped beats (unkeyed detectors)
// are always accepted as current.
func (d *Detector) staleBeat(m Message) bool {
	if d.members == nil || m.Src < 0 || m.Src >= len(d.members) || len(m.Data) < 8 {
		return false
	}
	return binary.LittleEndian.Uint64(m.Data) < d.members[m.Src].Incarnation
}

// recvLoop consumes heartbeats and fails the endpoint on the first peer
// whose silence exceeds the suspicion timeout. Peers get a full
// suspicion window from startup before they can be suspected, so ranks
// that start the detector at slightly different times never see a false
// positive at t=0.
func (d *Detector) recvLoop() {
	defer close(d.recvDone)
	last := make([]time.Time, d.c.Size())
	now := time.Now()
	for r := range last {
		last[r] = now
	}
	for {
		select {
		case <-d.done:
			return
		default:
		}
		m, err := d.c.RecvTimeout(AnySource, heartbeatTag, d.interval)
		switch {
		case err == nil:
			if !d.staleBeat(m) {
				last[m.Src] = time.Now()
			}
		case err == ErrRecvTimeout:
			// fall through to the suspicion check
		default:
			return // endpoint failed or closed elsewhere
		}
		now := time.Now()
		for r := range last {
			if r == d.c.Rank() {
				continue
			}
			if silence := now.Sub(last[r]); silence > d.suspicion {
				if d.table != nil && d.members != nil {
					d.table.Convict(d.members[r].Addr, d.members[r].Incarnation)
				}
				d.c.Fail(&RankFailedError{
					Rank: r,
					Err:  fmt.Errorf("no heartbeat for %v (suspicion timeout %v)", silence.Round(time.Millisecond), d.suspicion),
				})
				return
			}
		}
	}
}
