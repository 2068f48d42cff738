package comm

import (
	"errors"
	"fmt"
	"sync"
)

// Fabric is an in-process transport backing a virtual cluster: every rank
// is an endpoint in the same process and messages travel through per-pair
// FIFO queues serviced by one delivery goroutine per rank (preserving the
// non-overtaking rule while keeping senders non-blocking, like an MPI
// progress thread).
//
// The fabric also injects the faults a TCP mesh can have, so every
// recovery path of the fault-tolerant engine runs under `go test -race`:
//
//   - Kill(r) makes rank r behave like a crashed process: its endpoint
//     fails (every blocked operation returns a RankFailedError) and all
//     its traffic — inbound and outbound — is silently dropped, exactly
//     the silence a dead TCP peer produces. Survivors notice only
//     through the failure detector's suspicion timeout.
//   - Sever(a, b) cuts one link in both directions (a partitioned
//     switch), leaving both endpoints alive.
//
// A fabric nobody faults delivers every message exactly once, in
// per-pair order.
type Fabric struct {
	comms []*Comm
	chans []chan Message
	wg    sync.WaitGroup

	mu      sync.Mutex
	closed  bool
	killed  []bool
	severed map[[2]int]bool
}

// inprocTransport is one rank's view of the fabric.
type inprocTransport struct {
	f    *Fabric
	rank int
}

// NewFabric creates an in-process virtual cluster with size ranks and
// returns one communicator per rank.
func NewFabric(size int) *Fabric {
	if size < 1 {
		panic("comm: fabric size must be >= 1")
	}
	f := &Fabric{
		comms:   make([]*Comm, size),
		chans:   make([]chan Message, size),
		killed:  make([]bool, size),
		severed: map[[2]int]bool{},
	}
	for r := 0; r < size; r++ {
		f.comms[r] = newComm(r, size)
		f.comms[r].tr = &inprocTransport{f: f, rank: r}
		// Generous buffering so senders virtually never block; the
		// distributed engine's coalescing keeps message counts low.
		f.chans[r] = make(chan Message, 4096)
	}
	f.wg.Add(size)
	for r := 0; r < size; r++ {
		go f.pump(r)
	}
	return f
}

// pump delivers rank r's inbound queue in arrival order.
func (f *Fabric) pump(r int) {
	defer f.wg.Done()
	for m := range f.chans[r] {
		f.comms[r].deliver(m)
	}
}

// Comms returns the per-rank communicators.
func (f *Fabric) Comms() []*Comm { return f.comms }

// link names the (a, b) link independently of direction.
func link(a, b int) [2]int {
	if a > b {
		a, b = b, a
	}
	return [2]int{a, b}
}

// Sever cuts the (a, b) link in both directions; both ranks stay alive.
func (f *Fabric) Sever(a, b int) {
	f.mu.Lock()
	f.severed[link(a, b)] = true
	f.mu.Unlock()
}

// Kill makes rank r a crashed process: its endpoint fails immediately
// and all its traffic is dropped from now on. Idempotent.
func (f *Fabric) Kill(r int) {
	f.mu.Lock()
	if f.killed[r] {
		f.mu.Unlock()
		return
	}
	f.killed[r] = true
	f.mu.Unlock()
	f.comms[r].Fail(&RankFailedError{Rank: r, Err: errors.New("killed by the fabric")})
}

// Killed returns the ranks killed so far, in rank order.
func (f *Fabric) Killed() []int {
	f.mu.Lock()
	defer f.mu.Unlock()
	var out []int
	for r, k := range f.killed {
		if k {
			out = append(out, r)
		}
	}
	return out
}

// Send implements Transport for one rank, with the fault rules applied.
func (t *inprocTransport) Send(dst, tag int, data []byte) error {
	f := t.f
	f.mu.Lock()
	switch {
	case f.closed:
		f.mu.Unlock()
		return fmt.Errorf("fabric closed")
	case f.killed[t.rank]:
		f.mu.Unlock()
		return fmt.Errorf("rank %d is killed", t.rank)
	case f.killed[dst] || f.severed[link(t.rank, dst)]:
		// A dead peer or a cut link swallows the bytes silently — the
		// sender's local send "succeeds", as with a one-way TCP partition.
		f.mu.Unlock()
		return nil
	}
	f.mu.Unlock()
	f.chans[dst] <- Message{Src: t.rank, Tag: tag, Data: data}
	return nil
}

// Close is a no-op per endpoint; use Fabric.Close to tear down the
// cluster.
func (t *inprocTransport) Close() error { return nil }

// Close shuts down all delivery goroutines. Call only after all ranks
// have finished communicating.
func (f *Fabric) Close() {
	f.mu.Lock()
	if f.closed {
		f.mu.Unlock()
		return
	}
	f.closed = true
	f.mu.Unlock()
	for _, ch := range f.chans {
		close(ch)
	}
	f.wg.Wait()
}
