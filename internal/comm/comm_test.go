package comm

import (
	"fmt"
	"math/rand"
	"reflect"
	"strings"
	"sync"
	"testing"
	"time"
)

// runSPMD runs fn on every rank of a fresh in-process fabric and waits.
func runSPMD(t *testing.T, size int, fn func(c *Comm)) {
	t.Helper()
	f := NewFabric(size)
	defer f.Close()
	var wg sync.WaitGroup
	for _, c := range f.Comms() {
		wg.Add(1)
		go func(c *Comm) {
			defer wg.Done()
			fn(c)
		}(c)
	}
	wg.Wait()
}

// check fails the test on a communication error: these tests run on
// healthy fabrics, where none may occur. It reports with t.Error because
// ranks run on their own goroutines.
func check(t *testing.T, err error) {
	t.Helper()
	if err != nil {
		t.Error(err)
	}
}

// recv is RecvE on a healthy fabric.
func recv(t *testing.T, c *Comm, src, tag int) Message {
	t.Helper()
	m, err := c.RecvE(src, tag)
	check(t, err)
	return m
}

func TestSendRecvBasic(t *testing.T) {
	runSPMD(t, 2, func(c *Comm) {
		if c.Rank() == 0 {
			check(t, c.SendE(1, 7, []byte("hello")))
		} else {
			m := recv(t, c, 0, 7)
			if string(m.Data) != "hello" || m.Src != 0 || m.Tag != 7 {
				t.Errorf("got %+v", m)
			}
		}
	})
}

func TestRecvBeforeSend(t *testing.T) {
	f := NewFabric(2)
	defer f.Close()
	comms := f.Comms()
	done := make(chan Message, 1)
	go func() { done <- recv(t, comms[1], 0, 3) }()
	time.Sleep(10 * time.Millisecond) // let the receive get posted first
	check(t, comms[0].SendE(1, 3, []byte{42}))
	m := <-done
	if m.Data[0] != 42 {
		t.Fatalf("got %v", m.Data)
	}
}

func TestTagMatching(t *testing.T) {
	runSPMD(t, 2, func(c *Comm) {
		if c.Rank() == 0 {
			check(t, c.SendE(1, 1, []byte("a")))
			check(t, c.SendE(1, 2, []byte("b")))
		} else {
			// Receive out of send order by tag.
			m2 := recv(t, c, 0, 2)
			m1 := recv(t, c, 0, 1)
			if string(m2.Data) != "b" || string(m1.Data) != "a" {
				t.Error("tag matching failed")
			}
		}
	})
}

func TestAnySource(t *testing.T) {
	runSPMD(t, 3, func(c *Comm) {
		if c.Rank() != 0 {
			check(t, c.SendE(0, 5, []byte{byte(c.Rank())}))
		} else {
			seen := map[int]bool{}
			for i := 0; i < 2; i++ {
				m := recv(t, c, AnySource, 5)
				seen[m.Src] = true
			}
			if !seen[1] || !seen[2] {
				t.Errorf("missing sources: %v", seen)
			}
		}
	})
}

func TestNonOvertakingSameTag(t *testing.T) {
	runSPMD(t, 2, func(c *Comm) {
		const n = 200
		if c.Rank() == 0 {
			for i := 0; i < n; i++ {
				check(t, c.SendE(1, 9, []byte{byte(i)}))
			}
		} else {
			for i := 0; i < n; i++ {
				m := recv(t, c, 0, 9)
				if int(m.Data[0]) != i {
					t.Errorf("message %d arrived out of order (got %d)", i, m.Data[0])
					return
				}
			}
		}
	})
}

func TestStatsCount(t *testing.T) {
	runSPMD(t, 2, func(c *Comm) {
		if c.Rank() == 0 {
			check(t, c.SendE(1, 1, make([]byte, 100)))
		} else {
			recv(t, c, 0, 1)
			st := c.Stats()
			if st.MsgsRecv != 1 || st.BytesRecv != 100 {
				t.Errorf("stats %+v", st)
			}
		}
	})
}

func TestInvalidDestinationIsAnError(t *testing.T) {
	f := NewFabric(1)
	defer f.Close()
	if err := f.Comms()[0].SendE(5, 0, nil); err == nil {
		t.Fatal("SendE to an invalid rank must return an error")
	}
}

func TestBarrier(t *testing.T) {
	for _, p := range []int{1, 2, 3, 4, 7, 8} {
		var phase sync.Map
		runSPMD(t, p, func(c *Comm) {
			phase.Store(c.Rank(), 1)
			check(t, c.BarrierE())
			// After the barrier, every rank must have reached phase 1.
			for r := 0; r < c.Size(); r++ {
				if v, ok := phase.Load(r); !ok || v != 1 {
					t.Errorf("p=%d rank %d: peer %d had not reached the barrier", p, c.Rank(), r)
				}
			}
			check(t, c.BarrierE()) // second barrier must also work (tag sequencing)
		})
	}
}

func TestBcast(t *testing.T) {
	for _, p := range []int{1, 2, 3, 5, 8} {
		for root := 0; root < p; root++ {
			want := []byte(fmt.Sprintf("payload-from-%d", root))
			runSPMD(t, p, func(c *Comm) {
				var mine []byte
				if c.Rank() == root {
					mine = want
				}
				got, err := c.BcastE(root, mine)
				check(t, err)
				if string(got) != string(want) {
					t.Errorf("p=%d root=%d rank=%d: got %q", p, root, c.Rank(), got)
				}
			})
		}
	}
}

// TestAllgather gives every rank a block of its own length, some with no
// spare capacity, some with less than the 4-byte owner trailer and some
// with more, so the trailer goes both in place and into a copy. After
// every rank has returned, each caller's block must read as it was passed
// and every slot as its owner passed it; at p ≥ 3 the ring forwards
// received messages, so a slot can be a block two hops old.
func TestAllgather(t *testing.T) {
	block := func(r int) []byte {
		b := make([]byte, 5+3*r, 5+3*r+[]int{0, 2, 4, 9}[r%4])
		for i := range b {
			b[i] = byte(r*31 + i)
		}
		return b
	}
	for _, p := range []int{1, 2, 3, 6} {
		mine := make([][]byte, p)
		all := make([][][]byte, p)
		runSPMD(t, p, func(c *Comm) {
			r := c.Rank()
			mine[r] = block(r)
			var err error
			all[r], err = c.AllgatherE(mine[r])
			check(t, err)
		})
		for r := 0; r < p; r++ {
			if want := block(r); string(mine[r]) != string(want) {
				t.Errorf("p=%d: rank %d's block reads %v after the gather, passed as %v", p, r, mine[r], want)
			}
			for q, got := range all[r] {
				if want := block(q); string(got) != string(want) {
					t.Errorf("p=%d rank=%d: slot %d = %v, want %v", p, r, q, got, want)
				}
			}
		}
	}
}

// TestAllgatherValidatesRingFrames injects one raw frame from rank 0's
// left neighbour under the collective's tag, so it is the first block
// rank 0 pulls off the ring. The owner trailer indexes the result slice:
// a frame too short to carry one, or one naming a rank other than the
// block this step delivers, must be an error naming the sender — at the
// parent the first two panicked and the third left a hole in the result.
func TestAllgatherValidatesRingFrames(t *testing.T) {
	const p, left = 3, 2
	for _, tc := range []struct {
		name, want string
		frame      []byte
	}{
		{"shorter than the trailer", "shorter than", []byte{1, 2, 3}},
		{"owner past the communicator", "rank 7's block", appendOwner([]byte("blob"), 7)},
		{"a block from another step", "rank 1's block", appendOwner([]byte("blob"), 1)},
	} {
		f := NewFabric(p)
		comms := f.Comms()
		check(t, comms[left].SendE(0, collectiveTagBase+1, tc.frame))
		_, err := comms[0].AllgatherE([]byte("mine"))
		if err == nil || !strings.Contains(err.Error(), "from rank 2") || !strings.Contains(err.Error(), tc.want) {
			t.Errorf("%s: AllgatherE returned %v, want an error from rank 2 mentioning %q", tc.name, err, tc.want)
		}
		f.Close()
	}
}

// TestAllreduceRejectsPartialValue: a peer's partial of 8n+3 bytes used
// to decode as n values, the tail silently dropped; it is an error naming
// the rank whose partial it is, as is any other wrong length.
func TestAllreduceRejectsPartialValue(t *testing.T) {
	mine := []float64{1, 2, 3}
	for _, size := range []int{8*len(mine) + 3, 8 * (len(mine) - 1), 0} {
		f := NewFabric(2)
		comms := f.Comms()
		check(t, comms[1].SendE(0, collectiveTagBase+1, appendOwner(make([]byte, size), 1)))
		_, err := comms[0].AllreduceSumOrderedE(mine)
		if err == nil || !strings.Contains(err.Error(), "from rank 1") || !strings.Contains(err.Error(), fmt.Sprintf("%d bytes, want 24", size)) {
			t.Errorf("%d-byte partial: AllreduceSumOrderedE returned %v, want an error from rank 1 stating the sizes", size, err)
		}
		f.Close()
	}
}

func TestAllreduceSumOrdered(t *testing.T) {
	for _, p := range []int{1, 2, 3, 5, 8} {
		// Expected: sum over ranks of [r, 2r, 100].
		want := []float64{0, 0, 0}
		for r := 0; r < p; r++ {
			want[0] += float64(r)
			want[1] += float64(2 * r)
			want[2] += 100
		}
		var mu sync.Mutex
		results := map[int][]float64{}
		runSPMD(t, p, func(c *Comm) {
			got, err := c.AllreduceSumOrderedE([]float64{float64(c.Rank()), float64(2 * c.Rank()), 100})
			check(t, err)
			mu.Lock()
			results[c.Rank()] = got
			mu.Unlock()
		})
		for r := 0; r < p; r++ {
			if !reflect.DeepEqual(results[r], want) {
				t.Fatalf("p=%d rank=%d: got %v want %v", p, r, results[r], want)
			}
		}
		// Bit-identical across ranks.
		for r := 1; r < p; r++ {
			for i := range results[0] {
				if results[r][i] != results[0][i] {
					t.Fatalf("p=%d: ordered allreduce differs across ranks", p)
				}
			}
		}
	}
}

func TestOrderedAllreduceDeterministicAcrossTimings(t *testing.T) {
	// Run the same reduction many times with random goroutine delays; the
	// result must be bit-identical every time (ordered combining).
	p := 4
	vals := [][]float64{
		{0.1, 1e-17}, {0.2, 1e17}, {-0.3, -1e17}, {0.4, 2.5e-17},
	}
	var ref []float64
	for trial := 0; trial < 10; trial++ {
		var mu sync.Mutex
		var got []float64
		runSPMD(t, p, func(c *Comm) {
			time.Sleep(time.Duration(rand.Intn(3)) * time.Millisecond)
			r, err := c.AllreduceSumOrderedE(vals[c.Rank()])
			check(t, err)
			if c.Rank() == 0 {
				mu.Lock()
				got = r
				mu.Unlock()
			}
		})
		if ref == nil {
			ref = got
			continue
		}
		for i := range ref {
			if got[i] != ref[i] {
				t.Fatal("ordered allreduce not timing-independent")
			}
		}
	}
}

func TestCoalescer(t *testing.T) {
	f := NewFabric(2)
	defer f.Close()
	comms := f.Comms()
	co := NewCoalescer(comms[0], 1, 11, 10)
	// Three 4-byte records with a 10-byte buffer: flush after 2 appends...
	// precisely, the third Append flushes the first two records.
	co.Append([]byte("aaaa"))
	co.Append([]byte("bbbb"))
	if co.Flushes() != 0 {
		t.Fatal("flushed too early")
	}
	co.Append([]byte("cccc"))
	if co.Flushes() != 1 {
		t.Fatalf("expected 1 flush, got %d", co.Flushes())
	}
	co.Flush()
	// The first message is read only now, after cccc was appended: a
	// flushed message keeps its bytes, because its buffer went with the
	// send and the next record took a new one.
	m1 := recv(t, comms[1], 0, 11)
	m2 := recv(t, comms[1], 0, 11)
	if string(m1.Data) != "aaaabbbb" || string(m2.Data) != "cccc" {
		t.Fatalf("coalesced payloads %q, %q", m1.Data, m2.Data)
	}
	if co.Records() != 3 {
		t.Fatalf("records = %d", co.Records())
	}
}

// discardTransport accepts every send and delivers none.
type discardTransport struct{}

func (discardTransport) Send(int, int, []byte) error { return nil }
func (discardTransport) Close() error                { return nil }

// TestCoalescerOneAllocPerMessage pins a message to one allocation: its
// buffer, made at full size when its first record arrives. Each run
// appends one full 64 KiB message of 260-byte records (a K = 32 ghost
// row), and its first record flushes the previous run's message.
func TestCoalescerOneAllocPerMessage(t *testing.T) {
	const maxSize, recLen = 64 << 10, 260
	c := newComm(0, 2)
	c.tr = discardTransport{}
	co := NewCoalescer(c, 1, 15, maxSize)
	rec := make([]byte, recLen)
	const runs = 20
	allocs := testing.AllocsPerRun(runs, func() {
		for range maxSize / recLen {
			if err := co.Append(rec); err != nil {
				t.Fatal(err)
			}
		}
	})
	if allocs != 1 {
		t.Errorf("%v allocations per flushed message, want 1", allocs)
	}
	if co.Flushes() != runs {
		t.Errorf("%d flushes over %d full messages (and a warm-up), want %d", co.Flushes(), runs, runs)
	}
}

func TestCoalescerUnbuffered(t *testing.T) {
	f := NewFabric(2)
	defer f.Close()
	comms := f.Comms()
	co := NewCoalescer(comms[0], 1, 12, 0) // ablation: flush every record
	co.Append([]byte("x"))
	co.Append([]byte("y"))
	if co.Flushes() != 2 {
		t.Fatalf("unbuffered mode flushed %d times, want 2", co.Flushes())
	}
	recv(t, comms[1], 0, 12)
	recv(t, comms[1], 0, 12)
}

func TestCoalescerEmptyFlushNoop(t *testing.T) {
	f := NewFabric(2)
	defer f.Close()
	co := NewCoalescer(f.Comms()[0], 1, 13, 64)
	co.Flush()
	if co.Flushes() != 0 {
		t.Fatal("empty flush must not send")
	}
}

func TestTCPTransport(t *testing.T) {
	addrs := []string{"127.0.0.1:19701", "127.0.0.1:19702", "127.0.0.1:19703"}
	var wg sync.WaitGroup
	errs := make([]error, 3)
	comms := make([]*Comm, 3)
	for r := 0; r < 3; r++ {
		wg.Add(1)
		go func(r int) {
			defer wg.Done()
			c, err := DialTCP(r, addrs, 5*time.Second)
			comms[r], errs[r] = c, err
		}(r)
	}
	wg.Wait()
	for r, err := range errs {
		if err != nil {
			t.Fatalf("rank %d: %v", r, err)
		}
	}
	defer func() {
		for _, c := range comms {
			c.Close()
		}
	}()

	// Point-to-point in both directions plus a collective.
	var wg2 sync.WaitGroup
	for r := 0; r < 3; r++ {
		wg2.Add(1)
		go func(c *Comm) {
			defer wg2.Done()
			next := (c.Rank() + 1) % 3
			prev := (c.Rank() + 2) % 3
			check(t, c.SendE(next, 1, []byte{byte(c.Rank())}))
			m := recv(t, c, prev, 1)
			if int(m.Data[0]) != prev {
				t.Errorf("rank %d: ring got %d", c.Rank(), m.Data[0])
			}
			sum, err := c.AllreduceSumOrderedE([]float64{float64(c.Rank() + 1)})
			check(t, err)
			if sum[0] != 6 {
				t.Errorf("rank %d: allreduce = %v", c.Rank(), sum[0])
			}
		}(comms[r])
	}
	wg2.Wait()
}

func TestTCPLargeMessage(t *testing.T) {
	addrs := []string{"127.0.0.1:19711", "127.0.0.1:19712"}
	var wg sync.WaitGroup
	comms := make([]*Comm, 2)
	errs := make([]error, 2)
	for r := 0; r < 2; r++ {
		wg.Add(1)
		go func(r int) {
			defer wg.Done()
			comms[r], errs[r] = DialTCP(r, addrs, 5*time.Second)
		}(r)
	}
	wg.Wait()
	for _, err := range errs {
		if err != nil {
			t.Fatal(err)
		}
	}
	defer comms[0].Close()
	defer comms[1].Close()

	big := make([]byte, 1<<20)
	for i := range big {
		big[i] = byte(i * 31)
	}
	done := make(chan struct{})
	go func() {
		m := recv(t, comms[1], 0, 2)
		for i := range m.Data {
			if m.Data[i] != byte(i*31) {
				t.Errorf("corruption at %d", i)
				break
			}
		}
		close(done)
	}()
	check(t, comms[0].SendE(1, 2, big))
	<-done
}
