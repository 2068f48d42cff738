package comm

import (
	"bytes"
	"encoding/binary"
	"errors"
	"fmt"
	"math/rand"
	"net"
	"runtime"
	"sync"
	"testing"
	"time"
)

// fault_test.go exercises the failure layer: error-returning sends and
// receives, the heartbeat detector, the deterministic fault fabric, and
// the TCP transport's reaction to a peer dying mid-frame.

func TestSendEAfterCloseErrors(t *testing.T) {
	f := NewFabric(2)
	c := f.Comms()[0]
	f.Close()
	if err := c.SendE(1, 0, []byte("x")); err == nil {
		t.Fatal("SendE on a closed endpoint must error")
	}
}

func TestSendEInvalidDestination(t *testing.T) {
	f := NewFabric(2)
	defer f.Close()
	if err := f.Comms()[0].SendE(5, 0, nil); err == nil {
		t.Fatal("SendE to an out-of-range rank must error")
	}
	if err := f.Comms()[0].SendE(-1, 0, nil); err == nil {
		t.Fatal("SendE to a negative rank must error")
	}
}

func TestRecvTimeoutFires(t *testing.T) {
	f := NewFabric(2)
	defer f.Close()
	start := time.Now()
	_, err := f.Comms()[0].RecvTimeout(1, 7, 30*time.Millisecond)
	if err != ErrRecvTimeout {
		t.Fatalf("got %v, want ErrRecvTimeout", err)
	}
	if time.Since(start) > 2*time.Second {
		t.Fatal("timeout receive took far longer than its deadline")
	}
}

func TestRecvTimeoutDeliversPendingMessage(t *testing.T) {
	f := NewFabric(2)
	defer f.Close()
	if err := f.Comms()[1].SendE(0, 7, []byte("hi")); err != nil {
		t.Fatal(err)
	}
	m, err := f.Comms()[0].RecvTimeout(AnySource, 7, time.Second)
	if err != nil {
		t.Fatal(err)
	}
	if string(m.Data) != "hi" || m.Src != 1 {
		t.Fatalf("got %q from %d", m.Data, m.Src)
	}
}

func TestFailWakesBlockedReceive(t *testing.T) {
	f := NewFabric(2)
	defer f.Close()
	c := f.Comms()[0]
	done := make(chan error, 1)
	go func() {
		_, err := c.RecvE(1, 3)
		done <- err
	}()
	time.Sleep(20 * time.Millisecond) // let the receive block
	want := &RankFailedError{Rank: 1, Err: errors.New("test failure")}
	c.Fail(want)
	select {
	case err := <-done:
		var rf *RankFailedError
		if !errors.As(err, &rf) || rf.Rank != 1 {
			t.Fatalf("blocked receive returned %v, want RankFailedError{Rank: 1}", err)
		}
	case <-time.After(2 * time.Second):
		t.Fatal("Fail did not wake the blocked receive")
	}
	// Subsequent operations fail immediately.
	if err := c.SendE(1, 0, nil); err == nil {
		t.Fatal("SendE on a failed endpoint must error")
	}
}

func TestHeartbeatDetectsKilledRank(t *testing.T) {
	const size, victim = 3, 2
	ff := NewFaultFabric(size, 42)
	defer ff.Close()
	var wg sync.WaitGroup
	errs := make([]error, size)
	for r := 0; r < size; r++ {
		wg.Add(1)
		go func(r int) {
			defer wg.Done()
			c := ff.Comms()[r]
			d := StartDetectorView(c, 10*time.Millisecond, 150*time.Millisecond, nil, nil)
			defer d.Stop()
			if r == victim {
				time.Sleep(50 * time.Millisecond)
				ff.Kill(victim)
				return
			}
			// Survivors block in a receive that only the detector's
			// failure verdict can unwind.
			start := time.Now()
			_, err := c.RecvE(victim, 9)
			errs[r] = err
			if elapsed := time.Since(start); elapsed > 5*time.Second {
				t.Errorf("rank %d took %v to detect the dead peer", r, elapsed)
			}
		}(r)
	}
	wg.Wait()
	for r := 0; r < size; r++ {
		if r == victim {
			continue
		}
		var rf *RankFailedError
		if !errors.As(errs[r], &rf) {
			t.Fatalf("rank %d got %v, want RankFailedError", r, errs[r])
		}
		if rf.Rank != victim {
			t.Fatalf("rank %d suspected rank %d, want %d", r, rf.Rank, victim)
		}
	}
}

// TestKeepaliveSurvivesFailedEndpoint pins that a survivor unwinding
// from a peer failure can still prove its own liveness: heartbeats must
// flow from an endpoint that has already been failed, or peers whose
// detectors have not yet convicted the dead rank would suspect this one.
func TestKeepaliveSurvivesFailedEndpoint(t *testing.T) {
	f := NewFabric(2)
	defer f.Close()
	c0 := f.Comms()[0]
	c0.Fail(&RankFailedError{Rank: 1, Err: errors.New("test verdict")})
	done := make(chan struct{})
	go func() {
		defer close(done)
		KeepaliveView(c0, 5*time.Millisecond, 100*time.Millisecond, 0)
	}()
	if _, err := f.Comms()[1].RecvTimeout(0, heartbeatTag, time.Second); err != nil {
		t.Fatalf("no heartbeat from the failed endpoint: %v", err)
	}
	<-done
}

// TestFaultFabricDeterministicLoss pins that two fabrics with the same
// seed drop exactly the same messages.
func TestFaultFabricDeterministicLoss(t *testing.T) {
	deliveries := func(seed uint64) []int {
		ff := NewFaultFabric(2, seed)
		defer ff.Close()
		ff.SetLoss(0.3, 0)
		const n = 200
		var got []int
		var wg sync.WaitGroup
		wg.Add(1)
		go func() {
			defer wg.Done()
			for i := 0; i < n; i++ {
				buf := []byte{byte(i), byte(i >> 8)}
				if err := ff.Comms()[0].SendE(1, 5, buf); err != nil {
					t.Errorf("send %d: %v", i, err)
				}
			}
			// An empty sentinel record marks the end of the stream (sends
			// are FIFO per pair; loss is disabled first so the sentinel
			// itself cannot drop).
			ff.SetLoss(0, 0)
			ff.Comms()[0].SendE(1, 5, nil)
		}()
		for {
			m, err := ff.Comms()[1].RecvE(0, 5)
			if err != nil {
				t.Fatal(err)
			}
			if len(m.Data) == 0 {
				break
			}
			got = append(got, int(binary.LittleEndian.Uint16(m.Data)))
		}
		wg.Wait()
		return got
	}
	a, b := deliveries(7), deliveries(7)
	if len(a) == 0 || len(a) == 200 {
		t.Fatalf("drop rate 0.3 delivered %d/200 — loss injection inert", len(a))
	}
	if len(a) != len(b) {
		t.Fatalf("same seed delivered %d vs %d messages", len(a), len(b))
	}
	for i := range a {
		if a[i] != b[i] {
			t.Fatalf("same seed diverged at delivery %d: %d vs %d", i, a[i], b[i])
		}
	}
	c := deliveries(8)
	same := len(a) == len(c)
	if same {
		for i := range a {
			if a[i] != c[i] {
				same = false
				break
			}
		}
	}
	if same {
		t.Fatal("different seeds produced identical loss patterns")
	}
}

func TestFaultFabricDuplicate(t *testing.T) {
	ff := NewFaultFabric(2, 1)
	defer ff.Close()
	ff.SetLoss(0, 1.0) // every message delivered twice
	if err := ff.Comms()[0].SendE(1, 3, []byte("dup")); err != nil {
		t.Fatal(err)
	}
	for i := 0; i < 2; i++ {
		m, err := ff.Comms()[1].RecvE(0, 3)
		if err != nil {
			t.Fatal(err)
		}
		if string(m.Data) != "dup" {
			t.Fatalf("copy %d: got %q", i, m.Data)
		}
	}
}

func TestFaultFabricSever(t *testing.T) {
	ff := NewFaultFabric(2, 1)
	defer ff.Close()
	ff.Sever(0, 1)
	// The send "succeeds" (one-way partition semantics) but nothing
	// arrives.
	if err := ff.Comms()[0].SendE(1, 4, []byte("lost")); err != nil {
		t.Fatalf("send over a severed link must succeed locally: %v", err)
	}
	if _, err := ff.Comms()[1].RecvTimeout(0, 4, 50*time.Millisecond); err != ErrRecvTimeout {
		t.Fatalf("severed link delivered anyway (err=%v)", err)
	}
}

func TestKilledRankSendsError(t *testing.T) {
	ff := NewFaultFabric(2, 1)
	defer ff.Close()
	ff.Kill(0)
	if err := ff.Comms()[0].SendE(1, 0, nil); err == nil {
		t.Fatal("send from a killed rank must error")
	}
	if got := ff.Killed(); len(got) != 1 || got[0] != 0 {
		t.Fatalf("Killed() = %v, want [0]", got)
	}
}

func TestDialBackoff(t *testing.T) {
	jitter := rand.New(rand.NewSource(1))
	prev := time.Duration(0)
	for attempt := 0; attempt < 6; attempt++ {
		d := dialBackoff(attempt, jitter)
		base := 10 * time.Millisecond << uint(attempt)
		if d < base || d > base+base/2 {
			t.Fatalf("attempt %d: backoff %v outside [%v, %v]", attempt, d, base, base+base/2)
		}
		if d <= prev/4 {
			t.Fatalf("attempt %d: backoff %v did not grow from %v", attempt, d, prev)
		}
		prev = d
	}
	// Growth is capped: attempt 50 must not overflow or exceed ~2x the cap.
	if d := dialBackoff(50, jitter); d <= 0 || d > 960*time.Millisecond {
		t.Fatalf("attempt 50: backoff %v outside the cap", d)
	}
}

// TestTruncatedTCPFrame plays a fake rank 0 that completes the hello
// handshake, writes a frame no honest peer would, and dies: the reader
// must fail the endpoint — naming the connection's peer — instead of
// leaving the receive hung, letting the header's length size an
// allocation, or delivering the frame under another rank's name.
func TestTruncatedTCPFrame(t *testing.T) {
	for _, tc := range []struct {
		name     string
		port     int
		frame    []byte
		maxAlloc uint64 // 0 = unchecked
	}{
		// 100 payload bytes promised, 10 delivered.
		{"truncated", 19721, rawFrame(100, 0, 10), 0},
		// A 12-byte lie about 256 MiB: the reader may run one chunk ahead
		// of the 10 bytes that actually arrive (the race detector's build
		// allocates that chunk twice), nowhere near the promised size.
		{"oversized length", 19723, rawFrame(256<<20, 0, 10), 4 * payloadChunk},
		// A complete frame claiming rank 1 as its source on rank 0's
		// connection.
		{"spoofed src", 19725, rawFrame(4, 1, 4), 0},
	} {
		t.Run(tc.name, func(t *testing.T) {
			addrs := []string{fmt.Sprintf("127.0.0.1:%d", tc.port), fmt.Sprintf("127.0.0.1:%d", tc.port+1)}
			type dialed struct {
				c   *Comm
				err error
			}
			ch := make(chan dialed, 1)
			go func() {
				c, err := DialTCP(1, addrs, 5*time.Second)
				ch <- dialed{c, err}
			}()
			conn, err := dialRetry(addrs[1], 5*time.Second)
			if err != nil {
				t.Fatal(err)
			}
			var hello [4]byte
			binary.LittleEndian.PutUint32(hello[:], 0)
			if _, err := conn.Write(hello[:]); err != nil {
				t.Fatal(err)
			}
			d := <-ch
			if d.err != nil {
				t.Fatal(d.err)
			}
			defer d.c.Close()

			var before, after runtime.MemStats
			runtime.ReadMemStats(&before)
			if _, err := conn.Write(tc.frame); err != nil {
				t.Fatal(err)
			}
			conn.Close() // die mid-frame

			_, rerr := d.c.RecvE(AnySource, 5)
			runtime.ReadMemStats(&after)
			var rf *RankFailedError
			if !errors.As(rerr, &rf) {
				t.Fatalf("receive after bad frame returned %v, want RankFailedError", rerr)
			}
			if rf.Rank != 0 {
				t.Fatalf("suspected rank %d, want 0", rf.Rank)
			}
			if got := after.TotalAlloc - before.TotalAlloc; tc.maxAlloc > 0 && got > tc.maxAlloc {
				t.Fatalf("reader allocated %d bytes for 10 received, limit %d", got, tc.maxAlloc)
			}
		})
	}
}

// rawFrame is a frame header claiming n payload bytes from rank src under
// tag 5, followed by payload zero bytes — a lie wherever n != payload.
func rawFrame(n, src uint32, payload int) []byte {
	f := make([]byte, frameHdrLen+payload)
	binary.LittleEndian.PutUint32(f[0:], n)
	binary.LittleEndian.PutUint32(f[4:], src)
	binary.LittleEndian.PutUint32(f[8:], 5)
	return f
}

// FuzzTCPFrame: whatever bytes arrive on rank 0's connection, readFrame
// returns an error or a message from rank 0 whose re-framed bytes are
// exactly the prefix it consumed, and allocates at most one payloadChunk
// beyond the bytes that arrived (the bound allows two: the race
// detector's build allocates that chunk twice) — the length word alone
// sizes nothing. Seeded from TestTruncatedTCPFrame's table.
func FuzzTCPFrame(f *testing.F) {
	const peer = 0
	f.Add(rawFrame(100, peer, 10))     // truncated
	f.Add(rawFrame(256<<20, peer, 10)) // oversized length
	f.Add(rawFrame(4, 1, 4))           // spoofed src
	f.Add(appendFrame(appendFrame(nil, peer, 9, []byte("ghost rows")), peer, 10, nil))
	f.Add(rawFrame(0, peer, 0)[:7]) // cut inside the header
	f.Add([]byte{})
	f.Fuzz(func(t *testing.T, data []byte) {
		r := bytes.NewReader(data)
		var before, after runtime.MemStats
		runtime.ReadMemStats(&before)
		msg, err := readFrame(r, peer)
		runtime.ReadMemStats(&after)
		if got, limit := after.TotalAlloc-before.TotalAlloc, uint64(len(data)+2*payloadChunk+64<<10); got > limit {
			t.Fatalf("%d input bytes: allocated %d, limit %d", len(data), got, limit)
		}
		if err != nil {
			return
		}
		if msg.Src != peer {
			t.Fatalf("accepted a frame from rank %d on rank %d's connection", msg.Src, peer)
		}
		consumed := data[:len(data)-r.Len()]
		if again := appendFrame(nil, msg.Src, msg.Tag, msg.Data); !bytes.Equal(again, consumed) {
			t.Fatalf("frame of %d bytes re-frames to %d different bytes", len(consumed), len(again))
		}
	})
}

// TestReadPayloadAllocation pins readPayload's two promises for honest
// frames: a payload of up to one chunk is one exact allocation, and a
// longer one arrives whole.
func TestReadPayloadAllocation(t *testing.T) {
	src := make([]byte, 2*payloadChunk+17)
	for i := range src {
		src[i] = byte(i * 31)
	}
	for _, n := range []int{0, 1, payloadChunk, payloadChunk + 1, len(src)} {
		got, err := readPayload(bytes.NewReader(src), n)
		if err != nil || !bytes.Equal(got, src[:n]) {
			t.Fatalf("n=%d: got %d bytes, err %v", n, len(got), err)
		}
		if n <= payloadChunk && cap(got) != n {
			t.Fatalf("n=%d: capacity %d, want an exact single allocation", n, cap(got))
		}
	}
	if got, err := readPayload(bytes.NewReader(src[:5]), 9); err == nil || len(got) != 5 {
		t.Fatalf("short stream: got %d bytes, err %v; want 5 and an error", len(got), err)
	}
}

// dialRetry dials until the listener is up (DialTCP runs concurrently).
func dialRetry(addr string, timeout time.Duration) (net.Conn, error) {
	deadline := time.Now().Add(timeout)
	var err error
	for time.Now().Before(deadline) {
		var conn net.Conn
		conn, err = net.DialTimeout("tcp", addr, time.Second)
		if err == nil {
			return conn, nil
		}
		time.Sleep(10 * time.Millisecond)
	}
	return nil, err
}
