package comm

import (
	"encoding/binary"
	"fmt"
	"io"
	"math/rand"
	"net"
	"sync"
	"time"
)

// TCP wire format: one frame per message,
//
//	[4B little-endian payload length][4B src rank][4B tag][payload]
//
// Every pair of ranks is connected once; the lower rank dials, the higher
// rank accepts, and a 4-byte hello identifies the dialer. One writer
// goroutine per peer drains a FIFO queue (preserving the non-overtaking
// rule), one reader goroutine per peer delivers inbound frames.

// tcpTransport is the mesh transport for one rank.
type tcpTransport struct {
	c     *Comm
	rank  int
	size  int
	conns []net.Conn
	sendQ []chan []byte

	wgWriters sync.WaitGroup
	wgReaders sync.WaitGroup

	mu     sync.Mutex
	closed bool
}

// DialTCP builds a fully connected TCP mesh across the given rank
// addresses and returns this rank's communicator. addrs[i] is rank i's
// listen address ("host:port"); the function listens on addrs[rank],
// dials every higher... lower rank dials higher rank. It blocks until the
// mesh is complete or timeout elapses.
func DialTCP(rank int, addrs []string, timeout time.Duration) (*Comm, error) {
	size := len(addrs)
	if rank < 0 || rank >= size {
		return nil, fmt.Errorf("comm: rank %d out of range for %d addresses", rank, size)
	}
	c := newComm(rank, size)
	t := &tcpTransport{
		c:     c,
		rank:  rank,
		size:  size,
		conns: make([]net.Conn, size),
		sendQ: make([]chan []byte, size),
	}
	c.tr = t

	ln, err := net.Listen("tcp", addrs[rank])
	if err != nil {
		return nil, fmt.Errorf("comm: rank %d listen %s: %w", rank, addrs[rank], err)
	}
	defer ln.Close()
	deadline := time.Now().Add(timeout)

	var mu sync.Mutex
	var firstErr error
	var wg sync.WaitGroup

	// Accept connections from lower ranks.
	expectAccepts := rank
	wg.Add(1)
	go func() {
		defer wg.Done()
		for i := 0; i < expectAccepts; i++ {
			if d, ok := ln.(*net.TCPListener); ok {
				d.SetDeadline(deadline)
			}
			conn, err := ln.Accept()
			if err != nil {
				mu.Lock()
				if firstErr == nil {
					firstErr = fmt.Errorf("accept: %w", err)
				}
				mu.Unlock()
				return
			}
			// A dialer that connects but never sends its hello must not
			// stall the accept loop past the overall deadline.
			conn.SetReadDeadline(deadline)
			var hello [4]byte
			if _, err := io.ReadFull(conn, hello[:]); err != nil {
				mu.Lock()
				if firstErr == nil {
					firstErr = fmt.Errorf("hello: %w", err)
				}
				mu.Unlock()
				conn.Close()
				return
			}
			conn.SetReadDeadline(time.Time{})
			peer := int(binary.LittleEndian.Uint32(hello[:]))
			mu.Lock()
			if peer < 0 || peer >= size || t.conns[peer] != nil {
				if firstErr == nil {
					firstErr = fmt.Errorf("bad hello from peer %d", peer)
				}
				mu.Unlock()
				conn.Close()
				return
			}
			t.conns[peer] = conn
			mu.Unlock()
		}
	}()

	// Dial higher ranks.
	for peer := rank + 1; peer < size; peer++ {
		peer := peer
		wg.Add(1)
		go func() {
			defer wg.Done()
			var conn net.Conn
			err := fmt.Errorf("deadline elapsed before first dial attempt")
			jitter := rand.New(rand.NewSource(int64(rank)<<16 | int64(peer)))
			for attempt := 0; time.Now().Before(deadline); attempt++ {
				conn, err = net.DialTimeout("tcp", addrs[peer], time.Second)
				if err == nil {
					break
				}
				time.Sleep(dialBackoff(attempt, jitter))
			}
			if err != nil {
				mu.Lock()
				if firstErr == nil {
					firstErr = fmt.Errorf("dial rank %d (%s): %w", peer, addrs[peer], err)
				}
				mu.Unlock()
				return
			}
			var hello [4]byte
			binary.LittleEndian.PutUint32(hello[:], uint32(rank))
			// A hung accept queue must not stall the hello write past the
			// overall deadline.
			conn.SetWriteDeadline(deadline)
			if _, err := conn.Write(hello[:]); err != nil {
				mu.Lock()
				if firstErr == nil {
					firstErr = err
				}
				mu.Unlock()
				conn.Close()
				return
			}
			conn.SetWriteDeadline(time.Time{})
			mu.Lock()
			t.conns[peer] = conn
			mu.Unlock()
		}()
	}
	wg.Wait()
	if firstErr != nil {
		t.Close()
		return nil, firstErr
	}

	// Start writer and reader goroutines per peer.
	for peer := 0; peer < size; peer++ {
		if peer == rank {
			continue
		}
		t.sendQ[peer] = make(chan []byte, 1024)
		t.wgWriters.Add(1)
		t.wgReaders.Add(1)
		go t.writer(peer)
		go t.reader(peer)
	}
	return c, nil
}

// Send implements Transport.
func (t *tcpTransport) Send(dst, tag int, data []byte) error {
	if dst == t.rank {
		// Self-sends bypass the wire.
		t.c.deliver(Message{Src: t.rank, Tag: tag, Data: data})
		return nil
	}
	frame := appendFrame(make([]byte, 0, frameHdrLen+len(data)), t.rank, tag, data)
	t.mu.Lock()
	if t.closed {
		t.mu.Unlock()
		return fmt.Errorf("transport closed")
	}
	q := t.sendQ[dst]
	t.mu.Unlock()
	q <- frame
	return nil
}

func (t *tcpTransport) writer(peer int) {
	defer t.wgWriters.Done()
	conn := t.conns[peer]
	for frame := range t.sendQ[peer] {
		if _, err := conn.Write(frame); err != nil {
			// The connection is gone. Keep draining the queue so senders
			// (and Close) never block behind a dead peer — the reader on
			// this conn fails the endpoint, which is what stops the run.
			for range t.sendQ[peer] {
			}
			return
		}
	}
}

func (t *tcpTransport) reader(peer int) {
	defer t.wgReaders.Done()
	conn := t.conns[peer]
	for {
		msg, err := readFrame(conn, peer)
		if err != nil {
			// EOF at a frame boundary is a clean shutdown (the peer
			// finished and closed). Anything else — a truncation, a
			// reset, a frame that is not the peer's — means the peer died
			// or the stream is corrupt: fail the endpoint so blocked
			// receives unwind.
			if err != io.EOF && !t.isClosed() {
				t.c.Fail(&RankFailedError{Rank: peer, Err: err})
			}
			return
		}
		t.c.deliver(msg)
	}
}

// frame wire format: u32 payload length, u32 source rank, u32 tag,
// payload — little-endian.
const frameHdrLen = 12

// appendFrame appends the frame carrying data from rank src under tag.
func appendFrame(dst []byte, src, tag int, data []byte) []byte {
	dst = binary.LittleEndian.AppendUint32(dst, uint32(len(data)))
	dst = binary.LittleEndian.AppendUint32(dst, uint32(src))
	dst = binary.LittleEndian.AppendUint32(dst, uint32(tag))
	return append(dst, data...)
}

// readFrame reads the next frame off peer's connection. A stream that
// ends at a frame boundary is a bare io.EOF; every other failure says
// what was wrong with the frame.
func readFrame(r io.Reader, peer int) (Message, error) {
	var hdr [frameHdrLen]byte
	if _, err := io.ReadFull(r, hdr[:]); err != nil {
		if err == io.EOF {
			return Message{}, err
		}
		return Message{}, fmt.Errorf("reading frame header: %w", err)
	}
	n := int(binary.LittleEndian.Uint32(hdr[0:]))
	src := int(binary.LittleEndian.Uint32(hdr[4:]))
	tag := int(binary.LittleEndian.Uint32(hdr[8:]))
	// The connection, not the header, says who is talking: a frame
	// naming another rank would be matched (and its ghost rows
	// ownership-checked) against the wrong sender.
	if src != peer {
		return Message{}, fmt.Errorf("frame claims source rank %d on rank %d's connection", src, peer)
	}
	data, err := readPayload(r, n)
	if err != nil {
		// A frame header without its payload is always a truncation.
		return Message{}, fmt.Errorf("frame truncated mid-message (%d of %d payload bytes): %w", len(data), n, err)
	}
	return Message{Src: src, Tag: tag, Data: data}, nil
}

// payloadChunk bounds how far readPayload allocates ahead of the bytes
// that have actually arrived.
const payloadChunk = 1 << 20

// readPayload reads a frame's n payload bytes. n is four bytes off the
// wire and a socket has no size to hold it to, so it sizes no allocation
// by itself: a payload of up to one chunk is a single exact allocation,
// and a longer one grows a chunk at a time as its bytes arrive, so a
// header that promises more than the stream holds costs one chunk beyond
// what was received, not what was promised. On a short read it returns
// the bytes received with the error.
func readPayload(r io.Reader, n int) ([]byte, error) {
	data := make([]byte, 0, min(n, payloadChunk))
	for len(data) < n {
		start := len(data)
		data = append(data, make([]byte, min(n-start, payloadChunk))...)
		got, err := io.ReadFull(r, data[start:])
		if err != nil {
			return data[:start+got], err
		}
	}
	return data, nil
}

func (t *tcpTransport) isClosed() bool {
	t.mu.Lock()
	defer t.mu.Unlock()
	return t.closed
}

// dialBackoff returns the sleep before retry attempt+1: exponential from
// 10 ms doubling to a 640 ms cap, with up to 50% additive jitter so a
// gang-started cluster doesn't hammer a slow listener in lockstep.
func dialBackoff(attempt int, jitter *rand.Rand) time.Duration {
	base := 10 * time.Millisecond << uint(min(attempt, 6))
	return base + time.Duration(jitter.Int63n(int64(base)/2+1))
}

// Close tears the mesh down: queued frames are flushed to the wire before
// the connections close (a rank finishing early must not kill messages its
// peers still need), then readers are torn down.
func (t *tcpTransport) Close() error {
	t.mu.Lock()
	if t.closed {
		t.mu.Unlock()
		return nil
	}
	t.closed = true
	t.mu.Unlock()
	for _, q := range t.sendQ {
		if q != nil {
			close(q)
		}
	}
	t.wgWriters.Wait() // drain outbound queues onto the wire
	for _, conn := range t.conns {
		if conn != nil {
			conn.Close()
		}
	}
	t.wgReaders.Wait()
	return nil
}
