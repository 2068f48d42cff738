package sparse

import (
	"bytes"
	"fmt"
	"io"

	"repro/internal/sched"
)

// parallel.go is the ingestion fast path: a MatrixMarket parser that
// splits the byte stream on line boundaries and parses chunks
// concurrently on a sched.Pool, with manual field scanning instead of
// fmt/strings tokenization on the hot path. The resulting CSR is
// bit-identical to ReadMatrixMarket on the same bytes: per-chunk entry
// runs are merged in file order, so the duplicate-summation order and
// the canonical per-row column sort see exactly the sequence the
// sequential parser produces.

// parseChunkTarget is the minimum chunk size worth scheduling as its own
// task; smaller bodies parse in fewer (down to one) chunks.
const parseChunkTarget = 256 << 10

// ParseMatrixMarket parses a whole MatrixMarket file held in memory.
// A nil pool parses on the calling goroutine (same chunked code path,
// still allocation-lean); otherwise chunks run concurrently on the pool.
// Semantics — accepted headers, rejected entries, the final matrix —
// are identical to ReadMatrixMarket.
func ParseMatrixMarket(data []byte, pool *sched.Pool) (*CSR, error) {
	// Banner, comments and the size line go through the shared
	// prologue; what it leaves unread is the body.
	body := data
	m, n, nnz, err := readMMPrologue(func() ([]byte, error) {
		if len(body) == 0 {
			return nil, io.EOF
		}
		var line []byte
		line, body = nextLine(body)
		return line, checkLineLen(line)
	})
	if err != nil {
		return nil, err
	}

	// Split the body into chunks on line boundaries. The chunk count is a
	// function of size and worker count only; the parse result does not
	// depend on it (entries are merged in file order regardless).
	workers := 1
	if pool != nil {
		workers = pool.NumWorkers()
	}
	nchunks := len(body) / parseChunkTarget
	if nchunks < 1 {
		nchunks = 1
	}
	if max := 4 * workers; nchunks > max {
		nchunks = max
	}
	bounds := make([]int, nchunks+1)
	bounds[nchunks] = len(body)
	for k := 1; k < nchunks; k++ {
		// int64 product: k*len(body) can pass MaxInt32 on 32-bit builds.
		at := int(int64(k) * int64(len(body)) / int64(nchunks))
		if at < bounds[k-1] {
			at = bounds[k-1]
		}
		if nl := bytes.IndexByte(body[at:], '\n'); nl >= 0 {
			at += nl + 1
		} else {
			at = len(body)
		}
		bounds[k] = at
	}

	// Phase A: count entry lines per chunk (checking the shared line
	// cap), so every chunk can parse straight into its own window of one
	// exact-size entry slice.
	counts := make([]int, nchunks)
	errs := make([]error, nchunks)
	forChunks(pool, nchunks, func(k int) {
		c := 0
		chunk := body[bounds[k]:bounds[k+1]]
		for len(chunk) > 0 {
			var ln []byte
			ln, chunk = nextLine(chunk)
			if err := checkLineLen(ln); err != nil {
				errs[k] = err
				return
			}
			if !isMMSkipLine(ln) {
				c++
			}
		}
		counts[k] = c
	})
	for _, err := range errs {
		if err != nil {
			return nil, err
		}
	}
	offsets := make([]int, nchunks+1)
	for k := 0; k < nchunks; k++ {
		offsets[k+1] = offsets[k] + counts[k]
	}
	total := offsets[nchunks]

	// Phase B: parse each chunk into its window.
	entries := make([]Entry, total)
	forChunks(pool, nchunks, func(k int) {
		w := offsets[k]
		chunk := body[bounds[k]:bounds[k+1]]
		for len(chunk) > 0 {
			var ln []byte
			ln, chunk = nextLine(chunk)
			if isMMSkipLine(ln) {
				continue
			}
			e, err := parseEntryBytes(ln, m, n)
			if err != nil {
				errs[k] = err
				return
			}
			entries[w] = e
			w++
		}
	})
	for _, err := range errs {
		if err != nil {
			return nil, err
		}
	}
	if err := checkMMCount(nnz, total); err != nil {
		return nil, err
	}
	return (&COO{M: m, N: n, Entries: entries}).toCSR(pool), nil
}

// checkLineLen enforces the shared per-line cap: the streaming readers'
// bufio.Scanner fails on longer tokens, so the in-memory parser must
// reject them too to keep the accept set identical.
func checkLineLen(line []byte) error {
	if len(line) > maxMMLine {
		return fmt.Errorf("sparse: line longer than %d bytes", maxMMLine)
	}
	return nil
}

// nextLine splits off the first line (without its terminator) and
// returns the remainder after the '\n', mirroring bufio.ScanLines minus
// the trailing-\r strip (the field scanners treat '\r' as whitespace).
func nextLine(b []byte) (line, rest []byte) {
	if i := bytes.IndexByte(b, '\n'); i >= 0 {
		return b[:i], b[i+1:]
	}
	return b, nil
}

// forChunks runs body(k) for every chunk index, on the pool when one is
// available and inline otherwise.
func forChunks(pool *sched.Pool, nchunks int, body func(k int)) {
	if nchunks == 1 {
		pool = nil
	}
	forRange(pool, nchunks, 1, func(lo, hi int) {
		for k := lo; k < hi; k++ {
			body(k)
		}
	})
}
