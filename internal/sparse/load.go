package sparse

import (
	"bufio"
	"bytes"
	"fmt"
	"io"
	"os"
	"runtime"
	"strings"

	"repro/internal/sched"
)

// autoPoolMin is the file size below which Load does not bother
// spinning up a worker pool: parse time under a few milliseconds is
// dominated by pool startup.
const autoPoolMin = 4 << 20

// mmMagic is the MatrixMarket banner prefix Load sniffs on.
const mmMagic = "%%MatrixMarket"

// IsBCSR reports whether path starts with the .bcsr magic — the same
// sniff Load uses, for callers that pick a shard-aware code path (the
// distributed launcher, the serving exclusion loader) before opening.
func IsBCSR(path string) (bool, error) {
	f, err := os.Open(path)
	if err != nil {
		return false, err
	}
	defer f.Close()
	head := make([]byte, len(bcsrMagic))
	n, err := io.ReadFull(f, head)
	if err != nil && err != io.EOF && err != io.ErrUnexpectedEOF {
		return false, fmt.Errorf("sparse: reading %s: %w", path, err)
	}
	return hasBCSRMagic(head[:n]), nil
}

// Load reads a rating matrix from path, sniffing the format from the
// file's leading bytes: .bcsr binary shards (streamed through
// ReadBinary, so peak memory is the matrix, not matrix + file) or
// MatrixMarket text (the parallel parser, on a transient pool sized to
// GOMAXPROCS when the file is large enough to benefit). It is the one
// entry point every command and example loads matrices through.
func Load(path string) (*CSR, error) {
	return load(path, nil, true)
}

// LoadPool is Load with an explicit worker pool for the MatrixMarket
// parse (nil = parse on the calling goroutine only).
func LoadPool(path string, pool *sched.Pool) (*CSR, error) {
	return load(path, pool, false)
}

func load(path string, pool *sched.Pool, auto bool) (*CSR, error) {
	f, err := os.Open(path)
	if err != nil {
		return nil, err
	}
	defer f.Close()
	br := bufio.NewReaderSize(f, 1<<20)
	head, err := br.Peek(len(mmMagic))
	if err != nil && err != io.EOF {
		return nil, fmt.Errorf("sparse: reading %s: %w", path, err)
	}
	switch {
	case hasBCSRMagic(head):
		return ReadBinary(br)
	case bytes.HasPrefix(head, []byte(mmMagic)):
		// The parallel parser needs the whole byte stream for random
		// line-boundary access.
		data, err := io.ReadAll(br)
		if err != nil {
			return nil, fmt.Errorf("sparse: reading %s: %w", path, err)
		}
		if auto && pool == nil && len(data) >= autoPoolMin && runtime.GOMAXPROCS(0) > 1 {
			p := sched.NewPool(0)
			defer p.Close()
			pool = p
		}
		return ParseMatrixMarket(data, pool)
	default:
		return nil, fmt.Errorf("sparse: %s is neither a bcsr nor a MatrixMarket file (starts %q)", path, strings.ToValidUTF8(string(head), "?"))
	}
}
