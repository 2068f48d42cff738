package sparse

import (
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

// sniff reads the leading bytes Load tells the formats apart by; a file
// shorter than either magic yields what it has.
func sniff(f *os.File, path string) ([]byte, error) {
	head := make([]byte, len(mmMagic))
	n, err := io.ReadFull(f, head)
	if err != nil && err != io.EOF && err != io.ErrUnexpectedEOF {
		return nil, fmt.Errorf("sparse: reading %s: %w", path, err)
	}
	return head[:n], nil
}

// IsBCSR reports whether path starts with the .bcsr magic — the same
// sniff Load uses, for callers that pick a shard-aware code path (the
// distributed launcher, the serving exclusion loader) before opening.
func IsBCSR(path string) (bool, error) {
	f, err := os.Open(path)
	if err != nil {
		return false, err
	}
	defer f.Close()
	head, err := sniff(f, path)
	return hasBCSRMagic(head), err
}

// Load reads a rating matrix from path, sniffing the format from the
// file's leading bytes: .bcsr binary shards or MatrixMarket text (the
// parallel parser, on a transient pool sized to GOMAXPROCS when the file
// is large enough to benefit). It is the one entry point every command
// and example loads matrices through.
//
// A .bcsr file is decoded through the mapped reader (OpenBinary's, on the
// descriptor Load already holds; the mapping lives only for the decode),
// which holds every declared length to the file's size before allocating
// and sizes Col/Val once. Measured against the streaming reader it
// replaced (PR 23): 1.02 M entries in one shard, 23–25 → 15–16 ms,
// 99.9 → 16.2 MB allocated, process VmHWM 52.4 → 36.5 MB; 4.0 M entries in
// 20 shards, 94 → 45 ms, 250 → 48 MB, VmHWM 159–172 → 99 MB — a stream
// held a shard's payload in heap scratch beside the matrix and grew both
// by append. So a .bcsr path must be a regular file (a FIFO has no size:
// "reading bcsr magic", not a stream), and writers replace a .bcsr file
// by rename, never in place: truncating a file another process has
// mapped makes its next page fault a SIGBUS (datagen and the Converter
// both write a temp file and rename it).
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
	head, err := sniff(f, path)
	if err == nil && hasBCSRMagic(head) {
		mp, err := openBinaryFile(f) // f is the reader's from here
		if err != nil {
			return nil, err
		}
		defer mp.Close()
		return mp.Matrix()
	}
	defer f.Close()
	if err != nil {
		return nil, err
	}
	if !bytes.HasPrefix(head, []byte(mmMagic)) {
		return nil, fmt.Errorf("sparse: %s is neither a bcsr nor a MatrixMarket file (starts %q)", path, strings.ToValidUTF8(string(head), "?"))
	}
	// The parallel parser needs the whole byte stream for random
	// line-boundary access.
	data, err := io.ReadAll(io.MultiReader(bytes.NewReader(head), f))
	if err != nil {
		return nil, fmt.Errorf("sparse: reading %s: %w", path, err)
	}
	if auto && pool == nil && len(data) >= autoPoolMin && runtime.GOMAXPROCS(0) > 1 {
		p := sched.NewPool(0)
		defer p.Close()
		pool = p
	}
	return ParseMatrixMarket(data, pool)
}
