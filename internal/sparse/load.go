package sparse

import (
	"bytes"
	"fmt"
	"io"
	"os"
	"strings"

	"repro/internal/sched"
)

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
// file's leading bytes: .bcsr binary shards or MatrixMarket text. It is
// the one entry point every command and example loads matrices through.
//
// A MatrixMarket file is streamed through ReadMatrixMarket, the package's
// one reader of the format: the file is never held in memory whole, and
// the entries are the only scratch beside the matrix. Measured against
// the chunked parallel parser it replaced (PERF.md, 2 vCPUs):
// 1 M entries, 189 → 30 MB allocated and VmHWM 76 → 33 MB for +35 % wall
// time; 5 M entries, 912 → 215 MB and 366 → 210 MB for +26 %.
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
// both go through ReplaceFile).
func Load(path string) (*CSR, error) {
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
	// The sniffed head goes back in front of the rest of the file.
	return ReadMatrixMarket(io.MultiReader(bytes.NewReader(head), f))
}

// LoadPool is Load: pool is not read. It is kept only for the signature
// benchmark/layers.go calls (ROADMAP item 7; item 20 deletes it).
func LoadPool(path string, pool *sched.Pool) (*CSR, error) {
	return Load(path)
}
