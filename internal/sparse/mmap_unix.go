//go:build unix

package sparse

import (
	"os"
	"syscall"
)

// openMapSource mmaps the file read-only and releases the descriptor —
// the mapping outlives it, and co-located processes mapping the same
// shards share page cache. A zero-length file (legal for M=0 matrices
// only in principle; the format always has a header) and any mmap
// failure fall back to pread so OpenBinary never fails just because
// the platform refused a mapping.
func openMapSource(f *os.File, size int64) mapSource {
	if size > 0 {
		data, err := syscall.Mmap(int(f.Fd()), 0, int(size), syscall.PROT_READ, syscall.MAP_SHARED)
		if err == nil {
			f.Close()
			return mmapSource{bytesSource{data: data}}
		}
	}
	return fileSource{f: f}
}

// mmapSource serves a .bcsr file straight from its mapping: an in-memory
// image that Close unmaps.
type mmapSource struct{ bytesSource }

func (s mmapSource) Close() error { return syscall.Munmap(s.data) }
