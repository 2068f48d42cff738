//go:build !unix

package sparse

import "os"

// openMapSource on platforms without syscall.Mmap keeps the file open
// and serves shards through pread; the Mapped reader behaves
// identically (lazy per-shard verification, same errors), it just
// caches touched shard payloads instead of handing out mapping views.
func openMapSource(f *os.File, size int64) mapSource {
	return fileSource{f: f}
}
