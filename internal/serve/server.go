package serve

import (
	"context"
	"fmt"
	"os"
	"sync"
	"sync/atomic"
	"time"

	"repro/internal/core"
)

// LoadModel reads a checkpoint file and builds a serving model from it.
func LoadModel(path string, opts Options) (*Model, error) {
	ckpt, _, err := core.ReadCheckpointFile(path)
	if err != nil {
		return nil, err
	}
	return NewModel(ckpt, opts)
}

// Server owns the current serving snapshot and swaps it atomically on
// reload. Queries go through Model() and keep whatever snapshot they
// grabbed — a reload never blocks readers, never tears a half-loaded
// model into view, and a failed reload leaves the last good snapshot
// serving.
type Server struct {
	path string
	opts Options

	cur atomic.Pointer[Model]

	// reloadMu serializes reloads (concurrent SIGHUP + watcher ticks);
	// readers never take it.
	reloadMu sync.Mutex
	// mtime/size/dev/ino describe the checkpoint file whose bytes the
	// current snapshot was loaded from — recorded by fstat'ing the very
	// descriptor that was read, never by a separate path lookup that
	// could observe a different (newer) file. dev/ino is the file
	// *identity*: a publisher's atomic rename always installs a fresh
	// inode, so a rotation is detected even when the new checkpoint has
	// the same byte size and lands within the filesystem's timestamp
	// granularity (same-second rewrites). idOK is false on platforms
	// without stable file ids, which then fall back to (mtime, size).
	mtime time.Time
	size  int64
	dev   uint64
	ino   uint64
	idOK  bool
	// lastErr is the most recent reload failure, cleared by the next
	// successful reload; healthz reports it per model so a registry
	// operator can see a route serving a stale-but-good snapshot.
	lastErr error

	// Reloads counts successful snapshot swaps since Open (the initial
	// load is the first).
	Reloads atomic.Int64
}

// Open loads the checkpoint at path into a Server. The Options are
// reused for every subsequent reload.
func Open(path string, opts Options) (*Server, error) {
	s := &Server{path: path, opts: opts}
	if err := s.Reload(); err != nil {
		return nil, err
	}
	return s, nil
}

// Model returns the current immutable snapshot. Callers should grab it
// once per request and use it for the whole request, so one request
// never mixes two snapshots.
func (s *Server) Model() *Model { return s.cur.Load() }

// Reload reads the checkpoint file and swaps in a fresh snapshot. On any
// error the previous snapshot keeps serving unchanged. The recorded
// change-detection metadata is core.ReadCheckpointFile's fstat of the
// descriptor the checkpoint was read through, so it always describes the
// loaded bytes — a publisher renaming a new checkpoint into place between
// open and stat is caught by the next watcher tick instead of being
// masked.
func (s *Server) Reload() error {
	s.reloadMu.Lock()
	defer s.reloadMu.Unlock()
	ckpt, fi, err := core.ReadCheckpointFile(s.path)
	if err != nil {
		s.lastErr = err
		return err
	}
	m, err := NewModel(ckpt, s.opts)
	if err != nil {
		s.lastErr = err
		return err
	}
	s.cur.Store(m)
	s.mtime, s.size = fi.ModTime(), fi.Size()
	s.dev, s.ino, s.idOK = fileID(fi)
	s.lastErr = nil
	s.Reloads.Add(1)
	return nil
}

// LastError returns the most recent reload failure, or nil when the
// last (re)load succeeded. A non-nil error means the server is still
// serving its previous good snapshot.
func (s *Server) LastError() error {
	s.reloadMu.Lock()
	defer s.reloadMu.Unlock()
	return s.lastErr
}

// Path returns the checkpoint file the server (re)loads from.
func (s *Server) Path() string { return s.path }

// MaybeReload stats the checkpoint file and reloads only if it changed
// since the last successful reload — a different file identity
// (device, inode: every atomic-rename rotation), mtime or size. The
// identity comparison is what catches a publisher rotating checkpoints
// of identical size within one filesystem-timestamp tick, which
// (mtime, size) alone would miss. It reports whether a swap happened.
func (s *Server) MaybeReload() (bool, error) {
	s.reloadMu.Lock()
	fi, err := os.Stat(s.path)
	if err != nil {
		s.lastErr = fmt.Errorf("serve: stat checkpoint: %w", err)
		s.reloadMu.Unlock()
		return false, s.lastErr
	}
	unchanged := fi.ModTime().Equal(s.mtime) && fi.Size() == s.size
	if dev, ino, ok := fileID(fi); ok && s.idOK {
		unchanged = unchanged && dev == s.dev && ino == s.ino
	}
	s.reloadMu.Unlock()
	if unchanged {
		return false, nil
	}
	if err := s.Reload(); err != nil {
		return false, err
	}
	return true, nil
}

// Watch hot-reloads the checkpoint file when it changes, until ctx is
// done. On Linux a rename onto the file or a close after writing it
// wakes the watcher at once (fileWake); every interval the ticker wakes
// it too, which bounds how long any other change (an mtime-only touch, a
// symlink target in another directory, a network filesystem, every
// change off Linux) goes unnoticed. Every wake, and Watch's entry, calls
// MaybeReload. Reload errors are reported to onErr (nil = dropped) and
// do not stop the watch — a checkpoint mid-write simply fails validation
// and is retried on the next wake.
func (s *Server) Watch(ctx context.Context, interval time.Duration, onErr func(error)) {
	if interval <= 0 {
		interval = time.Second
	}
	wake, stop := fileWake(s.path)
	defer stop()
	t := time.NewTicker(interval)
	defer t.Stop()
	// The first check runs once the wake is in place, so a publish that
	// landed after the last load but before the watch is not left to the
	// ticker.
	for {
		if _, err := s.MaybeReload(); err != nil && onErr != nil {
			onErr(err)
		}
		select {
		case <-ctx.Done():
			return
		case <-t.C:
		case <-wake:
		}
	}
}
