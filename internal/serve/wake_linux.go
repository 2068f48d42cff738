//go:build linux

package serve

import (
	"bytes"
	"encoding/binary"
	"os"
	"path/filepath"
	"syscall"
)

// fileWake returns a channel that receives soon after a file is renamed
// onto path or closed after writing at path — the last step of every
// atomic publish (PublishCheckpoint, core.WriteCheckpointFile) and of an
// in-place rewrite — so Watch reloads without sleeping out its ticker.
// It watches path's directory with one inotify instance and filters the
// events by path's base name; a queue overflow, which may have dropped
// such an event, wakes too. The channel holds one pending wake, so a
// burst of events costs one MaybeReload, and a publish landing during a
// reload queues the next. stop closes the instance and returns once
// the reading goroutine has exited.
//
// A watch the kernel refuses (the per-user instance limit, a missing
// directory) returns a nil channel: the ticker is then the only wake,
// as it is off Linux.
func fileWake(path string) (wake <-chan struct{}, stop func()) {
	fd, err := syscall.InotifyInit1(syscall.IN_CLOEXEC | syscall.IN_NONBLOCK)
	if err != nil {
		return nil, func() {}
	}
	if _, err := syscall.InotifyAddWatch(fd, filepath.Dir(path), syscall.IN_MOVED_TO|syscall.IN_CLOSE_WRITE); err != nil {
		syscall.Close(fd)
		return nil, func() {}
	}
	// A non-blocking descriptor joins the runtime poller, so Close
	// unblocks a Read parked on it.
	f := os.NewFile(uintptr(fd), "inotify:"+path)
	ch := make(chan struct{}, 1)
	done := make(chan struct{})
	go func() {
		defer close(done)
		base := filepath.Base(path)
		// Room for at least one event with the longest name (NAME_MAX).
		buf := make([]byte, 4096)
		for {
			n, err := f.Read(buf)
			if err != nil {
				return
			}
			if namesFile(buf[:n], base) {
				select {
				case ch <- struct{}{}:
				default:
				}
			}
		}
	}()
	return ch, func() { f.Close(); <-done }
}

// namesFile reports whether a read of inotify events holds one whose
// name is base, or a queue overflow. Each event is struct inotify_event
// (wd, mask, cookie, len: four native-endian 32-bit words) followed by
// len bytes of NUL-padded name.
func namesFile(buf []byte, base string) bool {
	for len(buf) >= syscall.SizeofInotifyEvent {
		mask := binary.NativeEndian.Uint32(buf[4:])
		nameLen := int(binary.NativeEndian.Uint32(buf[12:]))
		buf = buf[syscall.SizeofInotifyEvent:]
		if nameLen > len(buf) {
			return false
		}
		name := bytes.TrimRight(buf[:nameLen], "\x00")
		buf = buf[nameLen:]
		if mask&syscall.IN_Q_OVERFLOW != 0 || string(name) == base {
			return true
		}
	}
	return false
}
