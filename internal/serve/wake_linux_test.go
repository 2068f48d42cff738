package serve

import (
	"encoding/binary"
	"os"
	"path/filepath"
	"runtime"
	"syscall"
	"testing"
	"time"

	"repro/internal/core"
)

// TestFileWakeNamesOnlyTheFile drives fileWake directly: writes beside
// the watched file, a publish's closed temp file and a same-named file
// one directory down send nothing; a close after writing the file and a
// rename onto it each send. A missing directory gets no channel.
func TestFileWakeNamesOnlyTheFile(t *testing.T) {
	dir := t.TempDir()
	path := filepath.Join(dir, "model.ckpt")
	wake, stop := fileWake(path)
	defer stop()
	if wake == nil {
		t.Fatal("fileWake refused a watch on an existing directory")
	}
	expect := func(what string, want bool) {
		t.Helper()
		limit := 100 * time.Millisecond
		if want {
			limit = 2 * time.Second
		}
		select {
		case <-wake:
			if !want {
				t.Fatalf("%s woke the watcher", what)
			}
		case <-time.After(limit):
			if want {
				t.Fatalf("%s did not wake the watcher within %s", what, limit)
			}
		}
	}
	write := func(p string) {
		t.Helper()
		if err := os.WriteFile(p, []byte("x"), 0o644); err != nil {
			t.Fatal(err)
		}
	}

	write(filepath.Join(dir, "other.ckpt"))
	expect("a sibling file", false)
	tmp, err := os.CreateTemp(dir, "model.ckpt.tmp*")
	if err != nil {
		t.Fatal(err)
	}
	if _, err := tmp.WriteString("x"); err != nil {
		t.Fatal(err)
	}
	if err := tmp.Close(); err != nil {
		t.Fatal(err)
	}
	expect("a closed temp file", false)
	if err := os.Mkdir(filepath.Join(dir, "sub"), 0o755); err != nil {
		t.Fatal(err)
	}
	write(filepath.Join(dir, "sub", "model.ckpt"))
	expect("a file in a subdirectory", false)

	write(path)
	expect("a close after writing the file", true)
	if err := os.Rename(tmp.Name(), path); err != nil {
		t.Fatal(err)
	}
	expect("a rename onto the file", true)

	if w, stop := fileWake(filepath.Join(dir, "missing", "model.ckpt")); w != nil {
		stop()
		t.Fatal("fileWake watched a directory that does not exist")
	}
}

// TestNamesFile decodes hand-built event records: a name is matched
// whole after its NUL padding, in any record of a read, and an overflow
// matches whatever it names.
func TestNamesFile(t *testing.T) {
	event := func(mask uint32, name string) []byte {
		padded := 0
		if name != "" {
			padded = (len(name) + 1 + 15) &^ 15
		}
		b := make([]byte, syscall.SizeofInotifyEvent+padded)
		binary.NativeEndian.PutUint32(b[4:], mask)
		binary.NativeEndian.PutUint32(b[12:], uint32(padded))
		copy(b[syscall.SizeofInotifyEvent:], name)
		return b
	}
	cat := func(evs ...[]byte) (b []byte) {
		for _, e := range evs {
			b = append(b, e...)
		}
		return b
	}
	for _, c := range []struct {
		what string
		buf  []byte
		want bool
	}{
		{"the name", event(syscall.IN_MOVED_TO, "model.ckpt"), true},
		{"a longer name", event(syscall.IN_MOVED_TO, "model.ckpt.tmp123"), false},
		{"a prefix", event(syscall.IN_CLOSE_WRITE, "model.ck"), false},
		{"the name second", cat(event(syscall.IN_CLOSE_WRITE, "a"), event(syscall.IN_MOVED_TO, "model.ckpt")), true},
		{"an overflow", event(syscall.IN_Q_OVERFLOW, ""), true},
		{"a cut record", event(syscall.IN_MOVED_TO, "model.ckpt")[:syscall.SizeofInotifyEvent+4], false},
		{"nothing", nil, false},
	} {
		if got := namesFile(c.buf, "model.ckpt"); got != c.want {
			t.Errorf("%s: namesFile = %v, want %v", c.what, got, c.want)
		}
	}
}

// TestWatchWakesOnPublish publishes beside a watcher whose ticker never
// fires within the test, so only the rename's wake can reload it, then
// ends the watch and checks that its goroutines and descriptors go with
// it. A publish before the watch starts is loaded by Watch's entry
// check.
func TestWatchWakesOnPublish(t *testing.T) {
	ckptA, prob, cfg := trainedChain(t, 40, 4, 2)
	ckptB, _, _ := trainedChain(t, 40, 6, 2)
	path := filepath.Join(t.TempDir(), "model.ckpt")
	writeCheckpointFile(t, path, ckptA)
	srv, err := Open(path, modelOptions(prob, cfg))
	if err != nil {
		t.Fatal(err)
	}
	openFDs := func() int {
		ents, err := os.ReadDir("/proc/self/fd")
		if err != nil {
			t.Fatal(err)
		}
		return len(ents)
	}
	g0, fd0 := runtime.NumGoroutine(), openFDs()

	publish := func() {
		t.Helper()
		if err := core.WriteCheckpointFile(path, ckptB.Write); err != nil {
			t.Fatal(err)
		}
	}

	// A publish between the load and the watch: only Watch's check on
	// entry can load it.
	publish()
	stop := startWatch(srv, time.Hour)
	defer stop() // a second call returns at once
	waitReloads(t, srv, 2, 2*time.Second, "a publish before the watch")
	// That check runs after the inotify watch is added, so the watch is
	// in place: only the wake can load the next publish.
	publish()
	waitReloads(t, srv, 3, 2*time.Second, "a publish beside an hour-long ticker")
	if g, fd := runtime.NumGoroutine(), openFDs(); g <= g0 || fd <= fd0 {
		t.Fatalf("a live watch holds %d goroutines and %d descriptors, no more than the %d and %d before it", g, fd, g0, fd0)
	}
	stop()

	var g, fd int
	for try := 0; try < 100; try++ {
		if g, fd = runtime.NumGoroutine(), openFDs(); g <= g0 && fd <= fd0 {
			return
		}
		time.Sleep(10 * time.Millisecond)
	}
	t.Fatalf("after the watch: %d goroutines and %d descriptors, want at most the %d and %d before it", g, fd, g0, fd0)
}
