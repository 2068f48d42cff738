//go:build unix

package sparse

import (
	"bytes"
	"math/rand"
	"os"
	"strings"
	"syscall"
	"testing"
)

// countNaming counts the entries of /proc/self/fd that link to path and
// the lines of /proc/self/maps that name it.
func countNaming(t *testing.T, path string) (fds, maps int) {
	t.Helper()
	ents, err := os.ReadDir("/proc/self/fd")
	if err != nil {
		t.Skipf("no /proc/self/fd: %v", err)
	}
	for _, e := range ents {
		if target, err := os.Readlink("/proc/self/fd/" + e.Name()); err == nil && target == path {
			fds++
		}
	}
	m, err := os.ReadFile("/proc/self/maps")
	if err != nil {
		t.Skipf("no /proc/self/maps: %v", err)
	}
	return fds, strings.Count(string(m), path)
}

// TestLoadLeavesNothingOpen: Load maps the file only for the decode —
// afterwards the process holds neither a descriptor nor a mapping of it,
// whether the decode succeeded or a damaged shard stopped it.
func TestLoadLeavesNothingOpen(t *testing.T) {
	a := randomCSR(rand.New(rand.NewSource(31)), 60, 1500)
	var buf bytes.Buffer
	if err := WriteBinarySharded(&buf, a, 200); err != nil {
		t.Fatal(err)
	}
	good := buf.Bytes()
	bad := append([]byte(nil), good...)
	bad[len(bad)-1] ^= 0x01 // last shard's last value: caught by its CRC, mid-decode

	for name, img := range map[string][]byte{"clean": good, "damaged": bad} {
		path := writeTempBCSR(t, img)
		mp, err := OpenBinary(path)
		if err != nil {
			t.Fatal(err)
		}
		if _, maps := countNaming(t, path); maps == 0 {
			mp.Close()
			t.Skip("an open mapping is not visible in /proc/self/maps here")
		}
		mp.Close()

		_, err = Load(path)
		if (err != nil) != (name == "damaged") {
			t.Fatalf("%s: Load returned %v", name, err)
		}
		if fds, maps := countNaming(t, path); fds != 0 || maps != 0 {
			t.Errorf("%s: after Load %d descriptors and %d mappings still name the file", name, fds, maps)
		}
	}
}

// TestLoadRefusesFIFO: the reader needs the file's size, so a .bcsr
// arriving through a pipe is refused in the reader's own words rather
// than streamed (MatrixMarket text still streams).
func TestLoadRefusesFIFO(t *testing.T) {
	var img bytes.Buffer
	if err := WriteBinary(&img, randomCSR(rand.New(rand.NewSource(37)), 20, 100)); err != nil {
		t.Fatal(err)
	}
	path := writeTempBCSR(t, nil) + ".fifo"
	if err := syscall.Mkfifo(path, 0o600); err != nil {
		t.Skipf("mkfifo: %v", err)
	}
	go func() {
		if w, err := os.OpenFile(path, os.O_WRONLY, 0); err == nil {
			w.Write(img.Bytes()) // the reader may hang up first
			w.Close()
		}
	}()
	const want = "sparse: reading bcsr magic: EOF"
	if _, err := Load(path); err == nil || err.Error() != want {
		t.Fatalf("Load of a FIFO returned %v, want %s", err, want)
	}
}
