package core

import (
	"errors"
	"io"
	"os"
	"path/filepath"
	"strings"
	"testing"

	"repro/internal/datagen"
	"repro/internal/sparse"
)

func TestWriteCheckpointFileRoundtrip(t *testing.T) {
	path := filepath.Join(t.TempDir(), "out.bin")
	if err := WriteCheckpointFile(path, func(w io.Writer) error {
		_, err := w.Write([]byte("payload-v1"))
		return err
	}); err != nil {
		t.Fatal(err)
	}
	got, err := os.ReadFile(path)
	if err != nil {
		t.Fatal(err)
	}
	if string(got) != "payload-v1" {
		t.Fatalf("got %q", got)
	}
}

// TestWriteCheckpointFileCrashMidWrite simulates a writer dying halfway
// through: the target must keep its previous contents — a torn
// checkpoint must never become visible under the target name — and the
// temp file must not linger.
func TestWriteCheckpointFileCrashMidWrite(t *testing.T) {
	dir := t.TempDir()
	path := filepath.Join(dir, "ckpt.bin")
	if err := WriteCheckpointFile(path, func(w io.Writer) error {
		_, err := w.Write([]byte("good-checkpoint"))
		return err
	}); err != nil {
		t.Fatal(err)
	}

	boom := errors.New("simulated crash mid-write")
	err := WriteCheckpointFile(path, func(w io.Writer) error {
		if _, err := w.Write([]byte("torn-")); err != nil {
			return err
		}
		return boom // die after a partial write
	})
	if !errors.Is(err, boom) {
		t.Fatalf("got %v, want the simulated crash", err)
	}

	got, rerr := os.ReadFile(path)
	if rerr != nil {
		t.Fatal(rerr)
	}
	if string(got) != "good-checkpoint" {
		t.Fatalf("target holds %q after failed write, want the previous contents", got)
	}
	entries, derr := os.ReadDir(dir)
	if derr != nil {
		t.Fatal(derr)
	}
	if len(entries) != 1 || entries[0].Name() != "ckpt.bin" {
		names := make([]string, len(entries))
		for i, e := range entries {
			names[i] = e.Name()
		}
		t.Fatalf("directory holds %v, want only the target (no temp residue)", names)
	}
}

func TestWriteCheckpointFileMissingDir(t *testing.T) {
	err := WriteCheckpointFile(filepath.Join(t.TempDir(), "no", "such", "dir", "x"), func(io.Writer) error { return nil })
	if err == nil {
		t.Fatal("writing into a missing directory must error")
	}
}

// TestReadCheckpointFile: what WriteCheckpointFile published reads back
// with the stat of the bytes read; a missing or corrupt file is an error
// that names the path.
func TestReadCheckpointFile(t *testing.T) {
	s, err := NewSampler(ckptConfig(), tinyProblem(t, 3))
	if err != nil {
		t.Fatal(err)
	}
	s.Step(0)
	want := s.Checkpoint()
	dir := t.TempDir()
	path := filepath.Join(dir, "m.ckpt")
	if err := WriteCheckpointFile(path, want.Write); err != nil {
		t.Fatal(err)
	}
	got, fi, err := ReadCheckpointFile(path)
	if err != nil {
		t.Fatal(err)
	}
	st, err := os.Stat(path)
	if err != nil {
		t.Fatal(err)
	}
	if got.NextIter != want.NextIter || got.Seed != want.Seed || !os.SameFile(fi, st) || fi.Size() != st.Size() {
		t.Fatalf("read back iter %d seed %d (size %d), want iter %d seed %d (size %d)",
			got.NextIter, got.Seed, fi.Size(), want.NextIter, want.Seed, st.Size())
	}

	bad := filepath.Join(dir, "bad.ckpt")
	if err := os.WriteFile(bad, []byte("not a checkpoint"), 0o644); err != nil {
		t.Fatal(err)
	}
	for _, p := range []string{bad, filepath.Join(dir, "absent.ckpt")} {
		if _, _, err := ReadCheckpointFile(p); err == nil || !strings.Contains(err.Error(), p) {
			t.Fatalf("%s: error %v does not name the file", p, err)
		}
	}
	if _, _, err := ReadCheckpointFile(filepath.Join(dir, "absent.ckpt")); !errors.Is(err, os.ErrNotExist) {
		t.Fatalf("missing file: %v does not wrap os.ErrNotExist", err)
	}
}

// TestHoldOut: the conditional split is SplitTrainTest above fraction 0
// and the identity — same matrix, no pass over it — at 0.
func TestHoldOut(t *testing.T) {
	full := datagen.Generate(datagen.Tiny(9)).R
	if train, test := HoldOut(full, 0, 9); train != full || test != nil {
		t.Fatal("fraction 0 must return the matrix itself and no test set")
	}
	train, test := HoldOut(full, 0.2, 9)
	wantTrain, wantTest := sparse.SplitTrainTest(full, 0.2, 9)
	if !sparse.Equal(train, wantTrain) || len(test) != len(wantTest) || len(test) == 0 {
		t.Fatalf("split differs from SplitTrainTest (%d vs %d held out)", len(test), len(wantTest))
	}
	for i := range test {
		if test[i] != wantTest[i] {
			t.Fatalf("test entry %d differs", i)
		}
	}
}
