package main

import (
	"path/filepath"
	"testing"

	"repro/internal/datagen"
	"repro/internal/sparse"
)

// TestBuildSpecAppliesUpscale is the regression test for the silently
// ignored -scale > 1: upscales must actually grow the spec.
func TestBuildSpecAppliesUpscale(t *testing.T) {
	base := datagen.Tiny(1)
	up, err := buildSpec("tiny", 2.0, 1)
	if err != nil {
		t.Fatal(err)
	}
	if up.Rows != 2*base.Rows || up.Cols != 2*base.Cols || up.NNZ != 2*base.NNZ {
		t.Fatalf("-scale 2 did not double the spec: %dx%d nnz %d from %dx%d nnz %d",
			up.Rows, up.Cols, up.NNZ, base.Rows, base.Cols, base.NNZ)
	}
	down, err := buildSpec("small", 0.5, 1)
	if err != nil {
		t.Fatal(err)
	}
	if sm := datagen.Small(1); down.Rows != sm.Rows/2 {
		t.Fatalf("-scale 0.5 rows = %d, want %d", down.Rows, sm.Rows/2)
	}
	ident, err := buildSpec("tiny", 1.0, 1)
	if err != nil {
		t.Fatal(err)
	}
	if ident != base {
		t.Fatalf("-scale 1 must leave the spec untouched: %+v vs %+v", ident, base)
	}
}

func TestBuildSpecRejectsBadInput(t *testing.T) {
	if _, err := buildSpec("tiny", 0, 1); err == nil {
		t.Fatal("-scale 0 must be rejected")
	}
	if _, err := buildSpec("tiny", -0.5, 1); err == nil {
		t.Fatal("negative -scale must be rejected")
	}
	if _, err := buildSpec("nope", 1, 1); err == nil {
		t.Fatal("unknown spec must be rejected")
	}
}

// TestWriteMatrixPicksFormat pins the extension sniffing: .bcsr gets
// binary shards, anything else MatrixMarket, and both load back equal.
func TestWriteMatrixPicksFormat(t *testing.T) {
	ds := datagen.Generate(datagen.Tiny(7))
	dir := t.TempDir()
	for _, name := range []string{"t.mtx", "t.bcsr", "t.dat"} {
		path := filepath.Join(dir, name)
		if err := writeMatrix(path, ds.R, 0); err != nil {
			t.Fatal(err)
		}
		got, err := sparse.Load(path)
		if err != nil {
			t.Fatalf("%s: %v", name, err)
		}
		if !sparse.Equal(ds.R, got) {
			t.Fatalf("%s: round trip changed the matrix", name)
		}
	}
}

// TestWriteMatrixReplacesNeverTruncates: writing over an existing .bcsr
// renames a new file into place, so a reader that mapped the old file
// before the write still decodes the old matrix afterwards (in-place
// truncation would hand it a SIGBUS or a torn file), the path holds the
// new one, and no temp file is left beside it.
func TestWriteMatrixReplacesNeverTruncates(t *testing.T) {
	older, newer := datagen.Generate(datagen.Tiny(7)).R, datagen.Generate(datagen.Tiny(8)).R
	dir := t.TempDir()
	path := filepath.Join(dir, "t.bcsr")
	if err := writeMatrix(path, older, 100); err != nil {
		t.Fatal(err)
	}
	mp, err := sparse.OpenBinary(path)
	if err != nil {
		t.Fatal(err)
	}
	defer mp.Close()
	if err := writeMatrix(path, newer, 100); err != nil {
		t.Fatal(err)
	}
	if got, err := mp.Matrix(); err != nil || !sparse.Equal(older, got) {
		t.Fatalf("the mapping opened before the rewrite no longer reads the old matrix (err=%v)", err)
	}
	if got, err := sparse.Load(path); err != nil || !sparse.Equal(newer, got) {
		t.Fatalf("the path does not hold the new matrix (err=%v)", err)
	}
	if left, _ := filepath.Glob(filepath.Join(dir, "*")); len(left) != 1 {
		t.Fatalf("rewrite left %v behind", left)
	}
}
