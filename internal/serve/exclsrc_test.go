package serve

import (
	"errors"
	"os"
	"path/filepath"
	"testing"

	"repro/internal/sparse"
)

// exclsrc_test.go pins the lazy exclusion source: a model built over a
// mapped .bcsr training matrix must recommend exactly what the
// CSR-backed model recommends, and a failing source must fail requests
// instead of silently recommending already-rated items.

// writeBCSRFile renders a CSR as a sharded .bcsr temp file.
func writeBCSRFile(t *testing.T, a *sparse.CSR, shardNNZ int) string {
	t.Helper()
	path := filepath.Join(t.TempDir(), "train.bcsr")
	f, err := os.Create(path)
	if err != nil {
		t.Fatal(err)
	}
	if err := sparse.WriteBinarySharded(f, a, shardNNZ); err != nil {
		t.Fatal(err)
	}
	if err := f.Close(); err != nil {
		t.Fatal(err)
	}
	return path
}

func TestMappedExclusionsMatchCSR(t *testing.T) {
	ckpt, prob, cfg := trainedChain(t, 47, 5, 2)
	ref, err := NewModel(ckpt, Options{Alpha: cfg.Alpha, Exclude: prob.R})
	if err != nil {
		t.Fatal(err)
	}
	mp, err := sparse.OpenBinary(writeBCSRFile(t, prob.R, 500))
	if err != nil {
		t.Fatal(err)
	}
	defer mp.Close()
	lazy, err := NewModel(ckpt, Options{Alpha: cfg.Alpha, Exclude: mp})
	if err != nil {
		t.Fatal(err)
	}

	for user := 0; user < prob.R.M; user += 7 {
		want, err := ref.Recommend(user, 10)
		if err != nil {
			t.Fatal(err)
		}
		got, err := lazy.Recommend(user, 10)
		if err != nil {
			t.Fatal(err)
		}
		if len(got) != len(want) {
			t.Fatalf("user %d: %d items vs %d", user, len(got), len(want))
		}
		for i := range got {
			if got[i] != want[i] {
				t.Fatalf("user %d item %d: %+v vs %+v", user, i, got[i], want[i])
			}
		}
		// Excluded items must never appear.
		rated, _ := prob.R.Row(user)
		ratedSet := map[int32]bool{}
		for _, c := range rated {
			ratedSet[c] = true
		}
		for _, it := range got {
			if ratedSet[int32(it.Index)] {
				t.Fatalf("user %d: already-rated item %d recommended", user, it.Index)
			}
		}
	}
	// Only the shards behind the queried users should be verified —
	// the point of serving off a mapping. (With stride-7 queries over
	// all users every shard ends up touched; assert the model touched
	// nothing extra by bounding to the shard count.)
	if st := mp.Stats(); st.ShardsTouched > int64(mp.Shards()) {
		t.Fatalf("impossible touch count %d of %d", st.ShardsTouched, mp.Shards())
	}
}

// TestMappedExclusionsLazyTouch: a single-user query verifies only that
// user's shard.
func TestMappedExclusionsLazyTouch(t *testing.T) {
	ckpt, prob, cfg := trainedChain(t, 53, 4, 2)
	mp, err := sparse.OpenBinary(writeBCSRFile(t, prob.R, 300))
	if err != nil {
		t.Fatal(err)
	}
	defer mp.Close()
	if mp.Shards() < 4 {
		t.Fatalf("need several shards, got %d", mp.Shards())
	}
	m, err := NewModel(ckpt, Options{Alpha: cfg.Alpha, Exclude: mp})
	if err != nil {
		t.Fatal(err)
	}
	if _, err := m.Recommend(0, 5); err != nil {
		t.Fatal(err)
	}
	if st := mp.Stats(); st.ShardsTouched != 1 {
		t.Fatalf("one user's recommend touched %d shards", st.ShardsTouched)
	}
}

func TestExcludeSourceDimsValidated(t *testing.T) {
	ckpt, prob, cfg := trainedChain(t, 59, 4, 2)
	// Truncate a dimension: a training matrix with the wrong shape must
	// be rejected exactly like a wrong-shaped CSR.
	bad := &sparse.CSR{M: prob.R.M - 1, N: prob.R.N, RowPtr: make([]int64, prob.R.M)}
	mp, err := sparse.OpenBinary(writeBCSRFile(t, bad, 500))
	if err != nil {
		t.Fatal(err)
	}
	defer mp.Close()
	if _, err := NewModel(ckpt, Options{Alpha: cfg.Alpha, Exclude: mp}); err == nil {
		t.Fatal("wrong-shaped exclusion source accepted")
	}
}

// failingExcluder errors on a specific user.
type failingExcluder struct {
	m, n    int
	badUser int
}

func (f failingExcluder) Dims() (int, int) { return f.m, f.n }
func (f failingExcluder) AppendRowCols(dst []int32, user int) ([]int32, error) {
	if user == f.badUser {
		return dst, errors.New("shard went bad")
	}
	return dst, nil
}

func TestExcludeSourceErrorsFailLoudly(t *testing.T) {
	ckpt, prob, cfg := trainedChain(t, 61, 4, 2)
	src := failingExcluder{m: prob.R.M, n: prob.R.N, badUser: 3}
	m, err := NewModel(ckpt, Options{Alpha: cfg.Alpha, Exclude: src})
	if err != nil {
		t.Fatal(err)
	}
	if _, err := m.Recommend(2, 5); err != nil {
		t.Fatalf("healthy user failed: %v", err)
	}
	if _, err := m.Recommend(3, 5); err == nil {
		t.Fatal("bad exclusion row served a recommendation")
	}
	if _, err := m.Recommend(2, 5); err != nil {
		t.Fatalf("healthy user failed after a bad row: %v", err)
	}
}
