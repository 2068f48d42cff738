package bpmf

import (
	"os"
	"path/filepath"
	"testing"

	"repro/internal/datagen"
	"repro/internal/sparse"
)

// TestDataFromFileFormatsAgree pins the public loading entry point:
// the same dataset stored as MatrixMarket text and as .bcsr shards must
// produce identical training problems — and, the chain being a pure
// function of (data, config), identical RMSE traces.
func TestDataFromFileFormatsAgree(t *testing.T) {
	ds := datagen.Generate(datagen.Tiny(5))
	dir := t.TempDir()
	mm := filepath.Join(dir, "r.mtx")
	bc := filepath.Join(dir, "r.bcsr")
	f, err := os.Create(mm)
	if err != nil {
		t.Fatal(err)
	}
	if err := sparse.WriteMatrixMarket(f, ds.R); err != nil {
		t.Fatal(err)
	}
	f.Close()
	g, err := os.Create(bc)
	if err != nil {
		t.Fatal(err)
	}
	if err := sparse.WriteBinarySharded(g, ds.R, sparse.DefaultShardNNZ); err != nil {
		t.Fatal(err)
	}
	g.Close()

	cfg := Defaults()
	cfg.K = 4
	cfg.Iters = 4
	cfg.Burnin = 2
	cfg.Engine = Sequential
	var traces [][]float64
	for _, path := range []string{mm, bc} {
		data, err := DataFromFile(path, 0.2, 5)
		if err != nil {
			t.Fatalf("DataFromFile(%s): %v", path, err)
		}
		if data.NumUsers() != ds.R.M || data.NumItems() != ds.R.N {
			t.Fatalf("%s: loaded %dx%d, want %dx%d", path, data.NumUsers(), data.NumItems(), ds.R.M, ds.R.N)
		}
		res, err := Train(data, cfg)
		if err != nil {
			t.Fatal(err)
		}
		traces = append(traces, res.RMSETrace())
	}
	for i := range traces[0] {
		if traces[0][i] != traces[1][i] {
			t.Fatalf("iteration %d: text-loaded RMSE %v != shard-loaded %v", i, traces[0][i], traces[1][i])
		}
	}
}

func TestDataFromFileErrors(t *testing.T) {
	dir := t.TempDir()
	bad := filepath.Join(dir, "junk")
	if err := os.WriteFile(bad, []byte("definitely not a matrix"), 0o644); err != nil {
		t.Fatal(err)
	}
	if _, err := DataFromFile(bad, 0, 1); err == nil {
		t.Fatal("DataFromFile must reject an unrecognized file")
	}
	if _, err := DataFromFile(filepath.Join(dir, "missing"), 0, 1); err == nil {
		t.Fatal("DataFromFile must surface a missing file")
	}
}
