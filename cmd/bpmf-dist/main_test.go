package main

import (
	"os"
	"path/filepath"
	"strings"
	"testing"

	"repro/internal/config"
	"repro/internal/datagen"
	"repro/internal/sparse"
)

// TestMain lets this test binary impersonate a bpmf-dist worker: when the
// gate variable is set, the process plays a worker that crashes with a
// diagnostic on stderr instead of running the test suite. launchWorkers
// re-executes the test binary itself, so no separate build is needed.
func TestMain(m *testing.M) {
	if os.Getenv("BPMF_DIST_TEST_WORKER") == "crash" {
		os.Stderr.WriteString("synthetic worker failure: cannot reach peers\n")
		os.Exit(7)
	}
	os.Exit(m.Run())
}

func TestParsePeers(t *testing.T) {
	good := []string{
		"127.0.0.1:9800",
		"127.0.0.1:9800,127.0.0.1:9801",
		"host0:9000,host1:9000", // same port, different hosts: fine
	}
	for _, p := range good {
		addrs, err := config.ParsePeers(p)
		if err != nil {
			t.Errorf("parsePeers(%q): %v", p, err)
		}
		if len(addrs) != strings.Count(p, ",")+1 {
			t.Errorf("parsePeers(%q) returned %d addrs", p, len(addrs))
		}
	}
	bad := map[string]string{
		"":                               "missing",
		"  ":                             "missing",
		"127.0.0.1:9800,":                "empty",
		",127.0.0.1:9800":                "empty",
		"127.0.0.1:9800,,127.0.0.1:9801": "empty",
		"127.0.0.1:9800, 127.0.0.1:9801": "whitespace",
		"localhost":                      "host:port",
		"127.0.0.1:9800,127.0.0.1:9800":  "own listen address",
		"h:1,h:2,h:1":                    "own listen address",
	}
	for p, wantSub := range bad {
		if _, err := config.ParsePeers(p); err == nil {
			t.Errorf("parsePeers(%q) accepted", p)
		} else if !strings.Contains(err.Error(), wantSub) {
			t.Errorf("parsePeers(%q) error %q does not mention %q", p, err, wantSub)
		}
	}
}

// TestSourceForms pins which dist.Source each input resolves to: a
// .bcsr file is mapped as written and holds out -test on load; a
// MatrixMarket file or a synthetic benchmark becomes its resolved
// problem as a one-row-per-shard image carrying the split's test set.
// Only the file counts as one for the per-rank read report.
func TestSourceForms(t *testing.T) {
	ds := datagen.Generate(datagen.Tiny(5))
	dir := t.TempDir()
	write := func(name string, w func(f *os.File) error) string {
		path := filepath.Join(dir, name)
		f, err := os.Create(path)
		if err != nil {
			t.Fatal(err)
		}
		if err := w(f); err != nil {
			t.Fatal(err)
		}
		if err := f.Close(); err != nil {
			t.Fatal(err)
		}
		return path
	}
	bc := write("r.bcsr", func(f *os.File) error { return sparse.WriteBinarySharded(f, ds.R, 50) })
	mtx := write("r.mtx", func(f *os.File) error { return sparse.WriteMatrixMarket(f, ds.R) })

	cfg := config.DefaultDist()
	cfg.Data.Path = bc
	src, file, err := source(cfg)
	if err != nil {
		t.Fatal(err)
	}
	if !file || src.Mapped == nil || src.Test != nil || src.TestFrac != cfg.Data.TestFrac || src.Mapped.Shards() >= ds.R.M {
		t.Fatalf("bcsr input resolved to %+v (file %v), want the file's own shards holding out -test", src, file)
	}
	src.Mapped.Close()

	synthetic := config.DefaultDist()
	synthetic.Data = config.Data{Synthetic: "tiny", Scale: 1, TestFrac: 0.2}
	cfg.Data.Path = mtx
	for name, c := range map[string]config.Dist{"mtx": cfg, "synthetic": synthetic} {
		src, file, err := source(c)
		if err != nil {
			t.Fatal(err)
		}
		prob, err := c.Data.Problem(c.Sampler.Seed)
		if err != nil {
			t.Fatal(err)
		}
		if file || src.TestFrac != 0 || len(src.Test) != len(prob.Test) || src.Mapped.Shards() != prob.R.M {
			t.Fatalf("%s input resolved to %+v (file %v), want a one-row-per-shard image carrying %d test entries", name, src, file, len(prob.Test))
		}
		got, err := src.Mapped.Matrix()
		if err != nil || !sparse.Equal(got, prob.R) {
			t.Fatalf("%s input: the image is not the training matrix (err %v)", name, err)
		}
	}
}

// TestShardNativeDecision pins that the shard-native decision rests on
// the file's contents alone: even an unsharded .bcsr (one shard for the
// whole matrix) is mapped as written, and a synthetic run never is.
func TestShardNativeDecision(t *testing.T) {
	ds := datagen.Generate(datagen.Tiny(9))
	bc := filepath.Join(t.TempDir(), "r.bcsr")
	f, err := os.Create(bc)
	if err != nil {
		t.Fatal(err)
	}
	if err := sparse.WriteBinarySharded(f, ds.R, sparse.DefaultShardNNZ); err != nil {
		t.Fatal(err)
	}
	f.Close()

	cfg := config.DefaultDist()
	cfg.Data.Path = bc
	src, file, err := source(cfg)
	if err != nil || !file || src.Mapped == nil {
		t.Fatalf("bcsr input must be shard-native (file=%v err=%v)", file, err)
	}
	src.Mapped.Close()
	src, file, err = source(config.DefaultDist())
	if err != nil || file {
		t.Fatalf("synthetic run classified as shard-native (file=%v err=%v)", file, err)
	}
	src.Mapped.Close()
}

// TestLaunchWorkersReportsFailedRank pins the launcher's failure report:
// the error must name the failed rank, its exit code, and carry the tail
// of its stderr — the three things someone debugging a dead cluster
// actually needs.
func TestLaunchWorkersReportsFailedRank(t *testing.T) {
	exe, err := os.Executable()
	if err != nil {
		t.Fatal(err)
	}
	t.Setenv("BPMF_DIST_TEST_WORKER", "crash")
	// tailBuffer doubles as the concurrency-safe sink for both workers'
	// streams (a plain bytes.Buffer would race between the pipe copiers).
	stdout, stderr := &tailBuffer{max: 1 << 20}, &tailBuffer{max: 1 << 20}
	lerr := launchWorkers(exe, 2, 19840, nil, false, stdout, stderr)
	if lerr == nil {
		t.Fatal("a crashing worker must fail the launch")
	}
	msg := lerr.Error()
	if !strings.Contains(msg, "rank 0") && !strings.Contains(msg, "rank 1") {
		t.Fatalf("error does not name the failed rank: %q", msg)
	}
	if !strings.Contains(msg, "exited with code 7") {
		t.Fatalf("error does not name the exit code: %q", msg)
	}
	if !strings.Contains(msg, "synthetic worker failure: cannot reach peers") {
		t.Fatalf("error does not carry the worker's stderr tail: %q", msg)
	}
}

// TestLaunchWorkersElasticNoCleanFinish pins the elastic launch's only
// failure condition: worker exits are tolerated (they may be injected
// deaths the survivors recover from), but a run where no rank finishes
// cleanly is still an error.
func TestLaunchWorkersElasticNoCleanFinish(t *testing.T) {
	exe, err := os.Executable()
	if err != nil {
		t.Fatal(err)
	}
	t.Setenv("BPMF_DIST_TEST_WORKER", "crash")
	stdout, stderr := &tailBuffer{max: 1 << 20}, &tailBuffer{max: 1 << 20}
	lerr := launchWorkers(exe, 2, 19850, nil, true, stdout, stderr)
	if lerr == nil {
		t.Fatal("an elastic launch where every rank crashed must fail")
	}
	if !strings.Contains(lerr.Error(), "no rank finished cleanly") {
		t.Fatalf("got %q", lerr)
	}
	if !strings.Contains(stderr.String(), "elastic run continues") {
		t.Fatalf("per-rank exits were not reported: %q", stderr.String())
	}
}

func TestTailBufferKeepsTail(t *testing.T) {
	tb := &tailBuffer{max: 8}
	if _, err := tb.Write([]byte("0123456789abcdef")); err != nil {
		t.Fatal(err)
	}
	if got := tb.String(); got != "89abcdef" {
		t.Fatalf("tail %q, want the last 8 bytes", got)
	}
}
