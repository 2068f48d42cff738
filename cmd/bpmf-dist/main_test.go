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
// .bcsr is mapped (shard-native) unless -full-load asks for the whole
// problem, which then carries the file's panel table so both forms plan
// alike; anything else is a plain in-memory problem.
func TestSourceForms(t *testing.T) {
	ds := datagen.Generate(datagen.Tiny(5))
	bc := filepath.Join(t.TempDir(), "r.bcsr")
	f, err := os.Create(bc)
	if err != nil {
		t.Fatal(err)
	}
	if err := sparse.WriteBinarySharded(f, ds.R, 50); err != nil {
		t.Fatal(err)
	}
	f.Close()

	cfg := config.DefaultDist()
	cfg.Data.Path = bc
	src, err := source(cfg)
	if err != nil {
		t.Fatal(err)
	}
	if src.Mapped == nil || src.Prob != nil || src.TestFrac != cfg.Data.TestFrac {
		t.Fatalf("bcsr input resolved to %+v, want a mapped shard-native source", src)
	}
	src.Mapped.Close()

	cfg.FullLoad = true
	src, err = source(cfg)
	if err != nil {
		t.Fatal(err)
	}
	if src.Mapped != nil || src.Prob == nil || src.Panels == nil || len(src.Panels.Lo) < 2 {
		t.Fatalf("-full-load resolved to %+v, want the whole problem plus the panel table", src)
	}
	if src.Prob.R.M != ds.R.M || len(src.Prob.Test) == 0 {
		t.Fatalf("full-load problem is %d rows with %d test entries", src.Prob.R.M, len(src.Prob.Test))
	}

	src, err = source(config.DefaultDist()) // -synthetic small
	if err != nil {
		t.Fatal(err)
	}
	if src.Mapped != nil || src.Prob == nil || src.Panels != nil {
		t.Fatalf("synthetic input resolved to %+v, want a plain in-memory problem", src)
	}
}

func TestShardNativeDecision(t *testing.T) {
	ds := datagen.Generate(datagen.Tiny(9))
	bc := filepath.Join(t.TempDir(), "r.bcsr")
	f, err := os.Create(bc)
	if err != nil {
		t.Fatal(err)
	}
	if err := sparse.WriteBinary(f, ds.R); err != nil {
		t.Fatal(err)
	}
	f.Close()

	if on, err := shardNative(bc, false, false); err != nil || !on {
		t.Fatalf("bcsr input must default to shard-native (on=%v err=%v)", on, err)
	}
	if on, _ := shardNative(bc, true, false); on {
		t.Fatal("-full-load did not disable shard-native loading")
	}
	if on, _ := shardNative(bc, false, true); on {
		t.Fatal("-reorder did not force full load")
	}
	if on, err := shardNative("", false, false); err != nil || on {
		t.Fatalf("synthetic run classified as shard-native (on=%v err=%v)", on, err)
	}
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
