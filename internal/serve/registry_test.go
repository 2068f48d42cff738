package serve

import (
	"context"
	"errors"
	"os"
	"path/filepath"
	"strings"
	"sync"
	"testing"
	"time"
)

// writeGarbage replaces path with bytes no checkpoint reader accepts.
func writeGarbage(path string) error {
	return os.WriteFile(path, []byte("not a checkpoint"), 0o644)
}

// twoModelRegistry opens a registry over two independently trained
// chains, returning the checkpoint paths for mutation by the tests.
func twoModelRegistry(t *testing.T) (*Registry, string, string) {
	t.Helper()
	dir := t.TempDir()
	ckptA, probA, cfgA := trainedChain(t, 11, 4, 2)
	ckptB, probB, cfgB := trainedChain(t, 22, 6, 3)
	pathA := filepath.Join(dir, "a.ckpt")
	pathB := filepath.Join(dir, "b.ckpt")
	writeCheckpointFile(t, pathA, ckptA)
	writeCheckpointFile(t, pathB, ckptB)
	reg, err := NewRegistry([]ModelSpec{
		{Name: "a", Path: pathA, Opts: modelOptions(probA, cfgA)},
		{Name: "b", Path: pathB, Opts: modelOptions(probB, cfgB)},
	}, DefaultBatchOptions())
	if err != nil {
		t.Fatal(err)
	}
	t.Cleanup(func() { reg.Close() })
	return reg, pathA, pathB
}

func TestRegistryGetAndNames(t *testing.T) {
	reg, _, _ := twoModelRegistry(t)
	if reg.Len() != 2 {
		t.Fatalf("Len = %d, want 2", reg.Len())
	}
	if names := reg.Names(); len(names) != 2 || names[0] != "a" || names[1] != "b" {
		t.Errorf("Names = %v, want [a b] sorted", names)
	}
	for _, name := range []string{"a", "b"} {
		srv, ok := reg.Get(name)
		if !ok || srv == nil {
			t.Errorf("Get(%q) missing", name)
		}
	}
	if _, ok := reg.Get("nope"); ok {
		t.Error("Get(nope) returned a server")
	}
	// Every route always has its gate, and a gate of its own.
	if a, b := reg.Batcher("a"), reg.Batcher("b"); a == nil || b == nil || a == b {
		t.Errorf("gates of a and b: %p, %p, want two distinct gates", a, b)
	}
	if reg.Batcher("nope") != nil {
		t.Error("Batcher(nope) returned a gate")
	}
}

func TestRegistryRejectsBadSpecs(t *testing.T) {
	ckpt, prob, cfg := trainedChain(t, 11, 4, 2)
	path := filepath.Join(t.TempDir(), "m.ckpt")
	writeCheckpointFile(t, path, ckpt)
	opts := modelOptions(prob, cfg)

	if _, err := NewRegistry([]ModelSpec{{Name: "", Path: path, Opts: opts}}, DefaultBatchOptions()); err == nil {
		t.Error("empty model name accepted")
	}
	_, err := NewRegistry([]ModelSpec{
		{Name: "m", Path: path, Opts: opts},
		{Name: "m", Path: path, Opts: opts},
	}, DefaultBatchOptions())
	if err == nil || !strings.Contains(err.Error(), "twice") {
		t.Errorf("duplicate name error = %v", err)
	}
	if _, err := NewRegistry([]ModelSpec{{Name: "m", Path: filepath.Join(t.TempDir(), "missing.ckpt"), Opts: opts}}, DefaultBatchOptions()); err == nil {
		t.Error("missing checkpoint accepted")
	}
}

// TestRegistryFailFastRunsClosers: when one spec fails to load, the
// closers of every spec (including the failing one) must run, or
// mapped exclusion files leak.
func TestRegistryFailFastRunsClosers(t *testing.T) {
	ckpt, prob, cfg := trainedChain(t, 11, 4, 2)
	path := filepath.Join(t.TempDir(), "m.ckpt")
	writeCheckpointFile(t, path, ckpt)

	closed := make([]bool, 2)
	_, err := NewRegistry([]ModelSpec{
		{Name: "good", Path: path, Opts: modelOptions(prob, cfg),
			Close: func() error { closed[0] = true; return nil }},
		{Name: "bad", Path: filepath.Join(t.TempDir(), "missing.ckpt"), Opts: modelOptions(prob, cfg),
			Close: func() error { closed[1] = true; return nil }},
	}, DefaultBatchOptions())
	if err == nil {
		t.Fatal("registry with a failing model came up")
	}
	if !closed[0] || !closed[1] {
		t.Errorf("closers run = %v, want both", closed)
	}
}

// TestRegistryReloadIsolation pins the core multi-model property: one
// model's reload (successful or failed) never touches another model's
// snapshot or reload count.
func TestRegistryReloadIsolation(t *testing.T) {
	reg, pathA, _ := twoModelRegistry(t)
	srvA, _ := reg.Get("a")
	srvB, _ := reg.Get("b")
	modelB := srvB.Model()

	// Retrain chain a (longer run, same seed) and swap only it — the
	// path POST /v1/a/reload takes.
	longerA, _, _ := trainedChain(t, 11, 8, 2)
	writeCheckpointFile(t, pathA, longerA)
	if err := srvA.Reload(); err != nil {
		t.Fatal(err)
	}
	if srvA.Reloads.Load() != 2 {
		t.Errorf("model a reloads = %d, want 2", srvA.Reloads.Load())
	}
	if srvB.Reloads.Load() != 1 {
		t.Errorf("model b reloads = %d, want its initial load only", srvB.Reloads.Load())
	}
	if srvB.Model() != modelB {
		t.Error("model b's snapshot pointer changed when only a reloaded")
	}

	// Corrupt a's checkpoint: its reload fails, b's still succeeds, and
	// a keeps serving the previous good snapshot.
	modelA := srvA.Model()
	if err := writeGarbage(pathA); err != nil {
		t.Fatal(err)
	}
	errs := reg.ReloadAll()
	if len(errs) != 1 || errs["a"] == nil {
		t.Fatalf("ReloadAll after corruption = %v, want exactly model a failing", errs)
	}
	if srvA.Model() != modelA {
		t.Error("failed reload replaced model a's snapshot")
	}
	if err := srvA.LastError(); err == nil {
		t.Error("model a's LastError is nil after a failed reload")
	}
	if err := srvB.LastError(); err != nil {
		t.Errorf("model b's LastError = %v, want nil", err)
	}
}

// TestRegistryHealth reports per-model dimensions and surfaces a failed
// model's last error while the healthy one stays clean.
func TestRegistryHealth(t *testing.T) {
	reg, pathA, _ := twoModelRegistry(t)
	hs := reg.Health()
	if len(hs) != 2 || hs[0].Name != "a" || hs[1].Name != "b" {
		t.Fatalf("Health = %+v, want entries a then b", hs)
	}
	for _, h := range hs {
		if h.Users <= 0 || h.Items <= 0 || h.K != 8 || h.Samples <= 0 || h.Reloads != 1 || h.LastError != "" {
			t.Errorf("unexpected health entry %+v", h)
		}
	}

	if err := writeGarbage(pathA); err != nil {
		t.Fatal(err)
	}
	reg.ReloadAll()
	hs = reg.Health()
	if hs[0].LastError == "" {
		t.Error("model a's health hides the reload failure")
	}
	if hs[1].LastError != "" {
		t.Errorf("model b's health reports %q, want clean", hs[1].LastError)
	}
}

// TestRegistryWatchIndependent runs per-model watchers: touching one
// model's checkpoint hot-reloads it without waking the other.
func TestRegistryWatchIndependent(t *testing.T) {
	reg, pathA, _ := twoModelRegistry(t)
	srvA, _ := reg.Get("a")
	srvB, _ := reg.Get("b")

	ctx, cancel := context.WithCancel(context.Background())
	defer cancel()
	var mu sync.Mutex
	watchErrs := map[string]error{}
	reg.Watch(ctx, 5*time.Millisecond, func(name string, err error) {
		mu.Lock()
		watchErrs[name] = err
		mu.Unlock()
	})

	longerA, _, _ := trainedChain(t, 11, 8, 2)
	writeCheckpointFile(t, pathA, longerA)
	deadline := time.Now().Add(5 * time.Second)
	for srvA.Reloads.Load() < 2 {
		if time.Now().After(deadline) {
			t.Fatal("watcher never picked up model a's new checkpoint")
		}
		time.Sleep(5 * time.Millisecond)
	}
	if got := srvB.Reloads.Load(); got != 1 {
		t.Errorf("model b reloaded %d times, want its initial load only", got)
	}
	mu.Lock()
	defer mu.Unlock()
	if len(watchErrs) != 0 {
		t.Errorf("watch errors: %v", watchErrs)
	}
}

func TestRegistryCloseReportsFirstError(t *testing.T) {
	ckpt, prob, cfg := trainedChain(t, 11, 4, 2)
	path := filepath.Join(t.TempDir(), "m.ckpt")
	writeCheckpointFile(t, path, ckpt)
	boom := errors.New("boom")
	calls := 0
	reg, err := NewRegistry([]ModelSpec{
		{Name: "m", Path: path, Opts: modelOptions(prob, cfg),
			Close: func() error { calls++; return boom }},
	}, DefaultBatchOptions())
	if err != nil {
		t.Fatal(err)
	}
	if err := reg.Close(); !errors.Is(err, boom) {
		t.Errorf("Close = %v, want the closer's error", err)
	}
	if err := reg.Close(); err != nil {
		t.Errorf("second Close = %v, want nil (closers run once)", err)
	}
	if calls != 1 {
		t.Errorf("closer ran %d times, want 1", calls)
	}
}
