package config

import (
	"flag"
	"io"
	"os"
	"path/filepath"
	"strings"
	"testing"
)

func newFS(t *testing.T) *flag.FlagSet {
	t.Helper()
	fs := flag.NewFlagSet("test", flag.ContinueOnError)
	fs.SetOutput(io.Discard)
	return fs
}

func writeFile(t *testing.T, name, content string) string {
	t.Helper()
	path := filepath.Join(t.TempDir(), name)
	if err := os.WriteFile(path, []byte(content), 0o644); err != nil {
		t.Fatal(err)
	}
	return path
}

// TestParsePrecedence pins the three-layer resolution contract:
// Default*() < -config file < explicitly set flags, independent of
// where -config sits among the other flags.
func TestParsePrecedence(t *testing.T) {
	path := writeFile(t, "train.json", `{
		"data":    {"synthetic": "tiny", "scale": 2},
		"sampler": {"k": 8, "iters": 30, "burnin": 3},
		"engine":  "static"
	}`)

	for _, args := range [][]string{
		{"-config", path, "-k", "4", "-iters", "50"},
		{"-k", "4", "-iters", "50", "-config", path}, // -config after other flags
		{"-k", "9", "-config", path, "-k", "4", "-iters", "50"},
	} {
		cfg := DefaultTrain()
		if err := Parse(newFS(t), args, &cfg); err != nil {
			t.Fatalf("Parse(%v): %v", args, err)
		}
		// Flags win over the file.
		if cfg.Sampler.K != 4 {
			t.Errorf("args %v: K = %d, want the flag's 4 over the file's 8", args, cfg.Sampler.K)
		}
		if cfg.Sampler.Iters != 50 {
			t.Errorf("args %v: Iters = %d, want the flag's 50 over the file's 30", args, cfg.Sampler.Iters)
		}
		// File wins over defaults.
		if cfg.Data.Synthetic != "tiny" || cfg.Data.Scale != 2 {
			t.Errorf("args %v: data = %+v, want the file's tiny at scale 2", args, cfg.Data)
		}
		if cfg.Sampler.Burnin != 3 {
			t.Errorf("args %v: Burnin = %d, want the file's 3", args, cfg.Sampler.Burnin)
		}
		if cfg.Engine != "static" {
			t.Errorf("args %v: Engine = %q, want the file's static", args, cfg.Engine)
		}
		// Untouched fields keep their defaults.
		if cfg.Sampler.Seed != DefaultTrain().Sampler.Seed {
			t.Errorf("args %v: Seed = %d, want the default %d", args, cfg.Sampler.Seed, DefaultTrain().Sampler.Seed)
		}
		if cfg.Threads != DefaultTrain().Threads {
			t.Errorf("args %v: Threads = %d, want the default %d", args, cfg.Threads, DefaultTrain().Threads)
		}
	}
}

// TestParseFlagsOnly works without any file: defaults plus flags.
func TestParseFlagsOnly(t *testing.T) {
	cfg := DefaultTrain()
	if err := Parse(newFS(t), []string{"-synthetic", "small", "-k", "12"}, &cfg); err != nil {
		t.Fatal(err)
	}
	if cfg.Sampler.K != 12 || cfg.Data.Synthetic != "small" {
		t.Errorf("got K=%d synthetic=%q", cfg.Sampler.K, cfg.Data.Synthetic)
	}
	if cfg.Engine != DefaultTrain().Engine {
		t.Errorf("Engine = %q, want the untouched default", cfg.Engine)
	}
}

// TestParseValidatesMergedResult: a config that is only invalid after
// the merge still fails, and the error names the file that fed it.
func TestParseValidatesMergedResult(t *testing.T) {
	path := writeFile(t, "train.json", `{"data": {"synthetic": "small"}, "sampler": {"iters": 5}}`)
	cfg := DefaultTrain()
	err := Parse(newFS(t), []string{"-config", path}, &cfg) // default burnin 10 >= file iters 5
	if err == nil {
		t.Fatal("merged burnin >= iters accepted")
	}
	if !strings.Contains(err.Error(), "less than iters") {
		t.Errorf("error %q does not explain the burnin/iters rule", err)
	}
	if !strings.Contains(err.Error(), path) {
		t.Errorf("error %q does not name the config file", err)
	}
}

func TestParseRejectsBadFiles(t *testing.T) {
	cases := map[string]string{
		"unknown field": `{"data": {"synthetic": "small"}, "typo_field": 3}`,
		"trailing data": `{"data": {"synthetic": "small"}} {"more": true}`,
		"not json":      `iters = 30`,
	}
	for name, content := range cases {
		path := writeFile(t, "bad.json", content)
		cfg := DefaultTrain()
		if err := Parse(newFS(t), []string{"-config", path}, &cfg); err == nil {
			t.Errorf("%s: accepted", name)
		}
	}

	cfg := DefaultTrain()
	if err := Parse(newFS(t), []string{"-config", "/does/not/exist.json"}, &cfg); err == nil {
		t.Error("missing config file accepted")
	}
}

// TestParseMultiModelServeFile loads a two-model registry config the
// way cmd/bpmf-serve does, with a flag override reaching a
// registry-level field.
func TestParseMultiModelServeFile(t *testing.T) {
	path := writeFile(t, "serve.json", `{
		"addr":  ":9090",
		"watch": "2s",
		"models": {
			"movies": {"ckpt": "movies.ckpt", "topn": 10, "clamp": {"enable": true, "min": 0, "max": 5}},
			"drugs":  {"ckpt": "drugs.ckpt", "lineage": {"seed": 7, "k": 16}}
		}
	}`)
	cfg := DefaultServe()
	if err := Parse(newFS(t), []string{"-config", path, "-addr", ":7070"}, &cfg); err != nil {
		t.Fatal(err)
	}
	if cfg.Addr != ":7070" {
		t.Errorf("Addr = %q, want the flag's :7070 over the file's :9090", cfg.Addr)
	}
	if cfg.Watch.Std().Seconds() != 2 {
		t.Errorf("Watch = %s, want the file's 2s", cfg.Watch)
	}
	models, err := cfg.EffectiveModels()
	if err != nil {
		t.Fatal(err)
	}
	if len(models) != 2 {
		t.Fatalf("EffectiveModels = %d entries, want 2", len(models))
	}
	mv := models["movies"]
	if mv.TopN != 10 || !mv.Clamp.Enable || mv.Clamp.Max != 5 {
		t.Errorf("movies = %+v", mv)
	}
	if mv.Alpha != DefaultServeModel().Alpha {
		t.Errorf("movies alpha = %g, want the per-model default", mv.Alpha)
	}
	dr := models["drugs"]
	if dr.Lineage == nil || dr.Lineage.Seed != 7 || dr.Lineage.K != 16 {
		t.Errorf("drugs lineage = %+v", dr.Lineage)
	}
}

// TestServeRefusesDeletedBatchingKnobs: the request batcher's two options
// went with it (PR 24), and a deployment still carrying one hears so at
// start-up — the file loader names the key, the flag set the flag —
// instead of running with a setting that does nothing.
func TestServeRefusesDeletedBatchingKnobs(t *testing.T) {
	for _, key := range []string{"max_batch", "max_delay"} {
		path := writeFile(t, "serve.json", `{"model": {"ckpt": "m.ckpt"}, "serving": {"`+key+`": 8, "queue_bound": 16}}`)
		cfg := DefaultServe()
		err := Parse(newFS(t), []string{"-config", path}, &cfg)
		if err == nil || !strings.Contains(err.Error(), `"`+key+`"`) {
			t.Errorf("config file with %q: error %v, want a refusal naming the key", key, err)
		}
	}
	for _, name := range []string{"-max-batch", "-max-delay"} {
		cfg := DefaultServe()
		err := Parse(newFS(t), []string{"-ckpt", "m.ckpt", name, "1"}, &cfg)
		if err == nil || !strings.Contains(err.Error(), "flag provided but not defined: "+name) {
			t.Errorf("%s: error %v, want an unknown-flag refusal", name, err)
		}
	}
	// What stays is still accepted from both layers.
	path := writeFile(t, "serve.json", `{"model": {"ckpt": "m.ckpt"}, "serving": {"queue_bound": 16}}`)
	cfg := DefaultServe()
	if err := Parse(newFS(t), []string{"-config", path, "-retry-after", "3s"}, &cfg); err != nil {
		t.Fatal(err)
	}
	if cfg.Serving.QueueBound != 16 || cfg.Serving.RetryAfter.Std().Seconds() != 3 {
		t.Errorf("serving = %+v, want queue bound 16 from the file and retry-after 3s from the flag", cfg.Serving)
	}
}

// TestParseReportsUnknownFlags: a typo'd flag surfaces through the real
// FlagSet's error handling instead of being eaten by the -config scan.
func TestParseReportsUnknownFlags(t *testing.T) {
	cfg := DefaultTrain()
	if err := Parse(newFS(t), []string{"-synthetic", "small", "-no-such-flag"}, &cfg); err == nil {
		t.Error("unknown flag accepted")
	}
}
