package config

import (
	"encoding/json"
	"flag"
	"io"
	"os"
	"path/filepath"
	"reflect"
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
			"movies": {"ckpt": "movies.ckpt", "clamp": {"min": 0.5, "max": 5}},
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
	if mv.Clamp.Min != 0.5 || mv.Clamp.Max != 5 {
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

// TestServeRefusesDeletedTopN: the precomputed top-N table went, and a
// deployment still carrying its option hears so at start-up — the file
// loader names the key, the flag set the flag.
func TestServeRefusesDeletedTopN(t *testing.T) {
	for _, file := range []string{
		`{"model": {"ckpt": "m.ckpt", "topn": 100}}`,
		`{"models": {"a": {"ckpt": "a.ckpt", "topn": 100}}}`,
	} {
		path := writeFile(t, "serve.json", file)
		cfg := DefaultServe()
		err := Parse(newFS(t), []string{"-config", path}, &cfg)
		if err == nil || !strings.Contains(err.Error(), `unknown field "topn"`) {
			t.Errorf("config file %s: error %v, want an unknown-field refusal naming \"topn\"", file, err)
		}
	}
	cfg := DefaultServe()
	err := Parse(newFS(t), []string{"-ckpt", "m.ckpt", "-topn", "100"}, &cfg)
	if err == nil || !strings.Contains(err.Error(), "flag provided but not defined: -topn") {
		t.Errorf("-topn: error %v, want an unknown-flag refusal", err)
	}
}

// TestServeRefusesDeletedClampEnable: clipping is on iff clamp max >
// clamp min, so the switch that also turned it on went, and a deployment
// still carrying it hears so at start-up — the file loader names the key,
// the flag set the flag.
func TestServeRefusesDeletedClampEnable(t *testing.T) {
	for _, file := range []string{
		`{"model": {"ckpt": "m.ckpt", "clamp": {"enable": true, "min": 1, "max": 5}}}`,
		`{"models": {"a": {"ckpt": "a.ckpt", "clamp": {"enable": true, "min": 1, "max": 5}}}}`,
	} {
		path := writeFile(t, "serve.json", file)
		cfg := DefaultServe()
		err := Parse(newFS(t), []string{"-config", path}, &cfg)
		if err == nil || !strings.Contains(err.Error(), `unknown field "enable"`) {
			t.Errorf("config file %s: error %v, want an unknown-field refusal naming \"enable\"", file, err)
		}
	}
	cfg := DefaultServe()
	err := Parse(newFS(t), []string{"-ckpt", "m.ckpt", "-clamp", "-clamp-min", "1", "-clamp-max", "5"}, &cfg)
	if err == nil || !strings.Contains(err.Error(), "flag provided but not defined: -clamp") {
		t.Errorf("-clamp: error %v, want an unknown-flag refusal", err)
	}
}

// TestServeParsesBenchmarkCommandLines: the repository benchmark starts
// bpmf-serve with these arguments (benchmark/pipeline.go and proc.go).
// -threads does nothing any more but must keep parsing.
func TestServeParsesBenchmarkCommandLines(t *testing.T) {
	for _, args := range [][]string{
		{"-addr", "127.0.0.1:18080", "-ckpt", "ref.ckpt", "-threads", "2", "-data", "d.bcsr"},
		{"-addr", "127.0.0.1:18080", "-ckpt", "live.ckpt", "-threads", "2", "-watch", "50ms"},
	} {
		cfg := DefaultServe()
		if err := Parse(newFS(t), args, &cfg); err != nil {
			t.Errorf("%v: %v", args, err)
			continue
		}
		models, err := cfg.EffectiveModels()
		if err != nil || len(models) != 1 || models["default"].Ckpt != args[3] {
			t.Errorf("%v: models %+v, %v; want one model named default serving %s", args, models, err, args[3])
		}
	}
}

// TestServeRefusesSingleModelSettingsNextToModels: next to a models map
// a per-model setting has no model to apply to, so it is refused by
// name, whether a flag or the file's "model" object set it; the shared
// flags apply to every model of the map and are accepted.
func TestServeRefusesSingleModelSettingsNextToModels(t *testing.T) {
	const models = `"models": {"a": {"ckpt": "a.ckpt"}, "b": {"ckpt": "b.ckpt", "data": "b.bcsr"}}`
	cases := []struct {
		name        string
		model       string // the file's "model" object, or ""
		args        []string
		errContains string
	}{
		{"shared flags", "", []string{"-rate", "2", "-burst", "1", "-threads", "2", "-watch", "1s", "-queue-bound", "4", "-addr", ":7070"}, ""},
		{"model object at its defaults", `{"alpha": 2}`, nil, ""},
		{"-ckpt", "", []string{"-ckpt", "m.ckpt"}, "-ckpt (file: model.ckpt)"},
		{"-data", "", []string{"-data", "d.bcsr"}, "-data (file: model.data)"},
		{"-test", "", []string{"-test", "0.2"}, "-test (file: model.test)"},
		{"-alpha", "", []string{"-alpha", "7"}, "-alpha (file: model.alpha)"},
		{"-clamp", "", []string{"-clamp"}, "flag provided but not defined: -clamp"},
		{"-clamp-min", "", []string{"-clamp-min", "1"}, "-clamp-min (file: model.clamp.min)"},
		{"-clamp-max", "", []string{"-clamp-max", "5"}, "-clamp-max (file: model.clamp.max)"},
		{"several", "", []string{"-data", "d.bcsr", "-alpha", "7", "-clamp-max", "5"}, "-data"},
		{"model.alpha", `{"alpha": 7}`, nil, "-alpha (file: model.alpha)"},
		{"model.clamp", `{"clamp": {"min": 1, "max": 5}}`, nil, "-clamp-min (file: model.clamp.min)"},
		{"model.lineage", `{"lineage": {"seed": 3}}`, nil, "model.lineage (file only)"},
	}
	for _, tc := range cases {
		t.Run(tc.name, func(t *testing.T) {
			file := "{" + models + "}"
			if tc.model != "" {
				file = `{"model": ` + tc.model + ", " + models + "}"
			}
			cfg := DefaultServe()
			err := Parse(newFS(t), append([]string{"-config", writeFile(t, "serve.json", file)}, tc.args...), &cfg)
			switch {
			case tc.errContains == "" && err != nil:
				t.Fatalf("unexpected error: %v", err)
			case tc.errContains != "" && (err == nil || !strings.Contains(err.Error(), tc.errContains)):
				t.Fatalf("error %v, want one naming %q", err, tc.errContains)
			}
		})
	}
}

// TestTrainAndDistRefuseReorder: the RCM reordering mode went (PR 25;
// the distributed engine partitions the matrix as stored), and a
// deployment still carrying it hears so at start-up on both commands
// that had it — the file loader names the key, the flag set the flag.
func TestTrainAndDistRefuseReorder(t *testing.T) {
	for _, tc := range []struct {
		name string
		cfg  func() Command
		file string
		args []string
	}{
		{"train", func() Command { c := DefaultTrain(); return &c }, `{"data": {"synthetic": "tiny"}, "reorder": true}`, []string{"-synthetic", "tiny"}},
		{"dist", func() Command { c := DefaultDist(); return &c }, `{"launch": 2, "reorder": true}`, []string{"-launch", "2"}},
	} {
		path := writeFile(t, tc.name+".json", tc.file)
		err := Parse(newFS(t), []string{"-config", path}, tc.cfg())
		if err == nil || !strings.Contains(err.Error(), `"reorder"`) {
			t.Errorf("%s: config file with \"reorder\": error %v, want a refusal naming the key", tc.name, err)
		}
		err = Parse(newFS(t), append(tc.args, "-reorder"), tc.cfg())
		if err == nil || !strings.Contains(err.Error(), "flag provided but not defined: -reorder") {
			t.Errorf("%s: -reorder: error %v, want an unknown-flag refusal", tc.name, err)
		}
		if err := Parse(newFS(t), tc.args, tc.cfg()); err != nil {
			t.Errorf("%s: %v without -reorder: %v", tc.name, tc.args, err)
		}
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

// FuzzLoadFile decodes arbitrary bytes as a config file over every
// command's defaults. No input may panic LoadFile or a loaded value's
// Validate, and a value that validates must survive json.Marshal →
// LoadFile unchanged, so a loaded config written back out is the same
// config. The write-back loads over the zero value: omitempty drops
// exactly the zero fields.
func FuzzLoadFile(f *testing.F) {
	for _, seed := range []string{
		`{"data": {"synthetic": "tiny", "scale": 2}, "sampler": {"k": 8, "iters": 30, "burnin": 3}, "engine": "static"}`,
		`{"data": {"synthetic": "small"}, "sampler": {"iters": 5}}`,
		`{"data": {"synthetic": "small"}, "typo_field": 3}`,
		`{"data": {"synthetic": "small"}} {"more": true}`,
		`iters = 30`,
		`{"addr": ":9090", "watch": "2s", "models": {"movies": {"ckpt": "movies.ckpt", "clamp": {"min": 0.5, "max": 5}}, "drugs": {"ckpt": "drugs.ckpt", "lineage": {"seed": 7, "k": 16}}}}`,
		`{"model": {"ckpt": "m.ckpt"}, "serving": {"max_batch": 8, "queue_bound": 16}}`,
		`{"model": {"ckpt": "m.ckpt"}, "serving": {"queue_bound": 16, "retry_after": 3000000000}}`,
		`{"model": {"ckpt": "m.ckpt"}, "watch": "1.5s", "serving": {"rate": 2.5, "burst": 1, "retry_after": "250ms"}}`,
		`{"data": {"synthetic": "tiny"}, "reorder": true}`,
		`{"launch": 2, "reorder": true}`,
	} {
		f.Add([]byte(seed))
	}
	commands := []func() Command{
		func() Command { c := DefaultTrain(); return &c },
		func() Command { c := DefaultTrainer(); return &c },
		func() Command { c := DefaultDist(); return &c },
		func() Command { c := DefaultServe(); return &c },
		func() Command { c := DefaultDatagen(); return &c },
		func() Command { c := DefaultExperiments(); return &c },
		func() Command { c := DefaultLoad(); return &c },
	}
	f.Fuzz(func(t *testing.T, data []byte) {
		dir := t.TempDir()
		in, out := filepath.Join(dir, "in.json"), filepath.Join(dir, "out.json")
		if err := os.WriteFile(in, data, 0o600); err != nil {
			t.Fatal(err)
		}
		for _, def := range commands {
			cfg := def()
			if LoadFile(in, cfg) != nil || cfg.Validate() != nil {
				continue
			}
			if s, ok := cfg.(*Serve); ok && len(s.Models) == 0 {
				s.Models = nil // an empty map is no map (Validate reads len), and omitempty drops it
			}
			b, err := json.Marshal(cfg)
			if err != nil {
				t.Fatalf("%T: marshalling a valid config: %v", cfg, err)
			}
			if err := os.WriteFile(out, b, 0o600); err != nil {
				t.Fatal(err)
			}
			back := reflect.New(reflect.TypeOf(cfg).Elem()).Interface()
			if err := LoadFile(out, back); err != nil {
				t.Fatalf("%T: reloading %s: %v", cfg, b, err)
			}
			if !reflect.DeepEqual(cfg, back) {
				t.Fatalf("%T: round trip through %s changed the config:\n%+v\n%+v", cfg, b, cfg, back)
			}
		}
	})
}
