package config

import (
	"encoding/json"
	"math"
	"strings"
	"testing"
	"time"
)

// checkValidate runs one table entry: mutate a valid base config, then
// demand either a clean Validate or an error mentioning errContains.
func checkValidate(t *testing.T, name string, err error, errContains string) {
	t.Helper()
	if errContains == "" {
		if err != nil {
			t.Errorf("%s: unexpected error: %v", name, err)
		}
		return
	}
	if err == nil {
		t.Errorf("%s: Validate accepted, want error mentioning %q", name, errContains)
	} else if !strings.Contains(err.Error(), errContains) {
		t.Errorf("%s: error %q does not mention %q", name, err, errContains)
	}
}

// Defaults must validate once the per-command required field (data
// source, checkpoint, label, peer list) is supplied — everything else a
// Default* constructor returns has to be self-consistent.
func TestDefaultsAreValid(t *testing.T) {
	tr := DefaultTrain()
	tr.Data.Synthetic = "small"
	if err := tr.Validate(); err != nil {
		t.Errorf("DefaultTrain: %v", err)
	}

	dl := DefaultDist()
	dl.Launch = 2
	if err := dl.Validate(); err != nil {
		t.Errorf("DefaultDist (launch mode): %v", err)
	}
	dw := DefaultDist()
	dw.Rank, dw.Peers = 0, "127.0.0.1:9800,127.0.0.1:9801"
	if err := dw.Validate(); err != nil {
		t.Errorf("DefaultDist (worker mode): %v", err)
	}

	sv := DefaultServe()
	sv.Model.Ckpt = "model.ckpt"
	if err := sv.Validate(); err != nil {
		t.Errorf("DefaultServe: %v", err)
	}
	if err := DefaultServing().Validate(); err != nil {
		t.Errorf("DefaultServing: %v", err)
	}
	if err := DefaultServeModel().Validate("m"); !strings.Contains(err.Error(), "checkpoint") {
		t.Errorf("DefaultServeModel without ckpt: %v", err)
	}

	if err := DefaultDatagen().Validate(); err != nil {
		t.Errorf("DefaultDatagen: %v", err)
	}
	if err := DefaultExperiments().Validate(); err != nil {
		t.Errorf("DefaultExperiments: %v", err)
	}
	ld := DefaultLoad()
	ld.URL = "http://127.0.0.1:8080"
	if err := ld.Validate(); err != nil {
		t.Errorf("DefaultLoad: %v", err)
	}
}

func TestLoadValidate(t *testing.T) {
	base := DefaultLoad()
	base.URL = "http://127.0.0.1:8080"
	cases := []struct {
		name        string
		mut         func(*Load)
		errContains string
	}{
		{"valid closed", func(c *Load) {}, ""},
		{"valid open", func(c *Load) { c.Mode = "open"; c.Rate = 50 }, ""},
		{"no url", func(c *Load) { c.URL = "" }, "need -url"},
		{"bad mode", func(c *Load) { c.Mode = "burst" }, "mode must be"},
		{"zero vus", func(c *Load) { c.VUs = 0 }, "vus must be >= 1"},
		{"open without rate", func(c *Load) { c.Mode = "open"; c.Rate = 0 }, "arrival -rate"},
		{"zero duration", func(c *Load) { c.Duration = 0 }, "duration must be positive"},
		{"negative warmup", func(c *Load) { c.Warmup = Duration(-time.Second) }, "warmup"},
		{"zero n", func(c *Load) { c.N = 0 }, "n must be >= 1"},
		{"bad predict frac", func(c *Load) { c.PredictFrac = 1.5 }, "predict-frac"},
		{"negative users", func(c *Load) { c.Users = -1 }, "users and items"},
		{"zero timeout", func(c *Load) { c.Timeout = 0 }, "timeout must be positive"},
	}
	for _, tc := range cases {
		c := base
		tc.mut(&c)
		checkValidate(t, tc.name, c.Validate(), tc.errContains)
	}
}

func TestDataValidate(t *testing.T) {
	base := Data{Synthetic: "small", Scale: 1, TestFrac: 0.2}
	cases := []struct {
		name        string
		mut         func(*Data)
		errContains string
	}{
		{"valid", func(d *Data) {}, ""},
		{"valid file path", func(d *Data) { d.Synthetic, d.Path = "", "r.mtx" }, ""},
		{"empty", func(d *Data) { *d = Data{} }, "scale must be positive"},
		{"zero scale", func(d *Data) { d.Scale = 0 }, "scale must be positive"},
		{"negative scale", func(d *Data) { d.Scale = -0.5 }, "scale must be positive"},
		{"negative test frac", func(d *Data) { d.TestFrac = -0.1 }, "test fraction"},
		{"test frac one", func(d *Data) { d.TestFrac = 1 }, "test fraction"},
		{"NaN test frac", func(d *Data) { d.TestFrac = math.NaN() }, "test fraction"},
		{"unknown synthetic", func(d *Data) { d.Synthetic = "nope" }, "unknown synthetic"},
	}
	for _, tc := range cases {
		d := base
		tc.mut(&d)
		checkValidate(t, tc.name, d.Validate(), tc.errContains)
	}
}

func TestSamplerValidate(t *testing.T) {
	base := Sampler{K: 8, Alpha: 2, Iters: 10, Burnin: 5, Seed: 42}
	cases := []struct {
		name        string
		mut         func(*Sampler)
		errContains string
	}{
		{"valid", func(s *Sampler) {}, ""},
		{"zero burnin", func(s *Sampler) { s.Burnin = 0 }, ""},
		{"empty", func(s *Sampler) { *s = Sampler{} }, "k must be >= 1"},
		{"zero k", func(s *Sampler) { s.K = 0 }, "k must be >= 1"},
		{"zero alpha", func(s *Sampler) { s.Alpha = 0 }, "alpha must be positive"},
		{"negative alpha", func(s *Sampler) { s.Alpha = -1 }, "alpha must be positive"},
		{"zero iters", func(s *Sampler) { s.Iters = 0 }, "iters must be >= 1"},
		{"negative burnin", func(s *Sampler) { s.Burnin = -1 }, "burnin must be >= 0"},
		{"burnin equals iters", func(s *Sampler) { s.Burnin = s.Iters }, "less than iters"},
		{"burnin exceeds iters", func(s *Sampler) { s.Burnin = s.Iters + 5 }, "less than iters"},
	}
	for _, tc := range cases {
		s := base
		tc.mut(&s)
		checkValidate(t, tc.name, s.Validate(), tc.errContains)
	}
}

func TestClampValidate(t *testing.T) {
	cases := []struct {
		name        string
		c           Clamp
		errContains string
	}{
		{"off", Clamp{}, ""},
		{"range", Clamp{Min: 1, Max: 5}, ""},
		{"zero-based range", Clamp{Min: 0, Max: 10}, ""},
		{"empty range is off", Clamp{Min: 3, Max: 3}, ""},
		{"inverted", Clamp{Min: 5, Max: 1}, "must not exceed"},
		{"inverted below zero", Clamp{Min: 0, Max: -1}, "must not exceed"},
	}
	for _, tc := range cases {
		checkValidate(t, tc.name, tc.c.Validate(), tc.errContains)
	}
}

func TestCheckpointValidate(t *testing.T) {
	cases := []struct {
		name        string
		c           Checkpoint
		errContains string
	}{
		{"off", Checkpoint{}, ""},
		{"full", Checkpoint{Dir: "/ckpt", Every: 5, ResumeIter: 10}, ""},
		{"negative every", Checkpoint{Every: -1}, "every must be >= 0"},
		{"negative resume", Checkpoint{ResumeIter: -2}, "resume-iter must be >= 0"},
		{"every without dir", Checkpoint{Every: 5}, "needs a checkpoint dir"},
		{"resume without dir", Checkpoint{ResumeIter: 3}, "needs a checkpoint dir"},
	}
	for _, tc := range cases {
		checkValidate(t, tc.name, tc.c.Validate(), tc.errContains)
	}
}

func TestFaultValidate(t *testing.T) {
	cases := []struct {
		name        string
		f           Fault
		wantEnabled bool
		errContains string
	}{
		{"disabled", Fault{DieRank: -1, DieIter: -1}, false, ""},
		{"enabled", Fault{DieRank: 1, DieIter: 3}, true, ""},
		{"rank without iter", Fault{DieRank: 1, DieIter: -1}, false, "both die-rank and die-iter"},
		{"iter without rank", Fault{DieRank: -1, DieIter: 3}, false, "both die-rank and die-iter"},
	}
	for _, tc := range cases {
		checkValidate(t, tc.name, tc.f.Validate(), tc.errContains)
		if tc.errContains == "" && tc.f.Enabled() != tc.wantEnabled {
			t.Errorf("%s: Enabled() = %v, want %v", tc.name, tc.f.Enabled(), tc.wantEnabled)
		}
	}
}

func TestTrainValidate(t *testing.T) {
	base := DefaultTrain()
	base.Data.Synthetic = "small"
	cases := []struct {
		name        string
		mut         func(*Train)
		errContains string
	}{
		{"valid", func(c *Train) {}, ""},
		{"engine alias", func(c *Train) { c.Engine = "tbb" }, ""},
		{"empty", func(c *Train) { *c = Train{} }, "need a data path"},
		{"no source", func(c *Train) { c.Data.Synthetic = "" }, "need a data path"},
		{"bad scale", func(c *Train) { c.Data.Scale = 0 }, "scale must be positive"},
		{"bad sampler", func(c *Train) { c.Sampler.Burnin = c.Sampler.Iters }, "less than iters"},
		{"unknown engine", func(c *Train) { c.Engine = "cuda" }, "unknown engine"},
		{"zero threads", func(c *Train) { c.Threads = 0 }, "threads must be >= 1"},
		{"zero ranks", func(c *Train) { c.Ranks = 0 }, "ranks must be >= 1"},
	}
	for _, tc := range cases {
		c := base
		tc.mut(&c)
		checkValidate(t, tc.name, c.Validate(), tc.errContains)
	}
}

func TestDistValidate(t *testing.T) {
	base := DefaultDist()
	base.Rank, base.Peers = 0, "127.0.0.1:9800,127.0.0.1:9801"
	cases := []struct {
		name        string
		mut         func(*Dist)
		errContains string
	}{
		{"valid worker", func(c *Dist) {}, ""},
		{"valid launch", func(c *Dist) { c.Launch, c.Rank, c.Peers = 4, -1, "" }, ""},
		{"valid elastic", func(c *Dist) {
			c.Elastic = true
			c.Checkpoint = Checkpoint{Dir: "/ckpt", Every: 2}
		}, ""},
		{"empty", func(c *Dist) { *c = Dist{} }, "scale must be positive"},
		{"no source", func(c *Dist) { c.Data.Synthetic = "" }, "need a data path"},
		{"bad sampler", func(c *Dist) { c.Sampler.K = 0 }, "k must be >= 1"},
		{"zero threads", func(c *Dist) { c.Threads = 0 }, "threads must be >= 1"},
		{"zero buffer", func(c *Dist) { c.Buffer = 0 }, "buffer must be non-zero"},
		{"negative buffer ok", func(c *Dist) { c.Buffer = -1 }, ""},
		{"bad checkpoint", func(c *Dist) { c.Checkpoint.Every = 3 }, "needs a checkpoint dir"},
		{"half fault", func(c *Dist) { c.Fault.DieRank = 1 }, "both die-rank and die-iter"},
		{"zero suspicion", func(c *Dist) { c.Suspicion = 0 }, "suspicion timeout"},
		{"elastic without ckpt", func(c *Dist) { c.Elastic = true }, "elastic needs a checkpoint dir"},
		{"launch bad baseport", func(c *Dist) { c.Launch, c.BasePort = 4, 65534 }, "consecutive rank ports"},
		{"worker no peers", func(c *Dist) { c.Peers = "" }, "worker mode needs"},
		{"worker bad peers", func(c *Dist) { c.Peers = "localhost" }, "host:port"},
		{"rank out of range", func(c *Dist) { c.Rank = 2 }, "outside the 2 addresses"},
		{"negative rank", func(c *Dist) { c.Rank = -1 }, "outside the 2 addresses"},
		{"valid joiner", func(c *Dist) {
			c.Rank, c.Peers = 0, ""
			c.Join, c.Advertise = "127.0.0.1:9890", "127.0.0.1:9802"
			c.Elastic = true
			c.Checkpoint = Checkpoint{Dir: "/ckpt", Every: 2}
		}, ""},
		{"join with launch", func(c *Dist) {
			c.Launch, c.Join, c.Advertise = 4, "127.0.0.1:9890", "127.0.0.1:9802"
			c.Elastic = true
			c.Checkpoint = Checkpoint{Dir: "/ckpt", Every: 2}
		}, "cannot be combined with -launch"},
		{"join bad addr", func(c *Dist) {
			c.Join, c.Advertise = "coordinator", "127.0.0.1:9802"
			c.Elastic = true
			c.Checkpoint = Checkpoint{Dir: "/ckpt", Every: 2}
		}, "not host:port"},
		{"join without advertise", func(c *Dist) {
			c.Join = "127.0.0.1:9890"
			c.Elastic = true
			c.Checkpoint = Checkpoint{Dir: "/ckpt", Every: 2}
		}, "needs -advertise"},
		{"join bad advertise", func(c *Dist) {
			c.Join, c.Advertise = "127.0.0.1:9890", "somewhere"
			c.Elastic = true
			c.Checkpoint = Checkpoint{Dir: "/ckpt", Every: 2}
		}, "not host:port"},
		{"join without elastic", func(c *Dist) {
			c.Join, c.Advertise = "127.0.0.1:9890", "127.0.0.1:9802"
		}, "-join needs -elastic"},
		{"valid join-addr", func(c *Dist) {
			c.JoinAddr = "127.0.0.1:9890"
			c.Elastic = true
			c.Checkpoint = Checkpoint{Dir: "/ckpt", Every: 2}
		}, ""},
		{"join-addr bad addr", func(c *Dist) {
			c.JoinAddr = "everywhere"
			c.Elastic = true
			c.Checkpoint = Checkpoint{Dir: "/ckpt", Every: 2}
		}, "not host:port"},
		{"join-addr without elastic", func(c *Dist) { c.JoinAddr = "127.0.0.1:9890" }, "join-addr needs -elastic"},
		{"zero min-ranks", func(c *Dist) { c.MinRanks = 0 }, "min-ranks must be >= 1"},
		{"max below min", func(c *Dist) { c.MinRanks, c.MaxRanks = 3, 2 }, "0 or >= min-ranks"},
		{"max below worker size", func(c *Dist) { c.MaxRanks = 1 }, "below the initial cluster size"},
		{"min above worker size", func(c *Dist) { c.MinRanks = 3 }, "exceeds the initial cluster size"},
		{"max below launch size", func(c *Dist) {
			c.Launch, c.Rank, c.Peers = 4, -1, ""
			c.MaxRanks = 3
		}, "below the launched cluster size"},
		{"min above launch size", func(c *Dist) {
			c.Launch, c.Rank, c.Peers = 4, -1, ""
			c.MinRanks = 5
		}, "exceeds the launched cluster size"},
		{"negative grow-at-iter", func(c *Dist) { c.Fault.GrowAtIter = -1 }, "grow-at-iter must be >= 0"},
		{"negative join-delay", func(c *Dist) { c.Fault.JoinDelay = -1 }, "join-delay must be >= 0"},
		{"negative iter-delay", func(c *Dist) { c.Fault.IterDelay = -1 }, "iter-delay must be >= 0"},
	}
	for _, tc := range cases {
		c := base
		tc.mut(&c)
		checkValidate(t, tc.name, c.Validate(), tc.errContains)
	}
}

func TestServeValidate(t *testing.T) {
	base := DefaultServe()
	base.Model.Ckpt = "model.ckpt"
	cases := []struct {
		name        string
		mut         func(*Serve)
		errContains string
	}{
		{"valid single", func(c *Serve) {}, ""},
		{"valid multi", func(c *Serve) {
			c.Model = DefaultServeModel()
			c.Models = map[string]ServeModel{
				"a": {Ckpt: "a.ckpt", Alpha: 2},
				"b": {Ckpt: "b.ckpt"}, // alpha defaulted by EffectiveModels
			}
		}, ""},
		{"empty", func(c *Serve) { *c = Serve{} }, "addr must not be empty"},
		{"no models", func(c *Serve) { c.Model.Ckpt = "" }, "need -ckpt"},
		{"negative threads", func(c *Serve) { c.Threads = -1 }, "threads must be >= 0"},
		{"negative watch", func(c *Serve) { c.Watch = Duration(-time.Second) }, "watch interval"},
		{"both forms", func(c *Serve) {
			c.Models = map[string]ServeModel{"a": {Ckpt: "a.ckpt", Alpha: 2}}
		}, "mutually exclusive"},
		{"bad model name", func(c *Serve) {
			c.Model = DefaultServeModel()
			c.Models = map[string]ServeModel{"a/b": {Ckpt: "a.ckpt", Alpha: 2}}
		}, "model name"},
		{"model without ckpt", func(c *Serve) {
			c.Model = DefaultServeModel()
			c.Models = map[string]ServeModel{"a": {Alpha: 2}}
		}, "needs a checkpoint path"},
		{"bad test frac", func(c *Serve) { c.Model.TestFrac = 1.5 }, "test fraction"},
		{"NaN test frac", func(c *Serve) { c.Model.TestFrac = math.NaN() }, "test fraction"},
		{"test frac without data", func(c *Serve) { c.Model.TestFrac = 0.2 }, "needs a data path"},
		{"bad alpha", func(c *Serve) { c.Model.Alpha = 0 }, "alpha must be positive"},
		{"inverted clamp", func(c *Serve) { c.Model.Clamp = Clamp{Min: 5, Max: 1} }, "must not exceed"},
		{"bad lineage k", func(c *Serve) { c.Model.Lineage = &Lineage{Seed: 1, K: -1} }, "lineage k"},
		{"negative queue bound", func(c *Serve) { c.Serving.QueueBound = -1 }, "queue bound"},
		{"negative rate", func(c *Serve) { c.Serving.Rate = -1 }, "rate must be >= 0"},
		{"negative burst", func(c *Serve) { c.Serving.Burst = -1 }, "burst must be >= 0"},
		{"negative retry-after", func(c *Serve) { c.Serving.RetryAfter = Duration(-time.Second) }, "retry-after"},
	}
	for _, tc := range cases {
		c := base
		tc.mut(&c)
		checkValidate(t, tc.name, c.Validate(), tc.errContains)
	}
}

// TestServeEffectiveModels pins the single-model synthesis (a one-entry
// registry named "default") and the per-entry alpha defaulting.
func TestServeEffectiveModels(t *testing.T) {
	c := DefaultServe()
	c.Model.Ckpt = "m.ckpt"
	models, err := c.EffectiveModels()
	if err != nil {
		t.Fatal(err)
	}
	if len(models) != 1 || models["default"].Ckpt != "m.ckpt" {
		t.Fatalf("single-model synthesis = %+v, want one entry named default", models)
	}

	c = DefaultServe()
	c.Models = map[string]ServeModel{"a": {Ckpt: "a.ckpt"}, "b": {Ckpt: "b.ckpt", Alpha: 4}}
	models, err = c.EffectiveModels()
	if err != nil {
		t.Fatal(err)
	}
	if models["a"].Alpha != DefaultServeModel().Alpha {
		t.Errorf("entry a alpha = %g, want the per-model default %g", models["a"].Alpha, DefaultServeModel().Alpha)
	}
	if models["b"].Alpha != 4 {
		t.Errorf("entry b alpha = %g, want its explicit 4", models["b"].Alpha)
	}
}

func TestDatagenValidate(t *testing.T) {
	cases := []struct {
		name        string
		mut         func(*Datagen)
		errContains string
	}{
		{"valid", func(c *Datagen) {}, ""},
		{"empty", func(c *Datagen) { *c = Datagen{} }, "unknown synthetic"},
		{"unknown spec", func(c *Datagen) { c.Spec = "nope" }, "unknown synthetic"},
		{"zero scale", func(c *Datagen) { c.Scale = 0 }, "scale must be positive"},
		{"negative shard-nnz", func(c *Datagen) { c.ShardNNZ = -1 }, "shard-nnz"},
	}
	for _, tc := range cases {
		c := DefaultDatagen()
		tc.mut(&c)
		checkValidate(t, tc.name, c.Validate(), tc.errContains)
	}
}

func TestExperimentsValidate(t *testing.T) {
	cases := []struct {
		name        string
		mut         func(*Experiments)
		errContains string
	}{
		{"valid", func(c *Experiments) {}, ""},
		{"valid fig", func(c *Experiments) { c.Fig = 3 }, ""},
		{"empty", func(c *Experiments) { *c = Experiments{} }, "scale must be positive"},
		{"fig too small", func(c *Experiments) { c.Fig = 1 }, "fig must be 2..5"},
		{"fig too large", func(c *Experiments) { c.Fig = 6 }, "fig must be 2..5"},
		{"zero scale", func(c *Experiments) { c.Scale = 0 }, "scale must be positive"},
	}
	for _, tc := range cases {
		c := DefaultExperiments()
		tc.mut(&c)
		checkValidate(t, tc.name, c.Validate(), tc.errContains)
	}
}

func TestCanonicalEngine(t *testing.T) {
	cases := map[string]string{
		"sequential": "sequential", "seq": "sequential",
		"worksteal": "worksteal", "TBB": "worksteal",
		"static": "static", "openmp": "static",
		"graphlab":    "graphlab",
		"Distributed": "distributed", "dist": "distributed", "mpi": "distributed",
		"cuda": "", "": "",
	}
	for in, want := range cases {
		if got := CanonicalEngine(in); got != want {
			t.Errorf("CanonicalEngine(%q) = %q, want %q", in, got, want)
		}
	}
}

// TestDurationJSON pins the two accepted JSON forms ("3s" strings and
// raw nanosecond numbers) and the rejection of anything else.
func TestDurationJSON(t *testing.T) {
	var d Duration
	if err := json.Unmarshal([]byte(`"1.5s"`), &d); err != nil || d.Std() != 1500*time.Millisecond {
		t.Errorf(`"1.5s" -> %v, %v`, d, err)
	}
	if err := json.Unmarshal([]byte(`2000000000`), &d); err != nil || d.Std() != 2*time.Second {
		t.Errorf("2e9 ns -> %v, %v", d, err)
	}
	if err := json.Unmarshal([]byte(`"fast"`), &d); err == nil {
		t.Error(`"fast" accepted as a duration`)
	}
	if err := json.Unmarshal([]byte(`true`), &d); err == nil {
		t.Error("true accepted as a duration")
	}
	out, err := json.Marshal(Duration(3 * time.Second))
	if err != nil || string(out) != `"3s"` {
		t.Errorf("marshal = %s, %v", out, err)
	}
}
