package config

import (
	"flag"
	"fmt"
	"time"
)

// Load configures cmd/bpmf-load: a k6-style open/closed-loop generator
// driving a bpmf-serve registry and reporting latency percentiles and
// throughput.
type Load struct {
	// URL is the base address of the server under test (required),
	// e.g. http://127.0.0.1:8080.
	URL string `json:"url,omitempty"`
	// Model is the registry route to drive ("" = discover the first
	// model from /healthz).
	Model string `json:"model,omitempty"`
	// Mode selects the scheduler: "closed" (VUs issue requests
	// back-to-back — measures capacity) or "open" (requests arrive at
	// Rate regardless of completions — measures latency under a fixed
	// offered load; arrivals finding every VU busy are dropped and
	// counted).
	Mode string `json:"mode,omitempty"`
	// VUs is the number of virtual users (max concurrency).
	VUs int `json:"vus,omitempty"`
	// Rate is the open-loop arrival rate in requests/second (open mode
	// only).
	Rate float64 `json:"rate,omitempty"`
	// Duration is the measured run length (after warmup).
	Duration Duration `json:"duration,omitempty"`
	// Warmup is cut from the front of the run before any statistics.
	Warmup Duration `json:"warmup,omitempty"`
	// N is the /recommend list length.
	N int `json:"n,omitempty"`
	// PredictFrac is the fraction of requests that hit /predict instead
	// of /recommend (0 = all recommends, 1 = all predicts).
	PredictFrac float64 `json:"predict_frac,omitempty"`
	// Users and Items bound the sampled ids (0 = discover from
	// /healthz).
	Users int `json:"users,omitempty"`
	Items int `json:"items,omitempty"`
	// Seed drives the request mix.
	Seed uint64 `json:"seed,omitempty"`
	// Timeout bounds each request.
	Timeout Duration `json:"timeout,omitempty"`
}

// DefaultLoad returns cmd/bpmf-load's defaults: a short closed-loop
// run with 8 VUs and a 2s measurement window.
func DefaultLoad() Load {
	return Load{
		Mode:        "closed",
		VUs:         8,
		Rate:        100,
		Duration:    Duration(2 * time.Second),
		Warmup:      Duration(200 * time.Millisecond),
		N:           10,
		PredictFrac: 0.5,
		Seed:        42,
		Timeout:     Duration(10 * time.Second),
	}
}

// RegisterFlags declares cmd/bpmf-load's flag surface over the struct's
// current values.
func (c *Load) RegisterFlags(fs *flag.FlagSet) {
	fs.StringVar(&c.URL, "url", c.URL, "base URL of the bpmf-serve instance under test (required)")
	fs.StringVar(&c.Model, "model", c.Model, "registry model to drive (empty = discover the first model from /healthz)")
	fs.StringVar(&c.Mode, "mode", c.Mode, "scheduler: closed (VUs back-to-back) or open (fixed arrival -rate)")
	fs.IntVar(&c.VUs, "vus", c.VUs, "virtual users (max concurrency)")
	fs.Float64Var(&c.Rate, "rate", c.Rate, "open-loop arrival rate in req/s (open mode)")
	fs.Var(&c.Duration, "duration", "measured run length (after warmup)")
	fs.Var(&c.Warmup, "warmup", "cut from the front of the run before statistics")
	fs.IntVar(&c.N, "n", c.N, "/recommend list length")
	fs.Float64Var(&c.PredictFrac, "predict-frac", c.PredictFrac, "fraction of requests hitting /predict instead of /recommend")
	fs.IntVar(&c.Users, "users", c.Users, "user id bound for sampled requests (0 = discover from /healthz)")
	fs.IntVar(&c.Items, "items", c.Items, "item id bound for sampled requests (0 = discover from /healthz)")
	fs.Uint64Var(&c.Seed, "seed", c.Seed, "random seed for the request mix")
	fs.Var(&c.Timeout, "timeout", "per-request timeout")
}

// Validate checks the merged configuration.
func (c Load) Validate() error {
	if c.URL == "" {
		return fmt.Errorf("config: need -url of the server under test")
	}
	if c.Mode != "closed" && c.Mode != "open" {
		return fmt.Errorf("config: mode must be \"closed\" or \"open\", got %q", c.Mode)
	}
	if c.VUs < 1 {
		return fmt.Errorf("config: vus must be >= 1, got %d", c.VUs)
	}
	if c.Mode == "open" && c.Rate <= 0 {
		return fmt.Errorf("config: open mode needs a positive arrival -rate, got %g", c.Rate)
	}
	if c.Duration <= 0 {
		return fmt.Errorf("config: duration must be positive, got %s", c.Duration)
	}
	if c.Warmup < 0 {
		return fmt.Errorf("config: warmup must be >= 0, got %s", c.Warmup)
	}
	if c.N < 1 {
		return fmt.Errorf("config: n must be >= 1, got %d", c.N)
	}
	if c.PredictFrac < 0 || c.PredictFrac > 1 {
		return fmt.Errorf("config: predict-frac must be in [0, 1], got %g", c.PredictFrac)
	}
	if c.Users < 0 || c.Items < 0 {
		return fmt.Errorf("config: users and items must be >= 0 (0 = discover), got %d/%d", c.Users, c.Items)
	}
	if c.Timeout <= 0 {
		return fmt.Errorf("config: timeout must be positive, got %s", c.Timeout)
	}
	return nil
}
