// Package load is a k6-style load scheduler for the serving stack: a
// pool of virtual users (VUs) drives an arbitrary request function in
// either a closed loop (each VU issues requests back-to-back, measuring
// capacity) or an open loop (requests arrive at a fixed rate regardless
// of completions, measuring latency under a chosen offered load), with
// a warmup cut and a percentile summary.
//
// The scheduler is transport-agnostic: callers supply a RequestFunc and
// get back latency percentiles, throughput, a status histogram and
// shed accounting. cmd/bpmf-load wires it to a bpmf-serve registry;
// examples/serving drives an in-process Batcher with it.
package load

import (
	"context"
	"errors"
	"fmt"
	"sort"
	"strings"
	"sync"
	"time"
)

// Config schedules one load run.
type Config struct {
	// Mode is "closed" (VUs back-to-back) or "open" (fixed arrival
	// rate; arrivals that find every VU busy are dropped and counted).
	Mode string
	// VUs is the virtual-user count (max concurrency).
	VUs int
	// Rate is the open-loop arrival rate in requests/second.
	Rate float64
	// Duration is the measured window.
	Duration time.Duration
	// Warmup runs before the measured window; its samples are
	// discarded.
	Warmup time.Duration
}

// Validate checks the schedule.
func (c Config) Validate() error {
	if c.Mode != "closed" && c.Mode != "open" {
		return fmt.Errorf("load: mode must be \"closed\" or \"open\", got %q", c.Mode)
	}
	if c.VUs < 1 {
		return fmt.Errorf("load: vus must be >= 1, got %d", c.VUs)
	}
	if c.Mode == "open" && c.Rate <= 0 {
		return fmt.Errorf("load: open mode needs a positive rate, got %g", c.Rate)
	}
	if c.Duration <= 0 {
		return fmt.Errorf("load: duration must be positive, got %s", c.Duration)
	}
	if c.Warmup < 0 {
		return fmt.Errorf("load: warmup must be >= 0, got %s", c.Warmup)
	}
	return nil
}

// Response is what a RequestFunc reports about one completed request.
type Response struct {
	// Status is the HTTP-shaped status code (200 = served; 429/503 =
	// shed by admission control; in-process drivers synthesize these).
	Status int
	// RetryAfter records whether a shed response carried a Retry-After
	// hint.
	RetryAfter bool
}

// RequestFunc issues one request. vu identifies the virtual user
// (0..VUs-1) and seq counts that VU's requests, so implementations can
// derive deterministic per-request mixes without shared state. A
// returned error counts as a transport failure (no status).
type RequestFunc func(ctx context.Context, vu, seq int) (Response, error)

// Result summarizes the measured window of a run.
type Result struct {
	// Completed counts requests that finished inside the measured
	// window (any status).
	Completed int
	// Dropped counts open-loop arrivals discarded because every VU was
	// busy — the offered load exceeded capacity.
	Dropped int
	// Errors counts transport failures (RequestFunc returned an error).
	Errors int
	// Status histograms the completed requests by status code.
	Status map[int]int
	// Shed counts 429 and 503 responses; ShedNoRetryAfter counts those
	// missing the Retry-After hint (should stay 0).
	Shed             int
	ShedNoRetryAfter int
	// P50, P90 and P99 are latency percentiles over completed requests.
	P50, P90, P99 time.Duration
	// Throughput is completed requests per second of measured window.
	Throughput float64
	// Elapsed is the measured window's actual length.
	Elapsed time.Duration
}

// OK counts completed 2xx responses.
func (r *Result) OK() int {
	n := 0
	for code, c := range r.Status {
		if code >= 200 && code < 300 {
			n += c
		}
	}
	return n
}

// Err5xx counts completed responses with 5xx statuses other than the
// 503 shed (a shed is the SLO working, not a server error).
func (r *Result) Err5xx() int {
	n := 0
	for code, c := range r.Status {
		if code >= 500 && code != 503 {
			n += c
		}
	}
	return n
}

// sample is one completed request.
type sample struct {
	at      time.Duration // completion time since run start
	latency time.Duration
	resp    Response
	err     error
}

// Run executes the schedule against fn and summarizes the measured
// window. It returns early (with whatever was measured) when ctx is
// cancelled.
func Run(ctx context.Context, cfg Config, fn RequestFunc) (*Result, error) {
	if err := cfg.Validate(); err != nil {
		return nil, err
	}
	total := cfg.Warmup + cfg.Duration
	runCtx, cancel := context.WithTimeout(ctx, total)
	defer cancel()
	start := time.Now()

	var (
		mu      sync.Mutex
		samples []sample
		dropped int
	)
	record := func(s sample) {
		mu.Lock()
		samples = append(samples, s)
		mu.Unlock()
	}

	var wg sync.WaitGroup
	if cfg.Mode == "closed" {
		for vu := 0; vu < cfg.VUs; vu++ {
			wg.Add(1)
			go func(vu int) {
				defer wg.Done()
				for seq := 0; runCtx.Err() == nil; seq++ {
					t0 := time.Now()
					resp, err := fn(runCtx, vu, seq)
					if runCtx.Err() != nil && err != nil {
						return // cancelled mid-request, not a failure
					}
					record(sample{at: time.Since(start), latency: time.Since(t0), resp: resp, err: err})
				}
			}(vu)
		}
	} else {
		// Open loop: a central scheduler emits arrivals at the
		// configured rate; idle VUs pick them up. An arrival that finds
		// no idle VU is dropped immediately (k6's "open model") rather
		// than queued, so the offered rate is honored.
		arrivals := make(chan struct{})
		for vu := 0; vu < cfg.VUs; vu++ {
			wg.Add(1)
			go func(vu int) {
				defer wg.Done()
				for seq := 0; ; seq++ {
					select {
					case <-runCtx.Done():
						return
					case <-arrivals:
					}
					t0 := time.Now()
					resp, err := fn(runCtx, vu, seq)
					if runCtx.Err() != nil && err != nil {
						return
					}
					record(sample{at: time.Since(start), latency: time.Since(t0), resp: resp, err: err})
				}
			}(vu)
		}
		wg.Add(1)
		go func() {
			defer wg.Done()
			interval := time.Duration(float64(time.Second) / cfg.Rate)
			if interval <= 0 {
				interval = time.Nanosecond
			}
			tick := time.NewTicker(interval)
			defer tick.Stop()
			for {
				select {
				case <-runCtx.Done():
					return
				case <-tick.C:
					select {
					case arrivals <- struct{}{}:
					default:
						mu.Lock()
						dropped++
						mu.Unlock()
					}
				}
			}
		}()
	}
	wg.Wait()
	elapsed := time.Since(start)

	res := &Result{Status: make(map[int]int), Dropped: dropped}
	res.Elapsed = elapsed - cfg.Warmup
	if res.Elapsed <= 0 {
		res.Elapsed = elapsed
	}
	var lats []time.Duration
	for _, s := range samples {
		if s.at < cfg.Warmup {
			continue
		}
		res.Completed++
		if s.err != nil {
			res.Errors++
			continue
		}
		res.Status[s.resp.Status]++
		if s.resp.Status == 429 || s.resp.Status == 503 {
			res.Shed++
			if !s.resp.RetryAfter {
				res.ShedNoRetryAfter++
			}
		}
		lats = append(lats, s.latency)
	}
	if len(lats) > 0 {
		sort.Slice(lats, func(i, j int) bool { return lats[i] < lats[j] })
		res.P50 = percentile(lats, 0.50)
		res.P90 = percentile(lats, 0.90)
		res.P99 = percentile(lats, 0.99)
	}
	res.Throughput = float64(res.Completed) / res.Elapsed.Seconds()
	if ctx.Err() != nil && !errors.Is(ctx.Err(), context.DeadlineExceeded) {
		return res, ctx.Err()
	}
	return res, nil
}

// percentile returns the nearest-rank percentile of sorted latencies.
func percentile(sorted []time.Duration, q float64) time.Duration {
	if len(sorted) == 0 {
		return 0
	}
	idx := int(q*float64(len(sorted))+0.5) - 1
	if idx < 0 {
		idx = 0
	}
	if idx >= len(sorted) {
		idx = len(sorted) - 1
	}
	return sorted[idx]
}

// Summary renders the greppable one-run report cmd/bpmf-load prints.
func (r *Result) Summary(label string) string {
	var sb strings.Builder
	fmt.Fprintf(&sb, "%s: completed=%d ok=%d err5xx=%d shed=%d shed_without_retry_after=%d dropped=%d errors=%d\n",
		label, r.Completed, r.OK(), r.Err5xx(), r.Shed, r.ShedNoRetryAfter, r.Dropped, r.Errors)
	fmt.Fprintf(&sb, "%s: p50=%s p90=%s p99=%s throughput=%.1f req/s over %s\n",
		label, r.P50, r.P90, r.P99, r.Throughput, r.Elapsed.Round(time.Millisecond))
	return sb.String()
}
