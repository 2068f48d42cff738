// Command bpmf-load is the serving load harness: a k6-style open- or
// closed-loop generator that drives a bpmf-serve registry with a mixed
// /predict + /recommend workload and reports latency percentiles,
// throughput and shed accounting.
//
// Closed loop (VUs issue requests back-to-back; measures capacity):
//
//	bpmf-load -url http://127.0.0.1:8080 -vus 8 -duration 5s
//
// Open loop (fixed arrival rate; measures latency at an offered load;
// arrivals beyond capacity are dropped and counted):
//
//	bpmf-load -url http://127.0.0.1:8080 -mode open -rate 500 -vus 32 -duration 5s
//
// The target model and its user/item id bounds are discovered from
// /healthz unless given explicitly.
//
// The summary is greppable: `err5xx=0` means no server errors (503
// sheds are the SLO working, not errors), `shed_without_retry_after=0`
// means every shed carried its back-off hint.
package main

import (
	"context"
	"encoding/json"
	"flag"
	"fmt"
	"io"
	"log"
	"net/http"
	"net/url"
	"os"
	"sort"
	"strings"

	"repro/internal/config"
	"repro/internal/load"
	"repro/internal/rng"
)

func main() {
	log.SetFlags(0)
	log.SetPrefix("bpmf-load: ")
	cfg := config.DefaultLoad()
	if err := config.Parse(flag.CommandLine, os.Args[1:], &cfg); err != nil {
		log.Fatal(err)
	}
	if err := run(context.Background(), cfg, os.Stdout); err != nil {
		log.Fatal(err)
	}
}

// run executes one load schedule against the configured server and
// writes the summary to out.
func run(ctx context.Context, cfg config.Load, out io.Writer) error {
	base := strings.TrimSuffix(cfg.URL, "/")
	model, users, items := cfg.Model, cfg.Users, cfg.Items
	if model == "" || users == 0 || items == 0 {
		dm, du, di, err := discover(ctx, base, cfg.Model)
		if err != nil {
			return fmt.Errorf("discovering the target model from /healthz: %w (give -model/-users/-items explicitly to skip discovery)", err)
		}
		if model == "" {
			model = dm
		}
		if users == 0 {
			users = du
		}
		if items == 0 {
			items = di
		}
	}
	if users < 1 || items < 1 {
		return fmt.Errorf("model %q reports %d users x %d items; nothing to query", model, users, items)
	}

	client := &http.Client{Timeout: cfg.Timeout.Std()}
	// Per-VU request streams: a VU's requests run sequentially, so one
	// unshared generator per VU gives a deterministic mix without locks.
	streams := make([]*rng.Stream, cfg.VUs)
	for vu := range streams {
		streams[vu] = rng.New(cfg.Seed + uint64(vu)*1_000_003)
	}
	fn := func(ctx context.Context, vu, seq int) (load.Response, error) {
		stream := streams[vu]
		var target string
		if stream.Float64() < cfg.PredictFrac {
			target = fmt.Sprintf("%s/v1/%s/predict?user=%d&item=%d",
				base, url.PathEscape(model), stream.Intn(users), stream.Intn(items))
		} else {
			target = fmt.Sprintf("%s/v1/%s/recommend?user=%d&n=%d",
				base, url.PathEscape(model), stream.Intn(users), cfg.N)
		}
		req, err := http.NewRequestWithContext(ctx, http.MethodGet, target, nil)
		if err != nil {
			return load.Response{}, err
		}
		resp, err := client.Do(req)
		if err != nil {
			return load.Response{}, err
		}
		_, _ = io.Copy(io.Discard, resp.Body)
		resp.Body.Close()
		return load.Response{
			Status:     resp.StatusCode,
			RetryAfter: resp.Header.Get("Retry-After") != "",
		}, nil
	}

	sched := load.Config{
		Mode:     cfg.Mode,
		VUs:      cfg.VUs,
		Rate:     cfg.Rate,
		Duration: cfg.Duration.Std(),
		Warmup:   cfg.Warmup.Std(),
	}
	res, err := load.Run(ctx, sched, fn)
	if err != nil {
		return err
	}
	label := fmt.Sprintf("%s/%s/vus=%d", model, cfg.Mode, cfg.VUs)
	fmt.Fprint(out, res.Summary(label))
	if res.Completed-res.Errors == 0 {
		return fmt.Errorf("no requests completed against %s (model %q)", base, model)
	}
	return nil
}

// healthzModel is the per-model slice of bpmf-serve's /healthz body
// this command needs.
type healthzModel struct {
	Users int `json:"users"`
	Items int `json:"items"`
}

// discover asks /healthz for the target model and its id bounds. With
// want == "" the first registered model (sorted by name) is chosen.
func discover(ctx context.Context, base, want string) (model string, users, items int, err error) {
	req, err := http.NewRequestWithContext(ctx, http.MethodGet, base+"/healthz", nil)
	if err != nil {
		return "", 0, 0, err
	}
	resp, err := http.DefaultClient.Do(req)
	if err != nil {
		return "", 0, 0, err
	}
	defer resp.Body.Close()
	if resp.StatusCode != http.StatusOK {
		return "", 0, 0, fmt.Errorf("healthz returned %s", resp.Status)
	}
	var body struct {
		Models map[string]healthzModel `json:"models"`
	}
	if err := json.NewDecoder(resp.Body).Decode(&body); err != nil {
		return "", 0, 0, err
	}
	if len(body.Models) == 0 {
		return "", 0, 0, fmt.Errorf("healthz reports no models")
	}
	names := make([]string, 0, len(body.Models))
	for name := range body.Models {
		names = append(names, name)
	}
	sort.Strings(names)
	if want == "" {
		want = names[0]
	}
	m, ok := body.Models[want]
	if !ok {
		return "", 0, 0, fmt.Errorf("model %q not registered (have: %s)", want, strings.Join(names, ", "))
	}
	return want, m.Users, m.Items, nil
}
