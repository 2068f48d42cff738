package main

import (
	"context"
	"net/http"
	"net/http/httptest"
	"strings"
	"sync/atomic"
	"testing"
	"time"

	"repro/internal/config"
)

// fakeServe mimics the slice of the bpmf-serve surface the harness
// touches: /healthz discovery plus the /v1/<model>/... data plane.
func fakeServe(t *testing.T, hits *atomic.Int64, shedEvery int64) *httptest.Server {
	t.Helper()
	mux := http.NewServeMux()
	mux.HandleFunc("/healthz", func(w http.ResponseWriter, r *http.Request) {
		w.Header().Set("Content-Type", "application/json")
		_, _ = w.Write([]byte(`{"ready":true,"models":{"movies":{"users":50,"items":200,"k":8,"ready":true},"drugs":{"users":10,"items":30,"k":4,"ready":true}}}`))
	})
	data := func(w http.ResponseWriter, r *http.Request) {
		n := hits.Add(1)
		if shedEvery > 0 && n%shedEvery == 0 {
			w.Header().Set("Retry-After", "1")
			w.WriteHeader(http.StatusTooManyRequests)
			_, _ = w.Write([]byte(`{"error":"rate limited"}`))
			return
		}
		w.Header().Set("Content-Type", "application/json")
		_, _ = w.Write([]byte(`{"items":[]}`))
	}
	mux.HandleFunc("/v1/{model}/predict", data)
	mux.HandleFunc("/v1/{model}/recommend", data)
	return httptest.NewServer(mux)
}

func testLoadConfig(url string) config.Load {
	cfg := config.DefaultLoad()
	cfg.URL = url
	cfg.VUs = 2
	cfg.Duration = config.Duration(200 * time.Millisecond)
	cfg.Warmup = config.Duration(20 * time.Millisecond)
	return cfg
}

// TestRunDiscoversAndSummarizes drives a closed loop against the fake
// registry: the target model is discovered from /healthz (first sorted
// name), requests complete, and the summary carries the greppable
// err5xx/shed fields.
func TestRunDiscoversAndSummarizes(t *testing.T) {
	var hits atomic.Int64
	ts := fakeServe(t, &hits, 0)
	defer ts.Close()

	cfg := testLoadConfig(ts.URL)
	var out strings.Builder
	if err := run(context.Background(), cfg, &out); err != nil {
		t.Fatal(err)
	}
	got := out.String()
	// "drugs" sorts before "movies": discovery picks it.
	for _, want := range []string{"drugs/closed/vus=2", "err5xx=0", "shed=0", "req/s"} {
		if !strings.Contains(got, want) {
			t.Errorf("output missing %q:\n%s", want, got)
		}
	}
	if hits.Load() == 0 {
		t.Fatal("no requests reached the server")
	}
}

// TestRunExplicitModelAndShedAccounting pins -model selection and the
// Retry-After bookkeeping: a server shedding every 3rd request with the
// hint present must show shed>0 but shed_without_retry_after=0.
func TestRunExplicitModelAndShedAccounting(t *testing.T) {
	var hits atomic.Int64
	ts := fakeServe(t, &hits, 3)
	defer ts.Close()

	cfg := testLoadConfig(ts.URL)
	cfg.Model = "movies"
	var out strings.Builder
	if err := run(context.Background(), cfg, &out); err != nil {
		t.Fatal(err)
	}
	got := out.String()
	if !strings.Contains(got, "movies/closed/vus=2") {
		t.Errorf("explicit -model not honored:\n%s", got)
	}
	if strings.Contains(got, "shed=0 ") {
		t.Errorf("expected sheds in summary:\n%s", got)
	}
	if !strings.Contains(got, "shed_without_retry_after=0") {
		t.Errorf("sheds with Retry-After miscounted:\n%s", got)
	}
}

// TestRunOpenLoop exercises the open scheduler end-to-end at a modest
// offered rate.
func TestRunOpenLoop(t *testing.T) {
	var hits atomic.Int64
	ts := fakeServe(t, &hits, 0)
	defer ts.Close()

	cfg := testLoadConfig(ts.URL)
	cfg.Mode = "open"
	cfg.Rate = 200
	var out strings.Builder
	if err := run(context.Background(), cfg, &out); err != nil {
		t.Fatal(err)
	}
	if !strings.Contains(out.String(), "drugs/open/vus=2") {
		t.Errorf("open-loop summary missing:\n%s", out.String())
	}
}

// TestRunFailsWhenNothingCompletes pins the CI contract: a dead target
// is a hard error, not an empty success.
func TestRunFailsWhenNothingCompletes(t *testing.T) {
	cfg := testLoadConfig("http://127.0.0.1:1")
	cfg.Model = "movies"
	cfg.Users, cfg.Items = 10, 10 // skip discovery; fail in the run itself
	cfg.Duration = config.Duration(50 * time.Millisecond)
	cfg.Warmup = 0
	cfg.Timeout = config.Duration(20 * time.Millisecond)
	var out strings.Builder
	err := run(context.Background(), cfg, &out)
	if err == nil || !strings.Contains(err.Error(), "no requests completed") {
		t.Fatalf("dead target: err = %v", err)
	}
}

// TestDiscoverUnknownModel pins the self-diagnosing error.
func TestDiscoverUnknownModel(t *testing.T) {
	var hits atomic.Int64
	ts := fakeServe(t, &hits, 0)
	defer ts.Close()
	_, _, _, err := discover(context.Background(), ts.URL, "nope")
	if err == nil || !strings.Contains(err.Error(), `"nope" not registered`) {
		t.Fatalf("unknown model: err = %v", err)
	}
	model, users, items, err := discover(context.Background(), ts.URL, "movies")
	if err != nil || model != "movies" || users != 50 || items != 200 {
		t.Fatalf("explicit discovery = %q %d %d (%v)", model, users, items, err)
	}
}
