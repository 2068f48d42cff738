package load

import (
	"context"
	"errors"
	"strings"
	"testing"
	"time"
)

func TestClosedLoopMeasures(t *testing.T) {
	cfg := Config{Mode: "closed", VUs: 4, Duration: 300 * time.Millisecond, Warmup: 50 * time.Millisecond}
	fn := func(ctx context.Context, vu, seq int) (Response, error) {
		time.Sleep(time.Millisecond)
		return Response{Status: 200}, nil
	}
	res, err := Run(context.Background(), cfg, fn)
	if err != nil {
		t.Fatal(err)
	}
	if res.Completed == 0 || res.OK() == 0 {
		t.Fatalf("no completions: %+v", res)
	}
	if res.Throughput <= 0 {
		t.Fatalf("throughput %g, want > 0", res.Throughput)
	}
	if res.P50 < time.Millisecond {
		t.Fatalf("p50 %s below the request's own sleep", res.P50)
	}
	if res.P50 > res.P90 || res.P90 > res.P99 {
		t.Fatalf("percentiles out of order: %s %s %s", res.P50, res.P90, res.P99)
	}
	if res.Err5xx() != 0 || res.Shed != 0 {
		t.Fatalf("unexpected failures: %+v", res)
	}
}

// TestOpenLoopDropsWhenSaturated pins the open-model contract: with one
// VU stuck in slow requests and a fast arrival rate, excess arrivals
// are dropped (offered load honored), not queued behind the VU.
func TestOpenLoopDropsWhenSaturated(t *testing.T) {
	cfg := Config{Mode: "open", VUs: 1, Rate: 500, Duration: 300 * time.Millisecond}
	fn := func(ctx context.Context, vu, seq int) (Response, error) {
		time.Sleep(20 * time.Millisecond)
		return Response{Status: 200}, nil
	}
	res, err := Run(context.Background(), cfg, fn)
	if err != nil {
		t.Fatal(err)
	}
	if res.Dropped == 0 {
		t.Fatalf("saturated open loop dropped nothing: %+v", res)
	}
	if res.Completed == 0 {
		t.Fatalf("no completions: %+v", res)
	}
}

func TestShedAccounting(t *testing.T) {
	cfg := Config{Mode: "closed", VUs: 2, Duration: 100 * time.Millisecond}
	fn := func(ctx context.Context, vu, seq int) (Response, error) {
		switch seq % 4 {
		case 0:
			return Response{Status: 429, RetryAfter: true}, nil
		case 1:
			return Response{Status: 503}, nil // missing Retry-After
		case 2:
			return Response{}, errors.New("connection refused")
		default:
			return Response{Status: 200}, nil
		}
	}
	res, err := Run(context.Background(), cfg, fn)
	if err != nil {
		t.Fatal(err)
	}
	if res.Shed == 0 || res.ShedNoRetryAfter == 0 || res.Errors == 0 {
		t.Fatalf("shed/error accounting missed: %+v", res)
	}
	if res.Err5xx() != 0 {
		t.Fatalf("503 sheds must not count as 5xx errors: %+v", res)
	}
	if res.Status[429] == 0 || res.Status[503] == 0 || res.Status[200] == 0 {
		t.Fatalf("status histogram incomplete: %+v", res.Status)
	}
}

func TestConfigValidate(t *testing.T) {
	base := Config{Mode: "closed", VUs: 1, Rate: 10, Duration: time.Second}
	cases := []struct {
		name string
		mut  func(*Config)
		want string
	}{
		{"bad mode", func(c *Config) { c.Mode = "spike" }, "mode"},
		{"zero vus", func(c *Config) { c.VUs = 0 }, "vus"},
		{"open no rate", func(c *Config) { c.Mode = "open"; c.Rate = 0 }, "rate"},
		{"zero duration", func(c *Config) { c.Duration = 0 }, "duration"},
		{"negative warmup", func(c *Config) { c.Warmup = -time.Second }, "warmup"},
	}
	if err := base.Validate(); err != nil {
		t.Fatalf("base config invalid: %v", err)
	}
	for _, tc := range cases {
		c := base
		tc.mut(&c)
		err := c.Validate()
		if err == nil || !strings.Contains(err.Error(), tc.want) {
			t.Errorf("%s: error %v does not mention %q", tc.name, err, tc.want)
		}
	}
}

func TestPercentileNearestRank(t *testing.T) {
	lats := []time.Duration{1, 2, 3, 4, 5, 6, 7, 8, 9, 10}
	if p := percentile(lats, 0.50); p != 5 {
		t.Errorf("p50 = %d, want 5", p)
	}
	if p := percentile(lats, 0.99); p != 10 {
		t.Errorf("p99 = %d, want 10", p)
	}
	if p := percentile(lats[:1], 0.99); p != 1 {
		t.Errorf("single-sample p99 = %d, want 1", p)
	}
	if p := percentile(nil, 0.5); p != 0 {
		t.Errorf("empty p50 = %d, want 0", p)
	}
}

// TestSummary pins the output contract: the summary is greppable
// (err5xx=, shed=, shed_without_retry_after=).
func TestSummary(t *testing.T) {
	res := &Result{
		Completed: 100, Shed: 3, ShedNoRetryAfter: 1,
		Status:     map[int]int{200: 95, 429: 2, 503: 1, 500: 2},
		P50:        2 * time.Millisecond,
		P90:        5 * time.Millisecond,
		P99:        9 * time.Millisecond,
		Throughput: 123.4,
		Elapsed:    time.Second,
	}
	sum := res.Summary("closed/vus=8")
	for _, want := range []string{"completed=100", "ok=95", "err5xx=2", "shed=3", "shed_without_retry_after=1", "p50=2ms", "throughput=123.4"} {
		if !strings.Contains(sum, want) {
			t.Errorf("summary missing %q:\n%s", want, sum)
		}
	}
}
