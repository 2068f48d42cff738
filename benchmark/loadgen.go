package main

import (
	"bytes"
	"encoding/json"
	"fmt"
	"io"
	"math"
	"net/http"
	"sort"
	"sync"
	"sync/atomic"
	"syscall"
	"time"

	"repro/internal/rng"
	"repro/internal/serve"
	"repro/internal/sparse"
)

type route int8

const (
	routePredict route = iota
	routeRecommend
	routeFoldin
	numRoutes
)

var routeNames = [numRoutes]string{"predict", "recommend", "foldin"}

// request is one precomputed operation of the traffic schedule.
type request struct {
	route route
	user  int
	item  int
	rated []int32       // foldin: the new user's rated items, ascending
	vals  []float64     // foldin: their ratings
	body  []byte        // foldin: the JSON request body
	due   time.Duration // open loop: arrival time, from the stage's start
}

// buildRequests precomputes n requests from the seed: the route mix,
// users, items and fold-in bodies, and Poisson arrival times at rps
// (independent users make an open loop). The same (seed, stage) always
// yields the same schedule; the program under test receives only the
// resulting requests.
func buildRequests(seed, stage uint64, n int, rps float64, users, items int) []request {
	r := rng.NewKeyed(seed, 0x10adc0de, stage)
	reqs := make([]request, n)
	var at float64
	for i := range reqs {
		at += -math.Log(1-r.Float64()) / rps
		q := &reqs[i]
		q.due = time.Duration(at * float64(time.Second))
		q.user = r.Intn(users)
		switch pct := r.Intn(100); {
		case pct < predictPct:
			q.route = routePredict
			q.item = r.Intn(items)
		case pct < predictPct+recommendPct:
			q.route = routeRecommend
		default:
			q.route = routeFoldin
			q.rated = distinctAscending(r, foldinRatings, items)
			q.vals = make([]float64, len(q.rated))
			for j := range q.vals {
				q.vals[j] = 0.5 + float64(r.Intn(10))/2
			}
			q.body, _ = json.Marshal(map[string]any{
				"items": q.rated, "values": q.vals, "key": i, "n": recommendN})
		}
	}
	return reqs
}

// distinctAscending draws k distinct values below n, ascending.
func distinctAscending(r *rng.Stream, k, n int) []int32 {
	if k > n {
		k = n
	}
	seen := make(map[int32]struct{}, k)
	out := make([]int32, 0, k)
	for len(out) < k {
		v := int32(r.Intn(n))
		if _, dup := seen[v]; !dup {
			seen[v] = struct{}{}
			out = append(out, v)
		}
	}
	sort.Slice(out, func(i, j int) bool { return out[i] < out[j] })
	return out
}

// sample is the client-side record of one request.
type sample struct {
	route           route
	due, sent, done time.Time
	status          int  // 0 = transport error
	ok              bool // 2xx, answered within slowRequest of its due time
}

// latency is measured from the time the request was due, so a stall
// charges every request queued behind it.
func (s sample) latency() time.Duration { return s.done.Sub(s.due) }

// loadgen drives the server over two keep-alive connections. A late
// arrival is never dropped: it waits for a free connection and its
// latency still counts from its due time.
type loadgen struct {
	base    string
	clients []*http.Client
	chk     *checker
	cursor  atomic.Int64 // closed loop: where in the request list the next loop goes on
}

func newLoadgen(base string, chk *checker, conns int) *loadgen {
	g := &loadgen{base: base, chk: chk, clients: make([]*http.Client, conns)}
	for i := range g.clients {
		g.clients[i] = &http.Client{
			Timeout: 3 * time.Second,
			Transport: &http.Transport{
				MaxConnsPerHost: 1, MaxIdleConnsPerHost: 1,
				DisableCompression: true, IdleConnTimeout: time.Minute,
			},
		}
	}
	return g
}

func (g *loadgen) close() {
	for _, c := range g.clients {
		c.CloseIdleConnections()
	}
}

// do sends one request and returns the status and body.
func (g *loadgen) do(c *http.Client, q *request) (int, []byte, error) {
	var resp *http.Response
	var err error
	switch q.route {
	case routePredict:
		resp, err = c.Get(fmt.Sprintf("%s/v1/default/predict?user=%d&item=%d", g.base, q.user, q.item))
	case routeRecommend:
		resp, err = c.Get(fmt.Sprintf("%s/v1/default/recommend?user=%d&n=%d", g.base, q.user, recommendN))
	default:
		resp, err = c.Post(g.base+"/v1/default/foldin", "application/json", bytes.NewReader(q.body))
	}
	if err != nil {
		return 0, nil, err
	}
	body, err := io.ReadAll(resp.Body)
	resp.Body.Close()
	return resp.StatusCode, body, err
}

// run sends reqs over the two connections. In the open loop each
// request waits for its due time; in the closed loop (open == false)
// each connection sends its next request as soon as the previous one is
// answered, cycling through reqs until dur has passed.
func (g *loadgen) run(reqs []request, open bool, dur time.Duration) (samples []sample, start time.Time) {
	n := len(reqs)
	if !open {
		n = 1 << 22 // closed loop: bounded by dur, not by the list
	}
	var mu sync.Mutex
	var fromZero atomic.Int64
	next := &fromZero
	if !open {
		next = &g.cursor
		n += int(next.Load())
	}
	start = time.Now()
	var wg sync.WaitGroup
	for _, c := range g.clients {
		wg.Add(1)
		go func(c *http.Client) {
			defer wg.Done()
			local := make([]sample, 0, 1<<15)
			for {
				i := int(next.Add(1) - 1)
				if i >= n {
					break
				}
				q := &reqs[i%len(reqs)]
				var s sample
				s.route = q.route
				if open {
					s.due = start.Add(q.due)
					sleepUntil(s.due)
					s.sent = time.Now()
				} else {
					s.sent = time.Now()
					if s.sent.Sub(start) >= dur {
						break
					}
					s.due = s.sent
				}
				status, body, err := g.do(c, q)
				s.done = time.Now()
				s.status = status
				s.ok = err == nil && status/100 == 2 && s.latency().Seconds() <= slowRequest
				if err == nil && status/100 == 2 {
					g.chk.check(q, body)
				}
				local = append(local, s)
			}
			mu.Lock()
			samples = append(samples, local...)
			mu.Unlock()
		}(c)
	}
	wg.Wait()
	sort.Slice(samples, func(i, j int) bool { return samples[i].due.Before(samples[j].due) })
	return samples, start
}

// sleepUntil blocks the calling thread until t. The runtime's timers
// wake an idle process through epoll, whose timeout has millisecond
// granularity; nanosleep keeps the generator within tens of
// microseconds of its schedule. A signal may cut a sleep short, so it
// is repeated until t has come.
func sleepUntil(t time.Time) {
	for d := time.Until(t); d > 0; d = time.Until(t) {
		ts := syscall.NsecToTimespec(d.Nanoseconds())
		_ = syscall.Nanosleep(&ts, nil)
	}
}

// checker verifies response bodies against an in-process model built
// from the very checkpoint the server loaded.
type checker struct {
	model    *serve.Model
	rated    *sparse.CSR // the server's exclusion matrix
	predicts atomic.Int64
	checked  atomic.Int64
	wrong    atomic.Int64
	mu       sync.Mutex
	first    error
}

func (c *checker) fail(err error) {
	c.wrong.Add(1)
	c.mu.Lock()
	if c.first == nil {
		c.first = err
	}
	c.mu.Unlock()
}

type scoredItem struct {
	Item  int     `json:"item"`
	Score float64 `json:"score"`
}

// check verifies one response: every hundredth predict must equal the
// in-process Model.Predict exactly; every ranked list must have n items
// (or every item the user has not rated, if fewer), descending scores,
// and none the user already rated.
func (c *checker) check(q *request, body []byte) {
	switch q.route {
	case routePredict:
		if c.predicts.Add(1)%100 != 0 {
			return
		}
		var got struct {
			Score, Mean, Std float64
			Posterior        bool
		}
		if err := json.Unmarshal(body, &got); err != nil {
			c.fail(fmt.Errorf("predict body: %w", err))
			return
		}
		want, err := c.model.Predict(q.user, q.item)
		if err != nil || got.Score != want.Score || got.Mean != want.Mean || got.Std != want.Std || got.Posterior != want.Posterior {
			c.fail(fmt.Errorf("predict(%d,%d) = %+v, in-process model says %+v (%v)", q.user, q.item, got, want, err))
			return
		}
	default:
		var got struct{ Items []scoredItem }
		if err := json.Unmarshal(body, &got); err != nil {
			c.fail(fmt.Errorf("%s body: %w", routeNames[q.route], err))
			return
		}
		excl := q.rated
		if q.route == routeRecommend && c.rated != nil {
			excl, _ = c.rated.Row(q.user)
		}
		if err := checkRanked(got.Items, excl, min(recommendN, c.model.NumItems()-len(excl))); err != nil {
			c.fail(fmt.Errorf("%s user %d: %w", routeNames[q.route], q.user, err))
			return
		}
	}
	c.checked.Add(1)
}

func checkRanked(items []scoredItem, excl []int32, n int) error {
	if len(items) != n {
		return fmt.Errorf("%d items, want %d", len(items), n)
	}
	for i, it := range items {
		if i > 0 && it.Score > items[i-1].Score {
			return fmt.Errorf("scores not descending at %d", i)
		}
		j := sort.Search(len(excl), func(k int) bool { return int(excl[k]) >= it.Item })
		if j < len(excl) && int(excl[j]) == it.Item {
			return fmt.Errorf("item %d is excluded", it.Item)
		}
	}
	return nil
}

// latencyMs returns the samples' latencies from the due time in
// milliseconds, ascending; a failed request counts as slowRequest.
func latencyMs(samples []sample, keep func(sample) bool) []float64 {
	out := make([]float64, 0, len(samples))
	for _, s := range samples {
		if keep != nil && !keep(s) {
			continue
		}
		ms := s.latency().Seconds() * 1e3
		if !s.ok {
			ms = slowRequest * 1e3
		}
		out = append(out, ms)
	}
	sort.Float64s(out)
	return out
}

// segments cuts samples (ordered by due time) into nseg equal spans of
// the stage and returns each segment's samples.
func segments(samples []sample, start time.Time, dur time.Duration, nseg int) [][]sample {
	out := make([][]sample, nseg)
	for _, s := range samples {
		k := int(s.due.Sub(start) * time.Duration(nseg) / dur)
		if k >= 0 && k < nseg {
			out[k] = append(out[k], s)
		}
	}
	return out
}

func countOK(samples []sample) (ok, failed int) {
	for _, s := range samples {
		if s.ok {
			ok++
		} else {
			failed++
		}
	}
	return
}
