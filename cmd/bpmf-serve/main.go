// Command bpmf-serve is the checkpoint-backed model server: it loads
// BPMF checkpoints (written by `bpmf -ckpt-out` or
// bpmf.TrainWithCheckpoint) into immutable serving snapshots and
// answers prediction, recommendation and cold-start fold-in queries
// over HTTP. It hosts a registry of N named models — each with its own
// checkpoint path, exclusion source, clamp and lineage configuration —
// and each model hot-reloads independently on SIGHUP or when its
// checkpoint file changes on disk (-watch), so long-running trainers can
// keep publishing fresher posteriors next to a live server, one model at
// a time. On Linux a rename onto the file (every publish) or a close
// after writing it reloads at once; the -watch interval bounds how long
// any other change goes unnoticed.
//
// Single-model (classic flags; serves under the name "default"):
//
//	bpmf -synthetic small -ckpt-out model.ckpt
//	bpmf-serve -ckpt model.ckpt -addr :8080
//
//	curl 'localhost:8080/v1/default/predict?user=3&item=17'
//	curl 'localhost:8080/v1/default/recommend?user=3&n=10'
//
// Multi-model (one JSON config file). The shared flags (-addr, -watch,
// -rate, -burst, -queue-bound, -retry-after) still win over the file's
// values; the per-model flags (-ckpt, -data, -test, -alpha, -clamp-min,
// -clamp-max) have no model to apply to next to a models map
// and are refused there:
//
//	bpmf-serve -config serve.json
//
//	// serve.json
//	{
//	  "addr": ":8080",
//	  "watch": "2s",
//	  "models": {
//	    "movies": {"ckpt": "movies.ckpt", "data": "movies.bcsr"},
//	    "drugs":  {"ckpt": "drugs.ckpt", "lineage": {"seed": 42}}
//	  }
//	}
//
//	curl 'localhost:8080/v1/movies/predict?user=3&item=17'
//	curl 'localhost:8080/v1/drugs/recommend?user=3&n=10'
//
// Endpoints:
//
//	GET  /v1/<model>/predict?user=U&item=I   point score + posterior mean/std
//	GET  /v1/<model>/recommend?user=U&n=N    top-N unseen items
//	POST /v1/<model>/foldin                  sample a new user's factors from ratings
//	POST /v1/<model>/reload                  force a snapshot reload of one model
//	GET  /healthz                            liveness + per-model readiness
//
// Unknown model names return 404 with a JSON body listing the
// registered names.
//
// Every model route sits behind its own admission gate. -rate / -burst
// is a per-client token bucket over all of a route's requests (429 with
// the exact refill time in Retry-After). A recommend or fold-in ranking
// scans the catalog on its request's goroutine in one of GOMAXPROCS
// scoring slots; with every slot busy it waits in line, and once
// -queue-bound rankings are waiting for a scoring slot the next one is
// shed (503 with the -retry-after hint). Predicts take no slot and are
// never shed by the bound. Nothing is batched: measured, a request that
// gets a core also finds a slot (PERF.md). -threads is ignored; it still
// parses for the command lines that pass it.
package main

import (
	"context"
	"encoding/json"
	"errors"
	"flag"
	"fmt"
	"io"
	"log"
	"math"
	"net"
	"net/http"
	"net/url"
	"os"
	"os/signal"
	"runtime"
	"runtime/debug"
	"sort"
	"strconv"
	"syscall"
	"time"

	"repro/internal/config"
	"repro/internal/core"
	"repro/internal/rank"
	"repro/internal/serve"
	"repro/internal/sparse"
)

func main() {
	log.SetFlags(0)
	log.SetPrefix("bpmf-serve: ")

	cfg := config.DefaultServe()
	if err := config.Parse(flag.CommandLine, os.Args[1:], &cfg); err != nil {
		log.Fatal(err)
	}

	models, err := cfg.EffectiveModels()
	if err != nil {
		log.Fatal(err)
	}
	specs, err := buildSpecs(models, log.Printf)
	if err != nil {
		log.Fatal(err)
	}
	reg, err := serve.NewRegistry(specs, gateOptions(cfg.Serving))
	if err != nil {
		log.Fatal(err)
	}
	defer reg.Close()
	for _, h := range reg.Health() {
		log.Printf("model %q: %d users x %d items (K=%d, %d posterior samples)",
			h.Name, h.Users, h.Items, h.K, h.Samples)
	}

	ctx, stop := signal.NotifyContext(context.Background(), os.Interrupt, syscall.SIGTERM)
	defer stop()

	// SIGHUP = operator-driven hot reload of every model; each model
	// swaps (or keeps its previous snapshot) independently.
	hup := make(chan os.Signal, 1)
	signal.Notify(hup, syscall.SIGHUP)
	go func() {
		for range hup {
			if errs := reg.ReloadAll(); len(errs) == 0 {
				log.Printf("SIGHUP reload ok (%d models)", reg.Len())
			} else {
				for name, err := range errs {
					log.Printf("SIGHUP reload of model %q failed (still serving previous snapshot): %v", name, err)
				}
			}
		}
	}()
	if cfg.Watch > 0 {
		reg.Watch(ctx, cfg.Watch.Std(), func(name string, err error) {
			log.Printf("watch reload of model %q failed: %v", name, err)
		})
	}

	log.Printf("serving path: scoring-slots=%d queue-bound=%d rate=%g",
		runtime.GOMAXPROCS(0), cfg.Serving.QueueBound, cfg.Serving.Rate)

	// Timeouts on every phase of the exchange so one stalled or
	// malicious client can never pin a connection (and its goroutine)
	// forever: slowloris headers, dribbled bodies, unread responses and
	// idle keep-alives all get bounded.
	hs := &http.Server{
		Addr:              cfg.Addr,
		Handler:           newMux(reg),
		ReadHeaderTimeout: 5 * time.Second,
		ReadTimeout:       30 * time.Second,
		WriteTimeout:      60 * time.Second,
		IdleTimeout:       120 * time.Second,
	}
	go func() {
		<-ctx.Done()
		sd, cancel := context.WithTimeout(context.Background(), 5*time.Second)
		defer cancel()
		_ = hs.Shutdown(sd)
	}()
	log.Printf("listening on %s (%d models)", cfg.Addr, reg.Len())
	if err := hs.ListenAndServe(); err != nil && !errors.Is(err, http.ErrServerClosed) {
		log.Fatal(err)
	}
}

// gateOptions maps the validated Serving config onto the serving
// layer's admission-gate knobs.
func gateOptions(s config.Serving) serve.BatchOptions {
	return serve.BatchOptions{
		QueueBound: s.QueueBound,
		Rate:       s.Rate,
		Burst:      s.Burst,
		RetryAfter: s.RetryAfter.Std(),
	}
}

// buildSpecs turns the validated config entries into registry specs,
// in deterministic name order. logf receives informational messages
// (nil = silent), keeping the function testable.
func buildSpecs(models map[string]config.ServeModel, logf func(string, ...any)) ([]serve.ModelSpec, error) {
	if logf == nil {
		logf = func(string, ...any) {}
	}
	names := make([]string, 0, len(models))
	for name := range models {
		names = append(names, name)
	}
	sort.Strings(names)
	specs := make([]serve.ModelSpec, 0, len(models))
	for _, name := range names {
		sp, err := buildSpec(name, models[name], logf)
		if err != nil {
			// Release the exclusion mappings of already-built specs: the
			// registry never sees them, so nobody else will.
			for _, s := range specs {
				if s.Close != nil {
					_ = s.Close()
				}
			}
			return nil, fmt.Errorf("model %q: %w", name, err)
		}
		specs = append(specs, sp)
	}
	return specs, nil
}

// buildSpec resolves one model's serving options: clamp and lineage
// straight from the config, plus the exclusion source — a zero-copy
// .bcsr mapping when possible, a decoded matrix (and optionally the
// reconstructed test split) otherwise.
func buildSpec(name string, mc config.ServeModel, logf func(string, ...any)) (serve.ModelSpec, error) {
	opts := serve.Options{
		Alpha:    mc.Alpha,
		ClampMin: mc.Clamp.Min,
		ClampMax: mc.Clamp.Max,
	}
	if mc.Lineage != nil {
		opts.Lineage = &serve.Lineage{Seed: mc.Lineage.Seed, K: mc.Lineage.K}
	}
	spec := serve.ModelSpec{Name: name, Path: mc.Ckpt}
	if mc.Data != "" {
		isB, err := sparse.IsBCSR(mc.Data)
		if err != nil {
			return serve.ModelSpec{}, err
		}
		if isB && mc.TestFrac <= 0 {
			// Exclusion-only mode over binary shards: map the file instead
			// of decoding it. Restarts touch no payload bytes up front;
			// each user's shard is verified the first time that user asks
			// for a recommendation, and co-located servers share the page
			// cache. (TestFrac > 0 needs the decoded matrix for the split.)
			mp, err := sparse.OpenBinary(mc.Data)
			if err != nil {
				return serve.ModelSpec{}, err
			}
			opts.Exclude = mp
			spec.Close = mp.Close
			logf("model %q: exclusions mapped from %s (%d shards, verified lazily per first query)", name, mc.Data, mp.Shards())
		} else {
			excl, test, seed, err := loadExclusions(mc.Data, mc.TestFrac, mc.Ckpt)
			if err != nil {
				return serve.ModelSpec{}, err
			}
			opts.Exclude, opts.Test = excl, test
			if test != nil && opts.Lineage == nil {
				// The test split was derived from this checkpoint's seed; pin
				// the lineage so a hot reload of a chain retrained under
				// another seed cannot serve misaligned posterior accumulators.
				opts.Lineage = &serve.Lineage{Seed: seed}
			}
		}
	}
	spec.Opts = opts
	return spec, nil
}

// route is one model's request path: its hot-reloading server behind the
// gate that admits its requests and bounds its concurrent rankings.
type route struct {
	srv *serve.Server
	bt  *serve.Batcher
}

// admit applies per-client admission control before any scoring work.
// A false return means the request was shed and the 429 response (with
// its Retry-After hint) already written.
func (rt route) admit(w http.ResponseWriter, r *http.Request) bool {
	if err := rt.bt.Admit(clientKey(r)); err != nil {
		httpError(w, statusOf(err), err)
		return false
	}
	return true
}

// clientKey buckets requests for rate limiting by client host.
func clientKey(r *http.Request) string {
	host, _, err := net.SplitHostPort(r.RemoteAddr)
	if err != nil {
		return r.RemoteAddr
	}
	return host
}

// newMux wires the HTTP endpoints onto the model registry: every model,
// the single-model "default" included, is addressed by name under
// /v1/<model>/.
func newMux(reg *serve.Registry) *http.ServeMux {
	mux := http.NewServeMux()
	byName := func(h func(route, http.ResponseWriter, *http.Request)) http.HandlerFunc {
		return func(w http.ResponseWriter, r *http.Request) {
			srv, ok := reg.Get(r.PathValue("model"))
			if !ok {
				unknownModel(w, reg, r.PathValue("model"))
				return
			}
			h(route{srv: srv, bt: reg.Batcher(r.PathValue("model"))}, w, r)
		}
	}
	handle(mux, "/v1/{model}/predict", byName(handlePredict))
	handle(mux, "/v1/{model}/recommend", byName(handleRecommend))
	handle(mux, "/v1/{model}/foldin", byName(handleFoldIn))
	handle(mux, "/v1/{model}/reload", byName(handleReload))
	handle(mux, "/healthz", func(w http.ResponseWriter, r *http.Request) { handleHealthz(reg, w) })
	return mux
}

// handle registers h on mux under a recover: a panic in a handler —
// core.UpdateItem's "posterior precision not SPD" is reachable from
// /foldin on a damaged checkpoint — answers 500 with the JSON error body
// and logs the route and model, where net/http alone would drop the
// connection. It is the net under the panic audit (ROADMAP 3(c)), not a
// substitute for it.
func handle(mux *http.ServeMux, pattern string, h http.HandlerFunc) {
	mux.HandleFunc(pattern, func(w http.ResponseWriter, r *http.Request) {
		defer func() {
			p := recover()
			if p == nil {
				return
			}
			if p == http.ErrAbortHandler {
				panic(p)
			}
			log.Printf("panic serving %s (model %q): %v\n%s", pattern, r.PathValue("model"), p, debug.Stack())
			httpError(w, http.StatusInternalServerError, fmt.Errorf("internal error serving %s", r.URL.Path))
		}()
		h(w, r)
	})
}

// handleHealthz reports registry-level liveness with per-model
// readiness: dimensions, reload counts, and the last reload error of
// any model still serving a stale-but-good snapshot.
func handleHealthz(reg *serve.Registry, w http.ResponseWriter) {
	models := make(map[string]any, reg.Len())
	ready := true
	for _, h := range reg.Health() {
		entry := map[string]any{
			"users": h.Users, "items": h.Items, "k": h.K,
			"samples": h.Samples, "reloads": h.Reloads,
			"ready": h.LastError == "",
		}
		if h.LastError != "" {
			entry["last_error"] = h.LastError
			ready = false
		}
		models[h.Name] = entry
	}
	writeJSON(w, map[string]any{"ready": ready, "models": models})
}

// unknownModel answers a request for an unregistered model name: 404
// with a JSON body listing the registered names, so a typo'd route is
// self-diagnosing.
func unknownModel(w http.ResponseWriter, reg *serve.Registry, name string) {
	w.Header().Set("Content-Type", "application/json")
	w.WriteHeader(http.StatusNotFound)
	_ = json.NewEncoder(w).Encode(map[string]any{
		"error":  fmt.Sprintf("unknown model %q", name),
		"models": reg.Names(),
	})
}

// handleReload swaps in a fresh snapshot for one model. Reload mutates
// server state, so it demands POST — a crawler or monitoring GET must
// never trigger a reload the way it could when every method was
// accepted.
func handleReload(rt route, w http.ResponseWriter, r *http.Request) {
	if r.Method != http.MethodPost {
		w.Header().Set("Allow", http.MethodPost)
		httpError(w, http.StatusMethodNotAllowed, errors.New("POST to reload"))
		return
	}
	if err := rt.srv.Reload(); err != nil {
		httpError(w, http.StatusInternalServerError, err)
		return
	}
	writeJSON(w, map[string]any{"reloads": rt.srv.Reloads.Load()})
}

// loadExclusions reads the training rating matrix and, when testFrac > 0,
// reconstructs the training run's train/test split so the served
// posterior intervals line up with the checkpoint's accumulators. The
// split is resolved the way the training commands resolve it, seeded by
// the checkpoint's own seed, so it matches the run that produced the
// checkpoint exactly.
func loadExclusions(dataPath string, testFrac float64, ckptPath string) (*sparse.CSR, []sparse.Entry, uint64, error) {
	ckpt, _, err := core.ReadCheckpointFile(ckptPath)
	if err != nil {
		return nil, nil, 0, err
	}
	train, test, err := config.Data{Path: dataPath, TestFrac: testFrac}.Split(ckpt.Seed)
	if err != nil {
		return nil, nil, 0, err
	}
	if testFrac > 0 && len(test) != len(ckpt.PredSum) {
		return nil, nil, 0, fmt.Errorf("reconstructed split has %d test entries, checkpoint has %d accumulators: -test does not match the training run",
			len(test), len(ckpt.PredSum))
	}
	return train, test, ckpt.Seed, nil
}

// The response bodies. Fields are declared in alphabetical key order,
// the order encoding/json writes map keys in, so these encode to the
// bytes of the per-request map[string]any they replaced (golden test).

type predictResponse struct {
	Item      int     `json:"item"`
	Mean      float64 `json:"mean"`
	Posterior bool    `json:"posterior"`
	Score     float64 `json:"score"`
	Std       float64 `json:"std"`
	User      int     `json:"user"`
}

type scoredItem struct {
	Item  int     `json:"item"`
	Score float64 `json:"score"`
}

type recommendResponse struct {
	Items []scoredItem `json:"items"`
	User  int          `json:"user"`
}

// Items is set only when the request asked for recommendations (n > 0);
// an empty list then still encodes as [].
type foldInResponse struct {
	Factors []float64     `json:"factors"`
	Items   *[]scoredItem `json:"items,omitempty"`
}

func handlePredict(rt route, w http.ResponseWriter, r *http.Request) {
	if !rt.admit(w, r) {
		return
	}
	q := r.URL.Query() // parsed once per request
	user, err := intParam(q, "user")
	if err != nil {
		httpError(w, http.StatusBadRequest, err)
		return
	}
	item, err := intParam(q, "item")
	if err != nil {
		httpError(w, http.StatusBadRequest, err)
		return
	}
	p, err := rt.srv.Model().Predict(user, item) // O(K): never waits behind a catalog scan
	if err != nil {
		httpError(w, statusOf(err), err)
		return
	}
	writeJSON(w, predictResponse{
		User: user, Item: item,
		Score: p.Score, Mean: p.Mean, Std: p.Std, Posterior: p.Posterior,
	})
}

func handleRecommend(rt route, w http.ResponseWriter, r *http.Request) {
	if !rt.admit(w, r) {
		return
	}
	q := r.URL.Query()
	user, err := intParam(q, "user")
	if err != nil {
		httpError(w, http.StatusBadRequest, err)
		return
	}
	n, err := intParam(q, "n")
	if err != nil {
		httpError(w, http.StatusBadRequest, err)
		return
	}
	top, err := rt.bt.Recommend(rt.srv.Model(), user, n)
	if err != nil {
		httpError(w, statusOf(err), err)
		return
	}
	writeJSON(w, recommendResponse{User: user, Items: itemsJSON(top)})
}

// foldInRequest is the /foldin body: a new user's observed ratings, a
// deterministic draw key, and how many recommendations to return.
type foldInRequest struct {
	Items  []int32   `json:"items"`
	Values []float64 `json:"values"`
	Key    int       `json:"key"`
	N      int       `json:"n"`
}

// maxFoldInBody caps /foldin request bodies: a fold-in carries one
// user's ratings, so 1 MiB is generous — anything bigger is a mistake
// or abuse, rejected with 413 before it can balloon the decoder.
const maxFoldInBody = 1 << 20

func handleFoldIn(rt route, w http.ResponseWriter, r *http.Request) {
	if r.Method != http.MethodPost {
		w.Header().Set("Allow", http.MethodPost)
		httpError(w, http.StatusMethodNotAllowed, errors.New("POST a JSON body"))
		return
	}
	if !rt.admit(w, r) {
		return
	}
	r.Body = http.MaxBytesReader(w, r.Body, maxFoldInBody)
	dec := json.NewDecoder(r.Body)
	dec.DisallowUnknownFields()
	var req foldInRequest
	if err := dec.Decode(&req); err != nil {
		var tooBig *http.MaxBytesError
		if errors.As(err, &tooBig) {
			httpError(w, http.StatusRequestEntityTooLarge,
				fmt.Errorf("request body exceeds %d bytes", tooBig.Limit))
			return
		}
		httpError(w, http.StatusBadRequest, err)
		return
	}
	// One JSON document per request: trailing garbage would be silently
	// ignored by a bare Decode, masking client bugs.
	if err := dec.Decode(&struct{}{}); err != io.EOF {
		httpError(w, http.StatusBadRequest, errors.New("request body holds more than one JSON document"))
		return
	}
	m := rt.srv.Model()
	u, err := m.FoldIn(req.Items, req.Values, req.Key)
	if err != nil {
		httpError(w, statusOf(err), err)
		return
	}
	resp := foldInResponse{Factors: u}
	if req.N > 0 {
		top, err := rt.bt.RecommendVector(m, u, req.Items, req.N)
		if err != nil {
			httpError(w, statusOf(err), err)
			return
		}
		items := itemsJSON(top)
		resp.Items = &items
	}
	writeJSON(w, resp)
}

func itemsJSON(top []rank.Item) []scoredItem {
	out := make([]scoredItem, len(top))
	for i, it := range top {
		out[i] = scoredItem{Item: it.Index, Score: it.Score}
	}
	return out
}

// statusOf maps the serving layer's documented errors to HTTP statuses.
// Admission-control sheds map to 429 (client over its rate) or 503
// (rankings waiting for a scoring slot at their SLO bound); httpError
// attaches their Retry-After hint.
func statusOf(err error) int {
	var shed *serve.Shed
	switch {
	case errors.As(err, &shed):
		if shed.RateLimited {
			return http.StatusTooManyRequests
		}
		return http.StatusServiceUnavailable
	case errors.Is(err, serve.ErrUserRange), errors.Is(err, serve.ErrItemRange):
		return http.StatusNotFound
	case errors.Is(err, serve.ErrBadInput):
		return http.StatusBadRequest
	default:
		return http.StatusInternalServerError
	}
}

func intParam(q url.Values, name string) (int, error) {
	s := q.Get(name)
	if s == "" {
		return 0, fmt.Errorf("missing query parameter %q", name)
	}
	v, err := strconv.Atoi(s)
	if err != nil {
		return 0, fmt.Errorf("parameter %q: %w", name, err)
	}
	return v, nil
}

// writeJSON answers 200 with v's encoding (json.Encoder's bytes: Marshal's
// plus a newline), or 500 if v does not encode — a NaN, say — instead of a
// 200 with an empty body. A failed write is dropped: the client is gone.
func writeJSON(w http.ResponseWriter, v any) {
	body, err := json.Marshal(v)
	if err != nil {
		httpError(w, http.StatusInternalServerError, fmt.Errorf("encoding the response: %w", err))
		return
	}
	w.Header().Set("Content-Type", "application/json")
	_, _ = w.Write(append(body, '\n'))
}

func httpError(w http.ResponseWriter, status int, err error) {
	var shed *serve.Shed
	if errors.As(err, &shed) {
		// Whole seconds, rounded up, minimum 1: Retry-After's integer
		// form cannot express sub-second hints.
		secs := int(math.Ceil(shed.RetryAfter.Seconds()))
		if secs < 1 {
			secs = 1
		}
		w.Header().Set("Retry-After", strconv.Itoa(secs))
	}
	w.Header().Set("Content-Type", "application/json")
	w.WriteHeader(status)
	_ = json.NewEncoder(w).Encode(map[string]string{"error": err.Error()})
}
