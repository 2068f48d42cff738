package main

import (
	"bytes"
	"encoding/json"
	"fmt"
	"log"
	"net/http"
	"net/http/httptest"
	"os"
	"path/filepath"
	"strings"
	"testing"
	"time"

	"repro"
	"repro/internal/config"
	"repro/internal/rank"
	"repro/internal/serve"
)

// testCkpt trains a tiny model and writes its checkpoint, exercising
// the same trainer path a real deployment uses. seed varies the chain
// so two checkpoints can hold genuinely different posteriors.
func testCkpt(t *testing.T, dir, name string, seed uint64) (string, bpmf.Config) {
	t.Helper()
	ratings := []bpmf.Rating{
		{User: 0, Item: 0, Value: 5}, {User: 0, Item: 1, Value: 4},
		{User: 1, Item: 0, Value: 4}, {User: 1, Item: 2, Value: 2},
		{User: 2, Item: 1, Value: 5}, {User: 2, Item: 2, Value: 1},
	}
	data, err := bpmf.DataFromRatings(3, 3, ratings, 0, 1)
	if err != nil {
		t.Fatal(err)
	}
	cfg := bpmf.Defaults()
	cfg.K = 2
	cfg.Iters = 4
	cfg.Burnin = 2
	cfg.Seed = seed
	ckpt := filepath.Join(dir, name)
	f, err := os.Create(ckpt)
	if err != nil {
		t.Fatal(err)
	}
	if _, err := bpmf.TrainWithCheckpoint(data, cfg, f); err != nil {
		t.Fatal(err)
	}
	if err := f.Close(); err != nil {
		t.Fatal(err)
	}
	return ckpt, cfg
}

// testRegistry opens a single-model registry over a fresh checkpoint,
// the way main() synthesizes one from classic single-model flags.
func testRegistry(t *testing.T) *serve.Registry {
	t.Helper()
	ckpt, cfg := testCkpt(t, t.TempDir(), "model.ckpt", 42)
	reg, err := serve.NewRegistry([]serve.ModelSpec{
		{Name: "default", Path: ckpt, Opts: serve.Options{Alpha: cfg.Alpha}},
	}, serve.DefaultBatchOptions())
	if err != nil {
		t.Fatal(err)
	}
	t.Cleanup(func() { reg.Close() })
	return reg
}

// TestMutatingRoutesRequirePOST pins the method guard of the two routes
// that take a POST: any other method gets 405 with an Allow header
// naming POST — and, for reload, which mutates server state, without
// triggering a snapshot swap — while POST still works.
func TestMutatingRoutesRequirePOST(t *testing.T) {
	reg := testRegistry(t)
	mux := newMux(reg)
	srv, _ := reg.Get("default")
	base := srv.Reloads.Load() // the initial Open counts as the first load

	for _, path := range []string{"/v1/default/reload", "/v1/default/foldin"} {
		for _, method := range []string{http.MethodGet, http.MethodHead, http.MethodPut, http.MethodDelete} {
			rec := httptest.NewRecorder()
			mux.ServeHTTP(rec, httptest.NewRequest(method, path, nil))
			if rec.Code != http.StatusMethodNotAllowed {
				t.Errorf("%s %s = %d, want %d", method, path, rec.Code, http.StatusMethodNotAllowed)
			}
			if allow := rec.Header().Get("Allow"); allow != http.MethodPost {
				t.Errorf("%s %s Allow header = %q, want POST", method, path, allow)
			}
		}
	}
	if got := srv.Reloads.Load(); got != base {
		t.Fatalf("non-POST methods triggered %d reloads", got-base)
	}

	rec := httptest.NewRecorder()
	mux.ServeHTTP(rec, httptest.NewRequest(http.MethodPost, "/v1/default/reload", nil))
	if rec.Code != http.StatusOK {
		t.Fatalf("POST /v1/default/reload = %d, body %s", rec.Code, rec.Body.String())
	}
	if got := srv.Reloads.Load(); got != base+1 {
		t.Fatalf("POST /v1/default/reload performed %d reloads, want 1", got-base)
	}
	if rec := postFoldIn(mux, `{"items":[0],"values":[5],"key":1}`); rec.Code != http.StatusOK {
		t.Fatalf("POST /v1/default/foldin = %d, body %s", rec.Code, rec.Body.String())
	}
}

// TestResponseBytesGolden pins the wire format of the typed responses:
// each encodes to the literal bytes below, which are also what the
// map[string]any it replaced encodes to (keys sorted, same number
// formatting) — so no client sees the change of representation.
func TestResponseBytesGolden(t *testing.T) {
	items := []rank.Item{{Index: 7, Score: 4.5}, {Index: 2, Score: -0.125}}
	asMaps := func(top []rank.Item) []map[string]any {
		out := make([]map[string]any, len(top))
		for i, it := range top {
			out[i] = map[string]any{"item": it.Index, "score": it.Score}
		}
		return out
	}
	withItems, noItems := itemsJSON(items), itemsJSON(nil)
	cases := []struct {
		name   string
		typed  any
		mapped map[string]any
		want   string
	}{
		{"predict",
			predictResponse{User: 3, Item: 17, Score: 3.25, Mean: 3.3000000000000003, Std: 0.7071067811865476, Posterior: true},
			map[string]any{"user": 3, "item": 17, "score": 3.25, "mean": 3.3000000000000003, "std": 0.7071067811865476, "posterior": true},
			`{"item":17,"mean":3.3000000000000003,"posterior":true,"score":3.25,"std":0.7071067811865476,"user":3}`},
		{"recommend",
			recommendResponse{User: 3, Items: withItems},
			map[string]any{"user": 3, "items": asMaps(items)},
			`{"items":[{"item":7,"score":4.5},{"item":2,"score":-0.125}],"user":3}`},
		{"recommend nothing",
			recommendResponse{User: 0, Items: noItems},
			map[string]any{"user": 0, "items": asMaps(nil)},
			`{"items":[],"user":0}`},
		{"foldin factors only",
			foldInResponse{Factors: []float64{0.5, -1e-7}},
			map[string]any{"factors": []float64{0.5, -1e-7}},
			`{"factors":[0.5,-1e-7]}`},
		{"foldin with items",
			foldInResponse{Factors: []float64{1}, Items: &withItems},
			map[string]any{"factors": []float64{1}, "items": asMaps(items)},
			`{"factors":[1],"items":[{"item":7,"score":4.5},{"item":2,"score":-0.125}]}`},
		{"foldin nothing to recommend",
			foldInResponse{Factors: []float64{1}, Items: &noItems},
			map[string]any{"factors": []float64{1}, "items": asMaps(nil)},
			`{"factors":[1],"items":[]}`},
	}
	for _, c := range cases {
		for label, v := range map[string]any{"typed": c.typed, "map": c.mapped} {
			rec := httptest.NewRecorder()
			writeJSON(rec, v)
			if got := rec.Body.String(); got != c.want+"\n" {
				t.Errorf("%s (%s): body %q, want %q", c.name, label, got, c.want+"\n")
			}
		}
	}
}

// TestHandlersServeGoldenShapes drives the three query routes through
// the mux and checks each body is the canonical (sorted-key) encoding of
// its own content: decoding it and re-encoding through a map reproduces
// the bytes.
func TestHandlersServeGoldenShapes(t *testing.T) {
	mux := newMux(testRegistry(t))
	bodies := []string{
		get(t, mux, "/v1/default/predict?user=0&item=1"),
		get(t, mux, "/v1/default/recommend?user=0&n=2"),
		postFoldIn(mux, `{"items":[0,1],"values":[5,4],"key":1,"n":2}`).Body.String(),
		postFoldIn(mux, `{"items":[0,1],"values":[5,4],"key":1}`).Body.String(),
	}
	for _, body := range bodies {
		var decoded map[string]any
		if err := json.Unmarshal([]byte(body), &decoded); err != nil {
			t.Fatalf("body %q: %v", body, err)
		}
		rec := httptest.NewRecorder()
		writeJSON(rec, decoded)
		if got := rec.Body.String(); got != body {
			t.Errorf("served %q, canonical map encoding is %q", body, got)
		}
	}
	if !strings.Contains(bodies[2], `"items":[{"item":`) || strings.Contains(bodies[3], "items") {
		t.Errorf("foldin items: with n=2 %q, without n %q", bodies[2], bodies[3])
	}
}

// get answers one GET through the mux, failing the test unless it is a 200.
func get(t *testing.T, mux *http.ServeMux, url string) string {
	t.Helper()
	rec := httptest.NewRecorder()
	mux.ServeHTTP(rec, httptest.NewRequest(http.MethodGet, url, nil))
	if rec.Code != http.StatusOK {
		t.Fatalf("GET %s = %d, body %s", url, rec.Code, rec.Body.String())
	}
	return rec.Body.String()
}

// TestHealthzAndPredictStillServe is a smoke check that the extracted
// mux wires the read-only endpoints the way main always did, and that
// the unprefixed pre-registry routes are gone.
func TestHealthzAndPredictStillServe(t *testing.T) {
	mux := newMux(testRegistry(t))
	for _, url := range []string{
		"/healthz",
		"/v1/default/predict?user=0&item=1", "/v1/default/recommend?user=0&n=2",
	} {
		get(t, mux, url)
	}
	for _, url := range []string{"/predict?user=0&item=1", "/recommend?user=0&n=2", "/foldin", "/reload"} {
		rec := httptest.NewRecorder()
		mux.ServeHTTP(rec, httptest.NewRequest(http.MethodGet, url, nil))
		if rec.Code != http.StatusNotFound {
			t.Errorf("GET %s = %d, want 404: the unprefixed routes were removed", url, rec.Code)
		}
	}
}

// TestUnknownModel404 pins the unknown-model contract: a request for an
// unregistered model name answers 404 with a JSON body that names the
// registered models, so a typo'd route is self-diagnosing.
func TestUnknownModel404(t *testing.T) {
	mux := newMux(testRegistry(t))
	rec := httptest.NewRecorder()
	mux.ServeHTTP(rec, httptest.NewRequest(http.MethodGet, "/v1/nope/predict?user=0&item=1", nil))
	if rec.Code != http.StatusNotFound {
		t.Fatalf("GET /v1/nope/predict = %d, want 404 (body %s)", rec.Code, rec.Body.String())
	}
	if ct := rec.Header().Get("Content-Type"); ct != "application/json" {
		t.Errorf("Content-Type = %q, want application/json", ct)
	}
	var body struct {
		Error  string   `json:"error"`
		Models []string `json:"models"`
	}
	if err := json.Unmarshal(rec.Body.Bytes(), &body); err != nil {
		t.Fatalf("404 body is not JSON: %v (body %s)", err, rec.Body.String())
	}
	if !strings.Contains(body.Error, "nope") {
		t.Errorf("404 error %q does not name the unknown model", body.Error)
	}
	if len(body.Models) != 1 || body.Models[0] != "default" {
		t.Errorf("404 models = %v, want [default]", body.Models)
	}
}

// TestPredictMatchesPreRegistryPath is the refactor regression pin: the
// answers served through the config-built registry must be
// bit-identical to what the pre-registry path (serve.Open on the same
// checkpoint with the same options) computes.
func TestPredictMatchesPreRegistryPath(t *testing.T) {
	ckpt, tcfg := testCkpt(t, t.TempDir(), "model.ckpt", 42)

	// Pre-refactor path: open the checkpoint directly.
	old, err := serve.Open(ckpt, serve.Options{Alpha: tcfg.Alpha})
	if err != nil {
		t.Fatal(err)
	}

	// New path: single-model config -> buildSpecs -> registry -> mux.
	cfg := config.DefaultServe()
	cfg.Model.Ckpt = ckpt
	if err := cfg.Validate(); err != nil {
		t.Fatal(err)
	}
	models, err := cfg.EffectiveModels()
	if err != nil {
		t.Fatal(err)
	}
	specs, err := buildSpecs(models, nil, nil)
	if err != nil {
		t.Fatal(err)
	}
	reg, err := serve.NewRegistry(specs, serve.DefaultBatchOptions())
	if err != nil {
		t.Fatal(err)
	}
	defer reg.Close()
	mux := newMux(reg)

	for user := 0; user < 3; user++ {
		for item := 0; item < 3; item++ {
			want, err := old.Model().Predict(user, item)
			if err != nil {
				t.Fatal(err)
			}
			body := get(t, mux, fmt.Sprintf("/v1/default/predict?user=%d&item=%d", user, item))
			var got struct {
				Score float64 `json:"score"`
				Mean  float64 `json:"mean"`
				Std   float64 `json:"std"`
			}
			if err := json.Unmarshal([]byte(body), &got); err != nil {
				t.Fatal(err)
			}
			if got.Score != want.Score || got.Mean != want.Mean || got.Std != want.Std {
				t.Errorf("u=%d i=%d = (%v,%v,%v), pre-registry path = (%v,%v,%v)",
					user, item, got.Score, got.Mean, got.Std, want.Score, want.Mean, want.Std)
			}
		}
	}
}

// TestTwoModelIndependentReload pins registry isolation: reloading one
// model must not change the other's answers or reload count.
func TestTwoModelIndependentReload(t *testing.T) {
	dir := t.TempDir()
	ckptA, cfgA := testCkpt(t, dir, "a.ckpt", 1)
	ckptB, cfgB := testCkpt(t, dir, "b.ckpt", 2)
	reg, err := serve.NewRegistry([]serve.ModelSpec{
		{Name: "a", Path: ckptA, Opts: serve.Options{Alpha: cfgA.Alpha}},
		{Name: "b", Path: ckptB, Opts: serve.Options{Alpha: cfgB.Alpha}},
	}, serve.DefaultBatchOptions())
	if err != nil {
		t.Fatal(err)
	}
	defer reg.Close()
	mux := newMux(reg)

	predict := func(model string) string {
		rec := httptest.NewRecorder()
		mux.ServeHTTP(rec, httptest.NewRequest(http.MethodGet, "/v1/"+model+"/predict?user=0&item=2", nil))
		if rec.Code != http.StatusOK {
			t.Fatalf("GET /v1/%s/predict = %d, body %s", model, rec.Code, rec.Body.String())
		}
		return rec.Body.String()
	}
	beforeA, beforeB := predict("a"), predict("b")
	if beforeA == beforeB {
		t.Fatal("models a and b serve identical answers; the two-chain setup is broken")
	}

	// Retrain model a under a different seed and hot-reload only it.
	retrained, _ := testCkpt(t, dir, "a2.ckpt", 3)
	blob, err := os.ReadFile(retrained)
	if err != nil {
		t.Fatal(err)
	}
	if err := os.WriteFile(ckptA, blob, 0o644); err != nil {
		t.Fatal(err)
	}
	srvA, _ := reg.Get("a")
	srvB, _ := reg.Get("b")
	baseB := srvB.Reloads.Load()
	rec := httptest.NewRecorder()
	mux.ServeHTTP(rec, httptest.NewRequest(http.MethodPost, "/v1/a/reload", nil))
	if rec.Code != http.StatusOK {
		t.Fatalf("POST /v1/a/reload = %d, body %s", rec.Code, rec.Body.String())
	}
	if srvA.Reloads.Load() != 2 {
		t.Errorf("model a reloads = %d, want 2 (open + explicit reload)", srvA.Reloads.Load())
	}
	if srvB.Reloads.Load() != baseB {
		t.Errorf("reloading model a bumped model b's reload count")
	}
	if got := predict("a"); got == beforeA {
		t.Error("model a serves the same answers after reloading a retrained chain")
	}
	if got := predict("b"); got != beforeB {
		t.Errorf("model b's answers changed when model a reloaded:\n before %s after %s", beforeB, got)
	}
}

// rateLimitedRegistry opens a single-model registry whose admission
// control allows one request per client, then sheds.
func rateLimitedRegistry(t *testing.T) *serve.Registry {
	t.Helper()
	ckpt, cfg := testCkpt(t, t.TempDir(), "model.ckpt", 42)
	opts := serve.DefaultBatchOptions()
	opts.Rate, opts.Burst = 0.001, 1
	reg, err := serve.NewRegistry([]serve.ModelSpec{
		{Name: "default", Path: ckpt, Opts: serve.Options{Alpha: cfg.Alpha}},
	}, opts)
	if err != nil {
		t.Fatal(err)
	}
	t.Cleanup(func() { reg.Close() })
	return reg
}

// TestRateLimitSheds429WithRetryAfter pins the admission-control
// surface: a client over its rate gets 429 with a Retry-After hint and
// a JSON error body, per client — another client is still served.
func TestRateLimitSheds429WithRetryAfter(t *testing.T) {
	mux := newMux(rateLimitedRegistry(t))
	get := func(remote, path string) *httptest.ResponseRecorder {
		req := httptest.NewRequest(http.MethodGet, path, nil)
		req.RemoteAddr = remote
		rec := httptest.NewRecorder()
		mux.ServeHTTP(rec, req)
		return rec
	}
	if rec := get("10.0.0.1:555", "/v1/default/predict?user=0&item=1"); rec.Code != http.StatusOK {
		t.Fatalf("first request = %d, body %s", rec.Code, rec.Body.String())
	}
	rec := get("10.0.0.1:666", "/v1/default/recommend?user=0&n=2") // same host, new port: same bucket
	if rec.Code != http.StatusTooManyRequests {
		t.Fatalf("second request = %d, want 429 (body %s)", rec.Code, rec.Body.String())
	}
	if ra := rec.Header().Get("Retry-After"); ra == "" {
		t.Error("429 without a Retry-After header")
	}
	if ct := rec.Header().Get("Content-Type"); ct != "application/json" {
		t.Errorf("429 Content-Type = %q, want application/json", ct)
	}
	var body struct {
		Error string `json:"error"`
	}
	if err := json.Unmarshal(rec.Body.Bytes(), &body); err != nil || body.Error == "" {
		t.Errorf("429 body not a JSON error: %v (%s)", err, rec.Body.String())
	}
	if rec := get("10.0.0.2:555", "/v1/default/predict?user=0&item=1"); rec.Code != http.StatusOK {
		t.Errorf("other client shed too: %d (body %s)", rec.Code, rec.Body.String())
	}
}

// postFoldIn sends one /v1/default/foldin body and returns the recorder.
func postFoldIn(mux *http.ServeMux, body string) *httptest.ResponseRecorder {
	req := httptest.NewRequest(http.MethodPost, "/v1/default/foldin", strings.NewReader(body))
	req.Header.Set("Content-Type", "application/json")
	rec := httptest.NewRecorder()
	mux.ServeHTTP(rec, req)
	return rec
}

// TestFoldInBodyHygiene pins the request-body satellite: oversized
// bodies get 413, unknown fields and trailing garbage get 400, and a
// well-formed body still works.
func TestFoldInBodyHygiene(t *testing.T) {
	mux := newMux(testRegistry(t))

	if rec := postFoldIn(mux, `{"items":[0,1],"values":[5,4],"key":1,"n":2}`); rec.Code != http.StatusOK {
		t.Fatalf("well-formed foldin = %d, body %s", rec.Code, rec.Body.String())
	}
	if rec := postFoldIn(mux, `{"items":[0],"values":[5],"key":1,"frobnicate":true}`); rec.Code != http.StatusBadRequest {
		t.Errorf("unknown field = %d, want 400 (body %s)", rec.Code, rec.Body.String())
	}
	if rec := postFoldIn(mux, `{"items":[0],"values":[5],"key":1} {"sneaky":1}`); rec.Code != http.StatusBadRequest {
		t.Errorf("trailing garbage = %d, want 400 (body %s)", rec.Code, rec.Body.String())
	}
	huge := `{"items":[0],"values":[5],"key":1,"n":0` + strings.Repeat(" ", maxFoldInBody) + `}`
	if rec := postFoldIn(mux, huge); rec.Code != http.StatusRequestEntityTooLarge {
		t.Errorf("oversized body = %d, want 413 (body %s)", rec.Code, rec.Body.String())
	}
}

// TestStatusOfShed pins the error → status mapping for admission sheds,
// and that an overload shed's -retry-after hint reaches the 503's header.
func TestStatusOfShed(t *testing.T) {
	rec := httptest.NewRecorder()
	overload := &serve.Shed{RetryAfter: 7 * time.Second}
	httpError(rec, statusOf(overload), overload)
	if rec.Code != http.StatusServiceUnavailable || rec.Header().Get("Retry-After") != "7" {
		t.Errorf("overload shed answered %d with Retry-After %q, want 503 and 7", rec.Code, rec.Header().Get("Retry-After"))
	}
	if s := statusOf(&serve.Shed{RateLimited: true}); s != http.StatusTooManyRequests {
		t.Errorf("rate-limit shed = %d, want 429", s)
	}
	if s := statusOf(&serve.Shed{}); s != http.StatusServiceUnavailable {
		t.Errorf("overload shed = %d, want 503", s)
	}
	if s := statusOf(fmt.Errorf("wrapped: %w", &serve.Shed{})); s != http.StatusServiceUnavailable {
		t.Errorf("wrapped shed = %d, want 503", s)
	}
}

// TestHandlerPanicIs500: a handler registered the way newMux registers
// its own panics mid-request; over a real connection the client reads a
// 500 with the JSON error body — not a reset — the log names the route
// and the model, and the same server answers the next request.
func TestHandlerPanicIs500(t *testing.T) {
	mux := newMux(testRegistry(t))
	handle(mux, "/v1/{model}/boom", func(http.ResponseWriter, *http.Request) {
		panic("posterior precision not SPD")
	})
	ts := httptest.NewServer(mux)
	defer ts.Close()
	var logged bytes.Buffer
	log.SetOutput(&logged)
	defer log.SetOutput(os.Stderr)

	resp, err := ts.Client().Get(ts.URL + "/v1/default/boom")
	if err != nil {
		t.Fatalf("the panic dropped the connection: %v", err)
	}
	var body map[string]string
	derr := json.NewDecoder(resp.Body).Decode(&body)
	resp.Body.Close()
	if resp.StatusCode != http.StatusInternalServerError || derr != nil || !strings.Contains(body["error"], "/v1/default/boom") {
		t.Fatalf("status %d, body %v (decode: %v); want 500 and a JSON error naming the path", resp.StatusCode, body, derr)
	}
	if got := logged.String(); !strings.Contains(got, "/v1/{model}/boom") || !strings.Contains(got, `"default"`) || !strings.Contains(got, "not SPD") {
		t.Fatalf("log line %q does not name route, model and panic", got)
	}

	resp, err = ts.Client().Get(ts.URL + "/v1/default/predict?user=0&item=1")
	if err != nil {
		t.Fatal(err)
	}
	resp.Body.Close()
	if resp.StatusCode != http.StatusOK {
		t.Fatalf("request after the panic: status %d, want 200", resp.StatusCode)
	}
}
