// Serving: train a model, checkpoint it, load the checkpoint into a
// serving snapshot, and answer the three production query shapes — a
// point prediction with its confidence interval, a top-N recommendation,
// and a cold-start fold-in for a user the chain never saw. A second act
// launches a two-model registry from one JSON config file — the
// multi-model deployment `bpmf-serve -config` runs behind HTTP — and
// hot-reloads one model while the other's answers stay put. A third act
// drives one route's admission gate with the closed-loop load scheduler
// from cmd/bpmf-load, reading back the latency percentiles and checking
// that an answer through the gate is Model.Recommend's.
//
// This is the paper's end-to-end story in miniature: a long Gibbs run
// publishes its posterior as a checkpoint, and a server turns that
// checkpoint into live predictions with the uncertainty estimates BPMF
// is valued for.
package main

import (
	"context"
	"fmt"
	"log"
	"os"
	"path/filepath"
	"time"

	"repro"
	"repro/internal/config"
	"repro/internal/load"
	"repro/internal/serve"
	"repro/internal/sparse"
)

func main() {
	// A tiny two-taste world: users 0-2 like items 0-1, users 3-5 like
	// items 3-4; item 2 is polarizing.
	ratings := []bpmf.Rating{
		{User: 0, Item: 0, Value: 5}, {User: 0, Item: 1, Value: 4}, {User: 0, Item: 3, Value: 1},
		{User: 1, Item: 0, Value: 4}, {User: 1, Item: 1, Value: 5}, {User: 1, Item: 2, Value: 2},
		{User: 2, Item: 0, Value: 5}, {User: 2, Item: 1, Value: 5}, {User: 2, Item: 4, Value: 2},
		{User: 3, Item: 3, Value: 5}, {User: 3, Item: 4, Value: 4}, {User: 3, Item: 0, Value: 1},
		{User: 4, Item: 3, Value: 4}, {User: 4, Item: 4, Value: 5}, {User: 4, Item: 1, Value: 2},
		{User: 5, Item: 3, Value: 5}, {User: 5, Item: 4, Value: 5}, {User: 5, Item: 2, Value: 1},
	}
	data, err := bpmf.DataFromRatings(6, 5, ratings, 0, 1)
	if err != nil {
		log.Fatal(err)
	}

	cfg := bpmf.Defaults()
	cfg.K = 4
	cfg.Iters = 60
	cfg.Burnin = 20
	cfg.ClampMin, cfg.ClampMax = 1, 5

	// Train and publish the chain as a checkpoint file — exactly what
	// `bpmf -ckpt-out` does.
	dir, err := os.MkdirTemp("", "bpmf-serving")
	if err != nil {
		log.Fatal(err)
	}
	defer os.RemoveAll(dir)
	ckptPath := filepath.Join(dir, "model.ckpt")
	if err := sparse.ReplaceFile(ckptPath, func(f *os.File) error {
		_, err := bpmf.TrainWithCheckpoint(data, cfg, f)
		return err
	}); err != nil {
		log.Fatal(err)
	}

	// The training matrix doubles as the exclusion list: Recommend skips
	// items a user already rated.
	coo := sparse.NewCOO(6, 5, len(ratings))
	for _, r := range ratings {
		coo.Add(r.User, r.Item, r.Value)
	}

	// Load the checkpoint into a hot-swappable server — what bpmf-serve
	// does behind HTTP.
	srv, err := serve.Open(ckptPath, serve.Options{
		Alpha: cfg.Alpha, ClampMin: 1, ClampMax: 5,
		Exclude: coo.ToCSR(),
	})
	if err != nil {
		log.Fatal(err)
	}
	m := srv.Model()

	p, err := m.Predict(0, 4)
	if err != nil {
		log.Fatal(err)
	}
	fmt.Printf("user 0 x item 4 (should be low):  %.2f ± %.2f\n", p.Score, p.Std)

	top, err := m.Recommend(1, 2)
	if err != nil {
		log.Fatal(err)
	}
	fmt.Printf("top-2 for user 1:")
	for _, it := range top {
		fmt.Printf("  item %d (%.2f)", it.Index, it.Score)
	}
	fmt.Println()

	// Cold start: a brand-new user who loved items 3 and 4 gets a factor
	// row sampled from the posterior conditional — no retraining.
	u, err := m.FoldIn([]int32{3, 4}, []float64{5, 5}, 0)
	if err != nil {
		log.Fatal(err)
	}
	rec, err := m.RecommendVector(u, []int32{3, 4}, 2)
	if err != nil {
		log.Fatal(err)
	}
	fmt.Printf("folded-in user (likes 3, 4) gets:")
	for _, it := range rec {
		fmt.Printf("  item %d (%.2f)", it.Index, it.Score)
	}
	fmt.Println()

	// --- Act two: a two-model registry from one config file. ---
	//
	// Train a second, longer chain on the same data and publish both
	// checkpoints side by side — a staging model next to production.
	stagingPath := filepath.Join(dir, "staging.ckpt")
	longCfg := cfg
	longCfg.Iters, longCfg.Burnin = 120, 40
	if err := sparse.ReplaceFile(stagingPath, func(f *os.File) error {
		_, err := bpmf.TrainWithCheckpoint(data, longCfg, f)
		return err
	}); err != nil {
		log.Fatal(err)
	}

	// One JSON file declares the whole registry; `bpmf-serve -config`
	// accepts exactly this shape.
	cfgPath := filepath.Join(dir, "serve.json")
	registryJSON := fmt.Sprintf(`{
  "models": {
    "prod":    {"ckpt": %q, "clamp": {"min": 1, "max": 5}},
    "staging": {"ckpt": %q}
  }
}`, ckptPath, stagingPath)
	if err := os.WriteFile(cfgPath, []byte(registryJSON), 0o644); err != nil {
		log.Fatal(err)
	}

	sc := config.DefaultServe()
	if err := config.LoadFile(cfgPath, &sc); err != nil {
		log.Fatal(err)
	}
	if err := sc.Validate(); err != nil {
		log.Fatal(err)
	}
	models, err := sc.EffectiveModels()
	if err != nil {
		log.Fatal(err)
	}
	specs := make([]serve.ModelSpec, 0, len(models))
	for name, mc := range models {
		specs = append(specs, serve.ModelSpec{
			Name: name,
			Path: mc.Ckpt,
			Opts: serve.Options{
				Alpha:    mc.Alpha,
				ClampMin: mc.Clamp.Min,
				ClampMax: mc.Clamp.Max,
			},
		})
	}
	reg, err := serve.NewRegistry(specs, serve.DefaultBatchOptions())
	if err != nil {
		log.Fatal(err)
	}
	defer reg.Close()

	fmt.Printf("\nregistry serves %d models: %v\n", reg.Len(), reg.Names())
	for _, name := range reg.Names() {
		msrv, _ := reg.Get(name)
		p, err := msrv.Model().Predict(0, 4)
		if err != nil {
			log.Fatal(err)
		}
		fmt.Printf("  %-7s  user 0 x item 4: %.2f ± %.2f\n", name, p.Score, p.Std)
	}

	// Hot-reload only staging (a longer retrain just landed); prod's
	// snapshot — and its answers — never move.
	prodSrv, _ := reg.Get("prod")
	prodBefore, err := prodSrv.Model().Predict(0, 4)
	if err != nil {
		log.Fatal(err)
	}
	stagingSrv, _ := reg.Get("staging")
	if err := stagingSrv.Reload(); err != nil {
		log.Fatal(err)
	}
	prodAfter, err := prodSrv.Model().Predict(0, 4)
	if err != nil {
		log.Fatal(err)
	}
	fmt.Printf("after reloading staging: prod still answers %.2f (was %.2f), staging reloads=%d, prod reloads=%d\n",
		prodAfter.Score, prodBefore.Score, stagingSrv.Reloads.Load(), prodSrv.Reloads.Load())

	// --- Act three: serving under load. ---
	//
	// Every route of the registry sits behind an admission gate (what
	// bpmf-serve configures from its Serving section): a ranking runs on
	// its caller's goroutine in one of GOMAXPROCS scoring slots, and
	// callers beyond the queue bound waiting for a slot are shed. Drive
	// the prod route's gate with the same closed-loop scheduler
	// cmd/bpmf-load uses over HTTP — here in-process, so the story runs
	// anywhere.
	bt := reg.Batcher("prod")
	prodModel := prodSrv.Model()

	sched := load.Config{Mode: "closed", VUs: 8, Duration: 300 * time.Millisecond, Warmup: 50 * time.Millisecond}
	res, err := load.Run(context.Background(), sched, func(ctx context.Context, vu, seq int) (load.Response, error) {
		if _, err := bt.Recommend(prodModel, (vu+seq)%6, 2); err != nil {
			return load.Response{}, err
		}
		return load.Response{Status: 200}, nil
	})
	if err != nil {
		log.Fatal(err)
	}
	fmt.Printf("\ngated load (8 VUs, closed loop): %d requests, p50=%s p99=%s, %.0f req/s, shed=%d\n",
		res.Completed, res.P50, res.P99, res.Throughput, res.Shed)

	// And an answer through the gate is exactly the model's answer.
	gated, err := bt.Recommend(prodModel, 1, 2)
	if err != nil {
		log.Fatal(err)
	}
	direct, err := prodModel.Recommend(1, 2)
	if err != nil {
		log.Fatal(err)
	}
	same := len(gated) == len(direct)
	for i := 0; same && i < len(gated); i++ {
		same = gated[i] == direct[i]
	}
	fmt.Printf("answers through the gate bit-identical to Model.Recommend: %v\n", same)
}
