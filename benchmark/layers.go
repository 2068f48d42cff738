package main

import (
	"fmt"
	"os"
	"path/filepath"
	"runtime"
	"sort"
	"sync"
	"testing"
	"time"

	bpmf "repro"
	"repro/internal/comm"
	"repro/internal/core"
	"repro/internal/dist"
	"repro/internal/la"
	"repro/internal/mc"
	"repro/internal/order"
	"repro/internal/partition"
	"repro/internal/rank"
	"repro/internal/rng"
	"repro/internal/sched"
	"repro/internal/serve"
	"repro/internal/sparse"
)

// opBudget is how long each layer microbenchmark measures.
const opBudget = 80 * time.Millisecond

// timeOp calls f in batches until the budget is spent and returns the
// median time of one call in nanoseconds.
func timeOp(batch int, f func()) float64 {
	f() // warm caches and lazy set-up
	var per []float64
	for start := time.Now(); len(per) < 5 || time.Since(start) < opBudget; {
		t := time.Now()
		for i := 0; i < batch; i++ {
			f()
		}
		per = append(per, float64(time.Since(t).Nanoseconds())/float64(batch))
	}
	return median(per)
}

// degreeItem returns the (side, index) of the item whose rating count
// sits at the given percentile of all items of both sides.
func degreeItem(prob *core.Problem, pct float64) (side core.Side, idx int) {
	type item struct {
		side core.Side
		idx  int
		deg  int
	}
	items := make([]item, 0, prob.R.M+prob.R.N)
	for i := 0; i < prob.R.M; i++ {
		items = append(items, item{core.SideU, i, prob.R.RowNNZ(i)})
	}
	for j := 0; j < prob.Rt.M; j++ {
		items = append(items, item{core.SideV, j, prob.Rt.RowNNZ(j)})
	}
	sort.SliceStable(items, func(a, b int) bool { return items[a].deg < items[b].deg })
	it := items[min(int(pct/100*float64(len(items))), len(items)-1)]
	return it.side, it.idx
}

// kernelLayers times the dense-algebra, random-number and item-update
// layers from outside, on the workload's own factors and degrees.
func (e *env) kernelLayers(m map[string]float64, ds *dataset, ref *reference) {
	k := latentK
	cc := ref.cfg
	u, v := ref.sampler.U, ref.sampler.V
	prob := ds.prob

	// la: the gathered-panel syrk of the serial-Cholesky kernel, over the
	// heaviest item's ratings.
	heavy := 0
	for j := 1; j < prob.Rt.M; j++ {
		if prob.Rt.RowNNZ(j) > prob.Rt.RowNNZ(heavy) {
			heavy = j
		}
	}
	cols, vals := prob.Rt.Row(heavy)
	prec, rhs, panel := la.NewMatrix(k, k), la.NewVector(k), la.NewMatrix(la.GatherPanelRows, k)
	m["la.syrk_panel_ns_per_row"] = timeOp(4, func() {
		la.SyrkAxpyPanelLower(cc.Alpha, u, cols, vals, prec, rhs, panel)
	}) / float64(max(len(cols), 1))

	spd := la.Eye(k)
	la.SyrkAxpyPanelLower(cc.Alpha, u, cols, vals, spd, rhs, panel)
	la.SymmetrizeLower(spd)
	l, inv, ev, col := la.NewMatrix(k, k), la.NewMatrix(k, k), la.NewVector(k), la.NewVector(k)
	m["la.chol_inv_ns"] = timeOp(16, func() {
		if err := la.Cholesky(spd, l); err != nil {
			panic(err)
		}
		la.InvFromCholWS(l, inv, ev, col)
	})

	scores := make([]float64, v.Rows)
	m["la.gemv_ns_per_row"] = timeOp(2, func() { la.Gemv(1, v, u.Row(0), 0, scores) }) / float64(v.Rows)

	const batchUsers = 8
	users, out := la.NewMatrix(batchUsers, k), la.NewMatrix(batchUsers, v.Rows)
	copy(users.Data, u.Data[:batchUsers*k])
	m["rank.score_batch_ns_per_item"] = timeOp(1, func() { rank.ScoreBatchInto(v, users, out) }) / float64(batchUsers*v.Rows)
	excl, _ := ds.full.Row(0)
	m["rank.topn_ns_per_item"] = timeOp(2, func() { rank.TopNScoresExcluding(scores, excl, recommendN) }) / float64(v.Rows)

	// rng: the two multivariate draws of the sampler.
	stream := rng.NewKeyed(e.seed, 0xbe7c4)
	mu, dst, scratch := la.NewVector(k), la.NewVector(k), la.NewVector(k)
	m["rng.mvn_ns"] = timeOp(64, func() { stream.MVNFromPrecChol(mu, l, dst, scratch) })
	wd, wa, wb := la.NewMatrix(k, k), la.NewMatrix(k, k), la.NewMatrix(k, k)
	m["rng.wishart_ns"] = timeOp(8, func() { stream.WishartWS(l, float64(k+2), wd, wa, wb) })

	// core: one item update at the workload's median and p99 degree.
	ws := core.NewWorkspace(k)
	row := la.NewVector(k)
	update := func(pct float64) func() {
		side, idx := degreeItem(prob, pct)
		mat, other, hyper := prob.R, v, ref.sampler.HU
		if side == core.SideV {
			mat, other, hyper = prob.Rt, u, ref.sampler.HV
		}
		cols, vals := mat.Row(idx)
		kern := cc.SelectKernel(len(cols))
		return func() {
			core.UpdateItem(ws, kern, &cc, cols, vals, other, hyper,
				ws.ItemStream(cc.Seed, 0, side, idx), nil, nil, row)
		}
	}
	atP50, atP99 := update(50), update(99)
	m["core.update_item_ns.p50deg"] = timeOp(16, atP50)
	m["core.update_item_ns.p99deg"] = timeOp(4, atP99)
	m["core.update_item_allocs"] = testing.AllocsPerRun(20, atP50) + testing.AllocsPerRun(20, atP99)

	// sched and order: scheduling cost with no work in the body.
	pool := sched.NewPool(2)
	n := prob.R.M + prob.R.N
	m["sched.parallel_for_ns_per_item"] = timeOp(2, func() {
		pool.ParallelFor(0, n, 1, func(*sched.Worker, int, int) {})
	}) / float64(n)
	pool.Close()
	t0 := time.Now()
	order.Build(prob.R, order.Options{HeavyThreshold: cc.KernelThreshold})
	m["order.build_s"] = time.Since(t0).Seconds()
}

// storageLayers times the sparse and checkpoint file layers.
func (e *env) storageLayers(m map[string]float64, ds *dataset, ref *reference) error {
	dir := filepath.Join(e.workDir, "layers")
	if err := os.MkdirAll(dir, 0o755); err != nil {
		return err
	}
	path := filepath.Join(dir, "m.bcsr")
	var werr error
	m["sparse.write_sharded_s"] = timeOp(1, func() {
		f, err := os.Create(path)
		if err == nil {
			err = sparse.WriteBinarySharded(f, ds.full, 1<<16)
			f.Close()
		}
		if err != nil {
			werr = err
		}
	}) / 1e9
	if werr != nil {
		return werr
	}
	pool := sched.NewPool(2)
	defer pool.Close()
	m["sparse.load_s"] = timeOp(1, func() {
		if _, err := sparse.LoadPool(path, pool); err != nil {
			werr = err
		}
	}) / 1e9
	m["sparse.load_mb_per_s"] = float64(ds.bytes) / 1e6 / m["sparse.load_s"]

	var delta *sparse.COO
	batches := roundRatings(e.w, e.seed, 0, ds.full)
	delta = sparse.NewCOO(ds.full.M+e.w.newUsers, ds.full.N, e.w.appends*e.w.appendSize)
	seen := map[[2]int32]bool{}
	for _, b := range batches {
		for _, en := range b {
			if key := [2]int32{en.Row, en.Col}; !seen[key] {
				seen[key] = true
				delta.Add(int(en.Row), int(en.Col), en.Val)
			}
		}
	}
	dcsr := delta.ToCSR()
	m["sparse.merge_s"] = timeOp(1, func() {
		if _, err := sparse.MergeLastWins(ds.full, dcsr); err != nil {
			werr = err
		}
	}) / 1e9

	stream := func(visit func(sparse.Entry) error) error {
		for i := 0; i < ds.full.M; i++ {
			cols, vals := ds.full.Row(i)
			for p, c := range cols {
				if err := visit(sparse.Entry{Row: int32(i), Col: c, Val: vals[p]}); err != nil {
					return err
				}
			}
		}
		return nil
	}
	t0 := time.Now()
	if _, err := (sparse.Converter{}).ConvertEntries(ds.full.M, ds.full.N, stream, filepath.Join(dir, "conv.bcsr")); err != nil {
		return err
	}
	m["sparse.convert_ratings_per_s"] = float64(ds.full.NNZ()) / time.Since(t0).Seconds()

	// core: checkpoint write and read.
	ckPath := filepath.Join(dir, "c.ckpt")
	m["core.ckpt_write_s"] = timeOp(1, func() {
		if err := core.WriteCheckpointFile(ckPath, ref.ckpt.Write); err != nil {
			werr = err
		}
	}) / 1e9
	m["core.ckpt_read_s"] = timeOp(1, func() {
		f, err := os.Open(ckPath)
		if err == nil {
			_, err = core.ReadCheckpoint(f)
			f.Close()
		}
		if err != nil {
			werr = err
		}
	}) / 1e9
	if fi, err := os.Stat(ckPath); err == nil {
		m["core.ckpt_bytes"] = float64(fi.Size())
	}
	t0 = time.Now()
	if _, err := serve.LoadModel(ckPath, serve.Options{}); err != nil {
		return err
	}
	m["serve.model_build_s"] = time.Since(t0).Seconds()
	return werr
}

// engineLayers measures the layers of the workload's training engine:
// the multicore engine against the sequential baseline, or the
// distributed engine's partition, traffic and time split. Layers the
// engine does not run report 0.
func (e *env) engineLayers(m map[string]float64, ds *dataset, ref *reference, engineUPS float64) error {
	for _, name := range []string{
		"mc.speedup_vs_seq", "mc.allocs_per_iter", "mc.bytes_per_iter",
		"partition.build_s", "partition.ghost_rows", "partition.imbalance",
		"comm.allreduce_us", "comm.bytes_per_iter", "comm.msgs_per_iter",
		"dist.compute_s", "dist.wait_s", "dist.overlap_share", "dist.items_sent_per_iter",
		"dist.flushes_per_iter", "dist.speedup_vs_seq",
	} {
		m[name] = 0
	}
	cc := ref.cfg
	switch e.w.engine {
	case bpmf.WorkSteal:
		m["mc.speedup_vs_seq"] = engineUPS / ref.ups
		// Steady-state allocation of one more iteration: the difference
		// between a 2- and a 3-iteration run.
		alloc := func(iters int) (mallocs, bytes float64, err error) {
			c := cc
			c.Iters, c.Burnin = iters, 1
			var a, b runtime.MemStats
			runtime.GC()
			runtime.ReadMemStats(&a)
			_, err = mc.Run(mc.WorkSteal, c, ds.prob, e.w.threads)
			runtime.ReadMemStats(&b)
			return float64(b.Mallocs - a.Mallocs), float64(b.TotalAlloc - a.TotalAlloc), err
		}
		m1, b1, err := alloc(2)
		if err != nil {
			return err
		}
		m2, b2, err := alloc(3)
		if err != nil {
			return err
		}
		m["mc.allocs_per_iter"], m["mc.bytes_per_iter"] = m2-m1, b2-b1
	case bpmf.Distributed:
		opt := dist.Options{Ranks: e.w.ranks, ThreadsPerRank: e.w.threads}
		t0 := time.Now()
		plan, _ := dist.BuildPlan(ds.prob, opt)
		m["partition.build_s"] = time.Since(t0).Seconds()
		sends, _ := partition.CommVolume(plan.R, plan.RowBounds, plan.ColBounds)
		m["partition.ghost_rows"] = float64(sends)
		weights := partition.DefaultCostModel().Weights(plan.R.RowDegrees())
		var total float64
		for _, w := range weights {
			total += w
		}
		m["partition.imbalance"] = partition.Bottleneck(weights, plan.RowBounds) / (total / float64(e.w.ranks))

		res, stats, err := dist.RunInProc(cc, ds.prob, opt)
		if err != nil {
			return err
		}
		if !equalFloats(res.U.Data, ref.sampler.U.Data) || !equalFloats(res.V.Data, ref.sampler.V.Data) {
			e.wrongf("dist.RunInProc left the sequential reference chain")
		}
		iters := float64(cc.Iters)
		var compute, wait, overlap time.Duration
		for _, st := range stats {
			compute, wait = max(compute, st.ComputeTime), max(wait, st.WaitTime)
			overlap = max(overlap, st.OverlapTime)
			m["comm.bytes_per_iter"] += float64(st.Comm.BytesSent) / iters
			m["comm.msgs_per_iter"] += float64(st.Comm.MsgsSent) / iters
			m["dist.items_sent_per_iter"] += float64(st.ItemsSent) / iters
			m["dist.flushes_per_iter"] += float64(st.Flushes) / iters
		}
		m["dist.compute_s"], m["dist.wait_s"] = compute.Seconds(), wait.Seconds()
		if compute > 0 {
			m["dist.overlap_share"] = overlap.Seconds() / compute.Seconds()
		}
		m["dist.speedup_vs_seq"] = engineUPS / ref.ups

		us, err := allreduceMicros(e.w.ranks, latentK*latentK+latentK+1)
		if err != nil {
			return err
		}
		m["comm.allreduce_us"] = us
	}
	return nil
}

// allreduceMicros times the ordered allreduce of n floats on an
// in-process fabric, per call.
func allreduceMicros(ranks, n int) (float64, error) {
	fab := comm.NewFabric(ranks)
	defer fab.Close()
	const calls = 200
	errs := make([]error, ranks)
	var wg sync.WaitGroup
	t0 := time.Now()
	for r, c := range fab.Comms() {
		wg.Add(1)
		go func(r int, c *comm.Comm) {
			defer wg.Done()
			buf := make([]float64, n)
			for i := 0; i < calls; i++ {
				if _, err := c.AllreduceSumOrderedE(buf); err != nil {
					errs[r] = err
					return
				}
			}
		}(r, c)
	}
	wg.Wait()
	for _, err := range errs {
		if err != nil {
			return 0, fmt.Errorf("allreduce: %w", err)
		}
	}
	return time.Since(t0).Seconds() * 1e6 / calls, nil
}

// serveLayers replays the hold stage's requests against an in-process
// model of the same checkpoint, route by route, and measures what the
// batcher adds on top of a direct call.
func (e *env) serveLayers(m map[string]float64, ref *reference, ds *dataset, sv *serveOut, reqs []request) error {
	model, err := serve.NewModel(ref.ckpt, serve.Options{Exclude: ds.full})
	if err != nil {
		return err
	}
	var perRoute [numRoutes][]float64
	for i := range reqs {
		q := &reqs[i]
		t := time.Now()
		switch q.route {
		case routePredict:
			_, err = model.Predict(q.user, q.item)
		case routeRecommend:
			_, err = model.Recommend(q.user, recommendN)
		default:
			var uvec la.Vector
			if uvec, err = model.FoldIn(q.rated, q.vals, i); err == nil {
				_, err = model.RecommendVector(uvec, q.rated, recommendN)
			}
		}
		if err != nil {
			return err
		}
		perRoute[q.route] = append(perRoute[q.route], float64(time.Since(t).Nanoseconds()))
	}
	m["serve.predict_ns"] = median(perRoute[routePredict])
	m["serve.recommend_us"] = median(perRoute[routeRecommend]) / 1e3
	m["serve.foldin_us"] = median(perRoute[routeFoldin]) / 1e3

	// Batcher: the same recommendations from two goroutines, through the
	// batcher and directly.
	bt := serve.NewBatcher(serve.DefaultBatchOptions())
	two := func(call func(user int) error) (float64, error) {
		const each = 200
		errs := make([]error, 2)
		var wg sync.WaitGroup
		t0 := time.Now()
		for g := 0; g < 2; g++ {
			wg.Add(1)
			go func(g int) {
				defer wg.Done()
				for i := 0; i < each; i++ {
					if err := call((g*each + i) % model.NumUsers()); err != nil {
						errs[g] = err
						return
					}
				}
			}(g)
		}
		wg.Wait()
		return time.Since(t0).Seconds() * 1e6 / each, errs[0]
	}
	direct, err := two(func(user int) error { _, err := model.Recommend(user, recommendN); return err })
	if err != nil {
		return err
	}
	batched, err := two(func(user int) error { _, err := bt.Recommend(model, user, recommendN); return err })
	if err != nil {
		return err
	}
	m["serve.batcher_overhead_us"] = batched - direct

	// Client-side latencies of the hold stage, split by route. Service
	// time (sent → done) minus the in-process time of the same call is
	// what HTTP, admission and the batcher add.
	var service [numRoutes][]float64
	for _, s := range sv.hold {
		service[s.route] = append(service[s.route], s.done.Sub(s.sent).Seconds()*1e6)
	}
	m["serve.http_overhead_us"] = median(service[routePredict]) - m["serve.predict_ns"]/1e3
	for r := route(0); r < numRoutes; r++ {
		lat := latencyMs(sv.hold, func(s sample) bool { return s.route == r })
		m["serve."+routeNames[r]+"_ms_p50"], _ = percentile(lat, 50)
		m["serve."+routeNames[r]+"_ms_p90"], _ = percentile(lat, 90)
	}
	return nil
}

// ladderStep is one open-loop step of the capacity ladder.
type ladderStep struct {
	mult, rps, p99Ms, failedShare float64
	backlog                       bool
}

var ladderMults = []float64{0.5, 1, 1.5, 2}

// ladder reports p99 and backlog growth at fixed multiples of the hold
// rate: the hold stage itself is the 1x step, the others are open-loop
// steps of ladderRequests requests, enough to support a p99.
func (e *env) ladder(gen *loadgen, hold []sample, users, items int) []ladderStep {
	var steps []ladderStep
	for i, mult := range ladderMults {
		rps := e.w.holdRPS * mult
		samples := hold
		if mult != 1 {
			reqs := buildRequests(e.seed, uint64(10+i), ladderRequests, rps, users, items)
			id := e.tr.start(fmt.Sprintf("serve.ladder.x%g", mult), 0)
			samples, _ = gen.run(reqs, true, 0)
			e.tr.end(id)
		}
		st := ladderStep{mult: mult, rps: rps}
		st.p99Ms, _ = percentile(latencyMs(samples, nil), 99)
		_, failed := countOK(samples)
		st.failedShare = float64(failed) / float64(len(samples))
		q := len(samples) / 4
		late := func(ss []sample) float64 {
			var l []float64
			for _, s := range ss {
				l = append(l, s.sent.Sub(s.due).Seconds()*1e3)
			}
			return median(l)
		}
		st.backlog = late(samples[len(samples)-q:]) > late(samples[:q])+10
		steps = append(steps, st)
	}
	return steps
}
