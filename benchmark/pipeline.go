package main

import (
	"encoding/json"
	"fmt"
	"math"
	"net/http"
	"os"
	"os/exec"
	"path/filepath"
	"runtime"
	"strconv"
	"time"

	bpmf "repro"
	"repro/internal/core"
	"repro/internal/datagen"
	"repro/internal/dist"
	"repro/internal/feed"
	"repro/internal/rng"
	"repro/internal/serve"
	"repro/internal/sparse"
)

// How --seconds is spent. The train and serve stages are bound by time
// and take a third each; the refresh stage is a fixed number of rounds
// per workload that took the last third at calibration (later rounds
// replay more delta shards and are slower, so a median over however many
// rounds fit would shift with the speed it measures). The traced run
// needs the engine's counts, not a steady median, so its train stage is
// short.
const (
	trainShare, tracedTrainShare = 1.0 / 3, 1.0 / 12
	serveShare                   = 1.0 / 3
	// Within the serve stage: a warm-up, then the closed loop. The traced
	// run puts the open-loop hold stage and the capacity ladder, whose
	// steps are ladderRequests long, before a shorter closed loop.
	warmShare, tracedHoldShare, tracedClosedShare = 0.07, 0.6, 0.15
	ladderRequests                                = 1200
	closedSegments                                = 16
	// The open loop has enough connections that an arrival rarely waits
	// for one (it queues, and is charged the wait, when it does); the
	// closed loop has enough clients to keep both cores busy, so that it
	// measures capacity and not the round-trip time of a ping-pong.
	holdConns, closedClients = 4, 8
	setupRepeats             = 3
	roundTimeout             = 30 * time.Second
)

// env is the state of one benchmark run: one workload, one seed.
type env struct {
	w       workload
	seed    uint64
	seconds float64
	binDir  string // where bpmf-serve and bpmf-trainer are built
	workDir string // this run's scratch directory, removed at exit
	self    string // the benchmark's own executable
	ps      *procs
	pr      *prober
	tr      *tracer // nil unless this is the traced run

	attempted, failed int
	wrong             []string       // correctness failures
	detail            map[string]any // the samples behind the medians, for the -out file
}

func (e *env) wrongf(format string, args ...any) {
	e.wrong = append(e.wrong, fmt.Sprintf(format, args...))
}

// buildBinaries compiles the two programs under test from the checkout
// the benchmark runs in.
func (e *env) buildBinaries() (time.Duration, error) {
	if err := os.MkdirAll(e.binDir, 0o755); err != nil {
		return 0, err
	}
	t0 := time.Now()
	cmd := exec.Command("go", "build", "-o", e.binDir+string(filepath.Separator), "./cmd/bpmf-serve", "./cmd/bpmf-trainer")
	if out, err := cmd.CombinedOutput(); err != nil {
		return 0, fmt.Errorf("go build of the programs under test: %w\n%s", err, out)
	}
	return time.Since(t0), nil
}

// dataset is a workload's generated input.
type dataset struct {
	full  *sparse.CSR // what is written to the .bcsr file
	prob  *core.Problem
	bcsr  string
	bytes int64
}

// makeData generates the rating matrix from the seed and writes it as
// binary shards.
func (e *env) makeData() (*dataset, error) {
	ds := &dataset{bcsr: filepath.Join(e.workDir, "base.bcsr")}
	ds.full = datagen.Generate(e.w.spec(e.seed)).R
	f, err := os.Create(ds.bcsr)
	if err != nil {
		return nil, err
	}
	if err := sparse.WriteBinarySharded(f, ds.full, 1<<16); err != nil {
		f.Close()
		return nil, err
	}
	if err := f.Close(); err != nil {
		return nil, err
	}
	if fi, err := os.Stat(ds.bcsr); err == nil {
		ds.bytes = fi.Size()
	}
	train, test := sparse.SplitTrainTest(ds.full, testFrac, e.seed)
	ds.prob = core.NewProblem(train, test)
	return ds, nil
}

// coreConfig is the internal form of the workload's training config,
// with the moment groups that make the sequential sampler draw the
// engine's exact chain (the distributed engine reduces its moments per
// rank; every other engine uses one group).
func (e *env) coreConfig(prob *core.Problem) core.Config {
	cc := core.DefaultConfig()
	cc.K, cc.Iters, cc.Burnin, cc.Seed = latentK, chainIters, chainBurnin, e.seed
	if e.w.engine == bpmf.Distributed {
		plan, _ := dist.BuildPlan(prob, dist.Options{Ranks: e.w.ranks})
		cc.MomentGroupsU, cc.MomentGroupsV = dist.MomentGroupsOf(plan)
	}
	return cc
}

// reference is the base training: the sequential chain whose factors
// every engine must reproduce, and the checkpoint the later stages serve.
type reference struct {
	cfg     core.Config
	rmse    float64
	ups     float64
	ckpt    *core.Checkpoint
	path    string
	sampler *core.Sampler
}

func (e *env) referenceChain(ds *dataset) (*reference, error) {
	cfg := e.coreConfig(ds.prob)
	s, err := core.NewSampler(cfg, ds.prob)
	if err != nil {
		return nil, err
	}
	res := s.Run()
	ref := &reference{cfg: cfg, rmse: res.FinalRMSE(), ups: res.UpdatesPerSec(), ckpt: s.Checkpoint(),
		path: filepath.Join(e.workDir, "base.ckpt"), sampler: s}
	return ref, core.WriteCheckpointFile(ref.path, ref.ckpt.Write)
}

// setUp is everything before the first measured stage: datagen and shard
// write, base training and its checkpoint, and a bpmf-serve started on
// them until /healthz reports ready. It runs setupRepeats times on the
// same inputs, so that set-up time is a median (once in the traced run,
// which does not report it); the servers are stopped again outside the
// timed part.
func (e *env) setUp() (ds *dataset, ref *reference, took []float64, err error) {
	repeats := setupRepeats
	if e.tr != nil {
		repeats = 1
	}
	for i := 0; i < repeats; i++ {
		t0 := time.Now()
		if ds, err = e.makeData(); err != nil {
			return nil, nil, nil, err
		}
		if ref, err = e.referenceChain(ds); err != nil {
			return nil, nil, nil, err
		}
		srv, err := e.ps.startServer(filepath.Join(e.binDir, "bpmf-serve"), e.workDir, "setup",
			"-ckpt", ref.path, "-threads", "2", "-data", ds.bcsr)
		if err != nil {
			return nil, nil, nil, err
		}
		took = append(took, time.Since(t0).Seconds())
		srv.stop()
	}
	return ds, ref, took, nil
}

// ---------------------------------------------------------------- train

type trainRep struct {
	UPS     float64  `json:"ups"`
	WallS   float64  `json:"wall_s"`
	RMSE    float64  `json:"rmse"`
	Factors uint64   `json:"factors"` // digest of the final U and V, bit for bit
	Kernels [3]int64 `json:"kernels"`
	Machine float64  `json:"machine"` // machine factor around the call
}

// digestOf hashes the factor rows of both sides bit for bit (FNV-1a over
// the float bits, users first), so that two chains can be compared
// across processes.
func digestOf(users, items int, user, item func(int) []float64) uint64 {
	h := uint64(14695981039346656037)
	add := func(row []float64) {
		for _, x := range row {
			h = (h ^ math.Float64bits(x)) * 1099511628211
		}
	}
	for i := 0; i < users; i++ {
		add(user(i))
	}
	for j := 0; j < items; j++ {
		add(item(j))
	}
	return h
}

type trainOut struct {
	Reps  []trainRep `json:"reps"`
	RSSMB float64    `json:"rss_mb"` // the child's own VmHWM after the warm-up call
}

// trainChild is the body of the measured child process: load the .bcsr
// file through the public API and call Train over and over.
func trainChild(w workload, seed uint64, dataPath string, seconds float64) error {
	data, err := bpmf.DataFromFile(dataPath, testFrac, seed)
	if err != nil {
		return err
	}
	var out trainOut
	cfg := w.trainConfig(seed)
	if _, err := bpmf.Train(data, cfg); err != nil { // warm-up, discarded
		return err
	}
	// The child's peak memory is read here, before the probe's own
	// arrays exist: after the load and one whole Train call.
	if b, err := os.ReadFile("/proc/self/status"); err == nil {
		out.RSSMB = float64(vmHWM(b)) / 1024
	}
	sr := newProber().series()
	for start := time.Now(); len(out.Reps) == 0 || time.Since(start).Seconds() < seconds; {
		// Every repetition starts from a collected heap (the probe
		// collects), as testing.B does, so that neither its time nor the
		// process's peak memory depends on where the previous call left
		// the collector.
		t := time.Now()
		res, err := bpmf.Train(data, cfg)
		if err != nil {
			return err
		}
		wall := time.Since(t).Seconds()
		out.Reps = append(out.Reps, trainRep{UPS: res.UpdatesPerSec(), WallS: wall, Machine: sr.add(wall),
			RMSE: res.RMSE(), Kernels: res.KernelCounts(),
			Factors: digestOf(data.NumUsers(), data.NumItems(), res.UserFactors, res.ItemFactors)})
	}
	return json.NewEncoder(os.Stdout).Encode(out)
}

// trainStage runs the child and checks every repetition against the
// reference chain.
func (e *env) trainStage(ds *dataset, ref *reference, refs references) (*trainOut, error) {
	slice := e.seconds * trainShare
	if e.tr != nil {
		slice = e.seconds * tracedTrainShare
	}
	outPath := filepath.Join(e.workDir, "train.json")
	of, err := os.Create(outPath)
	if err != nil {
		return nil, err
	}
	p, err := e.ps.start("train child", filepath.Join(e.workDir, "train.log"), of, e.self,
		"-stage", "train", "-workload", e.w.name, "-seed", strconv.FormatUint(e.seed, 10),
		"-seconds", strconv.FormatFloat(slice, 'g', -1, 64), "-data", ds.bcsr)
	of.Close()
	if err != nil {
		return nil, err
	}
	if err := p.wait(150 * time.Second); err != nil {
		return nil, err
	}
	b, err := os.ReadFile(outPath)
	if err != nil {
		return nil, err
	}
	var out trainOut
	if err := json.Unmarshal(b, &out); err != nil {
		return nil, fmt.Errorf("train child output: %w", err)
	}
	// Every engine samples the reference chain bit for bit. The RMSE may
	// differ in its last bits, because the distributed engine sums the
	// squared errors per rank.
	u, v := ref.sampler.U, ref.sampler.V
	want := digestOf(u.Rows, v.Rows, func(i int) []float64 { return u.Row(i) }, func(j int) []float64 { return v.Row(j) })
	for i, r := range out.Reps {
		e.attempted++
		if r.Factors != want || math.Abs(r.RMSE-ref.rmse) > 1e-12 {
			e.failed++
			e.wrongf("train repetition %d left the reference chain: factors %x vs %x, RMSE %.17g vs %.17g",
				i, r.Factors, want, r.RMSE, ref.rmse)
		}
	}
	// Seed 1 is also pinned to a recorded value, on the architecture it
	// was recorded on (fused multiply-add changes the bits elsewhere).
	if want, ok := refs.RMSE[e.w.name]; ok && e.seed == 1 && refs.GOARCH == runtime.GOARCH {
		e.attempted++
		if math.Abs(ref.rmse-want) > 1e-12 {
			e.failed++
			e.wrongf("seed 1 RMSE %.17g differs from reference.json %.17g", ref.rmse, want)
		}
	}
	return &out, nil
}

// ---------------------------------------------------------------- serve

type serveOut struct {
	hold                    []sample  // traced run: the open-loop hold stage
	closedN                 int       // requests of the closed loop
	p50Ms, p99Ms            float64   // traced run: medians over the hold stage's segments
	segP50, segP99          []float64 // per segment, behind the medians
	segRPS                  *series   // successful requests per second of each closed-loop segment
	lateP99Ms               float64
	sent, ok, shed, failedN int
	rssMB                   float64
	ladder                  []ladderStep
}

// serveStage drives a real bpmf-serve over HTTP: a warm-up, then a closed
// loop. The traced run inserts the open-loop hold stage at the pinned
// rate and the capacity ladder before the closed loop.
func (e *env) serveStage(ds *dataset, ref *reference) (*serveOut, error) {
	srv, err := e.ps.startServer(filepath.Join(e.binDir, "bpmf-serve"), e.workDir, "mix",
		"-ckpt", ref.path, "-threads", "2", "-data", ds.bcsr)
	if err != nil {
		return nil, err
	}
	defer srv.stop()
	model, err := serve.NewModel(ref.ckpt, serve.Options{})
	if err != nil {
		return nil, err
	}
	chk := &checker{model: model, rated: ds.full}
	closedGen := newLoadgen(srv.base, chk, closedClients)
	defer closedGen.close()

	out := &serveOut{}
	T, closedShare := e.seconds*serveShare, 1-warmShare
	if e.tr != nil {
		closedShare = tracedClosedShare
	}
	users, items := ds.full.M, ds.full.N
	secs := func(share float64) time.Duration { return time.Duration(T * share * float64(time.Second)) }
	closedReqs := buildRequests(e.seed, 3, 1<<14, e.w.holdRPS, users, items)
	closedGen.run(closedReqs, false, secs(warmShare))

	if e.tr != nil {
		if err := e.openLoopStages(out, srv, chk, secs(tracedHoldShare), users, items); err != nil {
			return nil, err
		}
	}

	// The closed loop runs as closedSegments short loops with a speed
	// probe between them (the server idles for the few milliseconds the
	// probe takes), and reports the median segment, so that one stall of
	// the shared box spoils one segment, not the run.
	stage := e.tr.start("serve.closed", 0)
	out.segRPS = e.pr.series()
	for i := 0; i < closedSegments; i++ {
		seg, start := closedGen.run(closedReqs, false, secs(closedShare)/closedSegments)
		took := time.Since(start).Seconds()
		out.segRPS.add(float64(out.tally(seg)) / took)
		out.closedN += len(seg)
	}
	e.tr.end(stage)
	out.tally(out.hold)
	e.attempted += out.sent
	e.failed += out.failedN
	if n := chk.wrong.Load(); n > 0 {
		e.failed += int(n)
		e.wrongf("%d wrong responses, first: %v", n, chk.first)
	}
	if chk.checked.Load() == 0 {
		e.wrongf("no response was checked")
	}
	srv.stop()
	out.rssMB = srv.peakRSSMB()
	return out, nil
}

// tally adds the samples to the stage's counts of requests sent, answered
// in time, shed and failed, and returns how many were answered in time.
func (out *serveOut) tally(samples []sample) (ok int) {
	for _, s := range samples {
		out.sent++
		switch {
		case s.ok:
			ok++
		case s.status == http.StatusTooManyRequests || s.status == http.StatusServiceUnavailable:
			out.shed++
			out.failedN++
		default:
			out.failedN++
		}
	}
	out.ok += ok
	return ok
}

// openLoopStages is the traced run's part of the serve stage: the hold
// stage (Poisson arrivals at the pinned rate for dur) with one client
// span per request, and the capacity ladder.
func (e *env) openLoopStages(out *serveOut, srv *server, chk *checker, dur time.Duration, users, items int) error {
	gen := newLoadgen(srv.base, chk, holdConns)
	defer gen.close()
	holdReqs := buildRequests(e.seed, 2, int(dur.Seconds()*e.w.holdRPS), e.w.holdRPS, users, items)
	stage := e.tr.start("serve.hold", 0)
	var holdStart time.Time
	out.hold, holdStart = gen.run(holdReqs, true, 0)
	e.tr.end(stage)
	// One client span per request, due → done, with the part on the wire
	// as its child: its self time is the wait for a connection.
	late := make([]float64, 0, len(out.hold))
	for _, s := range out.hold {
		id := e.tr.add("request."+routeNames[s.route], stage, s.due, s.done)
		e.tr.add("request.service", id, s.sent, s.done)
		late = append(late, s.sent.Sub(s.due).Seconds()*1e3)
	}
	holdDur := holdReqs[len(holdReqs)-1].due + 1
	for _, seg := range segments(out.hold, holdStart, holdDur, e.w.holdSegments) {
		lat := latencyMs(seg, nil)
		p50, _ := percentile(lat, 50)
		p99, ok := percentile(lat, 99)
		if !ok {
			return fmt.Errorf("--seconds %g is too short: a hold segment of %d requests cannot support a p99", e.seconds, len(lat))
		}
		out.segP50, out.segP99 = append(out.segP50, p50), append(out.segP99, p99)
	}
	out.p50Ms, out.p99Ms = median(out.segP50), median(out.segP99)
	out.lateP99Ms, _ = percentile(sortedCopy(late), 99)
	out.ladder = e.ladder(gen, out.hold, users, items)
	return nil
}

// -------------------------------------------------------------- refresh

type roundOut struct {
	refreshS float64   // first Append → first 200 for the round's new user
	appendMs []float64 // each Append call
	cycleS   float64   // wall time of the bpmf-trainer subprocess
	detectS  float64   // trainer exit → the server answers for the new user
	probe    int       // the round's new user
}

type refreshOut struct {
	rounds             []roundOut
	refreshS           *series // the rounds' refresh times
	serveRSS, trainRSS float64
	replica            map[string]float64 // traced run: seconds per call of one trainer cycle
}

// roundRatings precomputes one refresh round's appends from the seed:
// 5% of the ratings come from users new this round, 20% re-rate an
// existing (user, item) pair, the rest are new pairs of known users.
func roundRatings(w workload, seed uint64, round int, base *sparse.CSR) [][]sparse.Entry {
	r := rng.NewKeyed(seed, 0xfeed, uint64(round))
	total := w.appends * w.appendSize
	fromNew := max(total/20, w.newUsers)
	firstNew := base.M + round*w.newUsers
	value := func() float64 { return 0.5 + float64(r.Intn(10))/2 }
	entries := make([]sparse.Entry, 0, total)
	for t := 0; t < total; t++ {
		var en sparse.Entry
		switch {
		case t < fromNew:
			en = sparse.Entry{Row: int32(firstNew + t%w.newUsers), Col: int32(r.Intn(base.N))}
		case t < fromNew+total/5:
			u := r.Intn(base.M)
			for base.RowNNZ(u) == 0 {
				u = (u + 1) % base.M
			}
			cols, _ := base.Row(u)
			en = sparse.Entry{Row: int32(u), Col: cols[r.Intn(len(cols))]}
		default:
			en = sparse.Entry{Row: int32(r.Intn(base.M)), Col: int32(r.Intn(base.N))}
		}
		en.Val = value()
		entries = append(entries, en)
	}
	batches := make([][]sparse.Entry, w.appends)
	for i := range batches {
		batches[i] = entries[i*w.appendSize : (i+1)*w.appendSize]
	}
	return batches
}

func (e *env) trainerArgs(ds *dataset, ref *reference, pub string) []string {
	return []string{
		"-data", ds.bcsr, "-test", strconv.FormatFloat(testFrac, 'g', -1, 64),
		"-k", strconv.Itoa(latentK), "-iters", strconv.Itoa(chainIters), "-burnin", strconv.Itoa(chainBurnin),
		"-seed", strconv.FormatUint(e.seed, 10),
		"-ckpt", ref.path, "-feed-log", filepath.Join(e.workDir, "ratings.feedlog"),
		"-delta-dir", filepath.Join(e.workDir, "deltas"),
		"-publish", pub, "-add-iters", strconv.Itoa(addIters), "-cycles", "1",
	}
}

// refreshStage runs refresh rounds beside a watching bpmf-serve: append
// to the rating log, run one bpmf-trainer cycle, wait until the server
// answers for a user who did not exist before the round.
func (e *env) refreshStage(ds *dataset, ref *reference) (*refreshOut, error) {
	out := &refreshOut{}
	pubPath := filepath.Join(e.workDir, "live.ckpt")
	if err := core.WriteCheckpointFile(pubPath, ref.ckpt.Write); err != nil {
		return nil, err
	}
	srv, err := e.ps.startServer(filepath.Join(e.binDir, "bpmf-serve"), e.workDir, "refresh",
		"-ckpt", pubPath, "-threads", "2", "-watch", "50ms")
	if err != nil {
		return nil, err
	}
	defer srv.stop()
	logPath := filepath.Join(e.workDir, "ratings.feedlog")
	args := e.trainerArgs(ds, ref, pubPath)

	out.refreshS = e.pr.series()
	for round := 0; round < e.w.rounds; round++ {
		batches := roundRatings(e.w, e.seed, round, ds.full)
		ro := roundOut{probe: int(batches[0][0].Row)}
		rs := e.tr.start("refresh.round", 0)
		t0 := time.Now()

		as := e.tr.start("feed.append", rs)
		lg, err := feed.OpenLog(logPath, ds.full.N)
		if err != nil {
			return nil, err
		}
		for _, b := range batches {
			ta := time.Now()
			if err := lg.Append(b); err != nil {
				lg.Close()
				return nil, err
			}
			ro.appendMs = append(ro.appendMs, time.Since(ta).Seconds()*1e3)
		}
		if err := lg.Close(); err != nil {
			return nil, err
		}
		e.tr.end(as)
		if e.tr != nil && round == replicaRound {
			if err := e.snapshotForReplica(pubPath); err != nil {
				return nil, err
			}
		}

		cs := e.tr.start("trainer.cycle", rs)
		tc := time.Now()
		tp, err := e.ps.start("bpmf-trainer", filepath.Join(e.workDir, fmt.Sprintf("trainer-%d.log", round)), nil,
			filepath.Join(e.binDir, "bpmf-trainer"), args...)
		if err != nil {
			return nil, err
		}
		if err := tp.wait(roundTimeout); err != nil {
			return nil, err
		}
		ro.cycleS = time.Since(tc).Seconds()
		e.tr.end(cs)
		out.trainRSS = math.Max(out.trainRSS, tp.peakRSSMB())

		ds2 := e.tr.start("serve.reload_detect", rs)
		td := time.Now()
		live := waitServable(srv, ro.probe, t0.Add(roundTimeout))
		ro.detectS = time.Since(td).Seconds()
		e.tr.end(ds2)
		ro.refreshS = time.Since(t0).Seconds()
		e.tr.end(rs)
		out.refreshS.add(ro.refreshS)

		e.attempted++
		if !live {
			e.failed++
		}
		out.rounds = append(out.rounds, ro)
		if e.tr != nil && round == replicaRound {
			if out.replica, err = e.replicaCycle(ds); err != nil {
				return nil, err
			}
		}
	}

	// The published chain must be exactly the base chain extended once
	// per round, and every round's new user must still be servable.
	e.attempted++
	want := chainIters + len(out.rounds)*addIters
	if got, err := chainLength(pubPath); err != nil || got != want {
		e.failed++
		e.wrongf("published checkpoint holds %d iterations (err %v), want %d", got, err, want)
	}
	for _, ro := range out.rounds {
		e.attempted++
		if !waitServable(srv, ro.probe, time.Now()) {
			e.failed++
			e.wrongf("user %d of an earlier round is no longer servable", ro.probe)
		}
	}
	srv.stop()
	out.serveRSS = srv.peakRSSMB()
	return out, nil
}

// chainLength reads how many iterations the checkpoint at path holds.
func chainLength(path string) (int, error) {
	f, err := os.Open(path)
	if err != nil {
		return 0, err
	}
	defer f.Close()
	ck, err := core.ReadCheckpoint(f)
	if err != nil {
		return 0, err
	}
	return ck.NextIter, nil
}

// waitServable polls predict for the user until the server answers 200
// or the deadline passes (one attempt is always made).
func waitServable(srv *server, user int, deadline time.Time) bool {
	url := fmt.Sprintf("%s/v1/default/predict?user=%d&item=0", srv.base, user)
	for {
		resp, err := pollClient.Get(url)
		if err == nil {
			resp.Body.Close()
			if resp.StatusCode == http.StatusOK {
				return true
			}
		}
		if !time.Now().Before(deadline) {
			return false
		}
		time.Sleep(2 * time.Millisecond)
	}
}
