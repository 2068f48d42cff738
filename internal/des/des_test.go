package des

import (
	"math"
	"sort"
	"testing"

	"repro/internal/core"
	"repro/internal/datagen"
	"repro/internal/partition"
	"repro/internal/sparse"
)

func cfg() core.Config {
	c := core.DefaultConfig()
	c.K = 32
	return c
}

// parallelItemTime is Figure 2's 12-core column: the work-stealing sweep
// of one item of nnz ratings on Lynx(1), the parallel kernel forced
// through c's thresholds.
func parallelItemTime(nnz int, cm CostModel, c core.Config) float64 {
	c.RankOneMax, c.KernelThreshold = 0, 1
	return Lynx(1).Sweep([]int{nnz}, cm, &c)
}

func TestCostModelMonotone(t *testing.T) {
	cm := DefaultCostModel(32)
	c := cfg()
	prev := 0.0
	for _, nnz := range []int{1, 10, 100, 1000, 10000} {
		cur := cm.SerialItemCost(nnz)
		if cur <= prev {
			t.Fatalf("serial cost not increasing at nnz=%d", nnz)
		}
		prev = cur
	}
	// Parallel kernel with many cores must beat serial for heavy items.
	heavy := 50000
	if par := parallelItemTime(heavy, cm, c); !(par < cm.SerialItemCost(heavy)/4) {
		t.Fatalf("parallel kernel on 12 cores should be >4x faster on %d ratings: %v vs %v",
			heavy, par, cm.SerialItemCost(heavy))
	}
	// Rank-one must win for tiny items (no K³ fixed cost)...
	if !(cm.RankOneItemCost(1) < cm.SerialItemCost(1)) {
		t.Fatal("rank-one kernel must be cheapest at nnz=1")
	}
	// ...and lose for large ones (higher per-rating constant).
	if !(cm.RankOneItemCost(5000) > cm.SerialItemCost(5000)) {
		t.Fatal("rank-one kernel must lose at nnz=5000")
	}
}

func TestFig2CrossoversExistInModel(t *testing.T) {
	// The Figure 2 shape: rankupdate cheapest somewhere small, serial
	// Cholesky cheapest in the middle, parallel cheapest for heavy items.
	cm := DefaultCostModel(32)
	c := cfg()
	foundSerialWin, foundParallelWin := false, false
	for nnz := 1; nnz <= 200000; nnz *= 2 {
		r1 := cm.RankOneItemCost(nnz)
		sc := cm.SerialItemCost(nnz)
		pc := parallelItemTime(nnz, cm, c)
		if sc < r1 && sc < pc {
			foundSerialWin = true
		}
		if pc < sc && pc < r1 {
			foundParallelWin = true
		}
	}
	if !foundSerialWin || !foundParallelWin {
		t.Fatalf("expected both serial (mid) and parallel (heavy) winning regions")
	}
}

func TestCalibrateCostModelSane(t *testing.T) {
	cm := CalibrateCostModel(16)
	if cm.PerRating <= 0 || cm.PerItem <= 0 || cm.RankOnePerRating <= 0 {
		t.Fatalf("calibration produced non-positive costs: %+v", cm)
	}
	if cm.PerRating > 1e-3 || cm.PerItem > 1e-2 {
		t.Fatalf("calibrated costs implausibly large: %+v", cm)
	}
	// Both kernels are timed as the sweeps run them (SweepTime: one
	// UpdateRange over a few items of one degree). One calibration times
	// the kernels milliseconds apart, so each ratio below is the median of
	// five calibrations' ratios, and one disturbed calibration cannot flip
	// it.
	//
	// Per rating, the rank-one kernel (a K² factor update) costs more than
	// the Cholesky kernels' fused accumulation, which is why the hybrid
	// leaves it past a few ratings (Figure 2). At K = 16 single
	// calibrations read RankOnePerRating/PerRating at 3.3–9.2 in a normal
	// build, 6.0–10.8 under -race, 4.5–9.7 under purego and 2.9–3.2 under
	// -race -tags purego; the median is held to (1, 16).
	//
	// Per item, the order holds everywhere with room: rank-one's fixed cost
	// (the lanes' rhs, normals, forward solve and paired back-solve) is
	// below the Cholesky kernel's (factorization and draw). With both
	// lines anchored at degree 1, 50 calibrations read the ratio at
	// 0.31–0.88 (median 0.57) in a normal build, 0.30–0.55 under purego
	// and 0.35–0.83 under -race.
	perRating := []float64{cm.RankOnePerRating / cm.PerRating}
	perItem := []float64{cm.RankOnePerItem / cm.PerItem}
	for len(perRating) < 5 {
		c := CalibrateCostModel(16)
		perRating = append(perRating, c.RankOnePerRating/c.PerRating)
		perItem = append(perItem, c.RankOnePerItem/c.PerItem)
	}
	sort.Float64s(perRating)
	sort.Float64s(perItem)
	if r := perRating[2]; r <= 1 || r >= 16 {
		t.Fatalf("rank-one per-rating cost should be 1–16x the Cholesky accumulation's: median ratio %.3f of %.3f", r, perRating)
	}
	if r := perItem[2]; r >= 1 {
		t.Fatalf("rank-one per-item cost should be below the Cholesky kernel's: median ratio %.3f of %.3f", r, perItem)
	}
}

func skewedNNZ() []int {
	// 1000 items: mostly tiny, some heavy — a Zipf-ish profile.
	nnz := make([]int, 1000)
	for i := range nnz {
		nnz[i] = 3
	}
	nnz[0] = 60000
	nnz[1] = 20000
	nnz[2] = 5000
	for i := 3; i < 50; i++ {
		nnz[i] = 500
	}
	return nnz
}

func TestWorkStealBeatsStaticOnSkew(t *testing.T) {
	cm := DefaultCostModel(32)
	c := cfg()
	nnz := skewedNNZ()
	for _, threads := range []int{4, 8, 16} {
		ws := sweepTime(nnz, threads, PolicyWorkSteal, cm, &c)
		st := sweepTime(nnz, threads, PolicyStatic, cm, &c)
		gl := sweepTime(nnz, threads, PolicyGraphLab, cm, &c)
		if !(ws < st) {
			t.Fatalf("threads=%d: work stealing (%v) must beat static (%v) on skew", threads, ws, st)
		}
		if !(st <= gl) {
			t.Fatalf("threads=%d: static (%v) must not lose to GraphLab (%v)", threads, st, gl)
		}
	}
}

func TestMakespanScalesDown(t *testing.T) {
	cm := DefaultCostModel(32)
	c := cfg()
	nnz := skewedNNZ()
	for _, pol := range []Policy{PolicyWorkSteal, PolicyStatic, PolicyGraphLab} {
		t1 := sweepTime(nnz, 1, pol, cm, &c)
		t8 := sweepTime(nnz, 8, pol, cm, &c)
		if !(t8 < t1) {
			t.Fatalf("%v: 8 threads (%v) not faster than 1 (%v)", pol, t8, t1)
		}
		// Makespan is bounded below by the critical path; speedup can't
		// exceed thread count.
		if t1/t8 > 8.01 {
			t.Fatalf("%v: speedup %v exceeds thread count", pol, t1/t8)
		}
	}
}

func TestWorkStealSpeedupNearLinearOnUniformWork(t *testing.T) {
	cm := DefaultCostModel(32)
	c := cfg()
	nnz := make([]int, 10000)
	for i := range nnz {
		nnz[i] = 100
	}
	t1 := sweepTime(nnz, 1, PolicyWorkSteal, cm, &c)
	t8 := sweepTime(nnz, 8, PolicyWorkSteal, cm, &c)
	sp := t1 / t8
	if sp < 7.5 || sp > 8.01 {
		t.Fatalf("uniform-work speedup on 8 threads = %v, want ~8", sp)
	}
}

func TestStaticSuffersFromHeadSkew(t *testing.T) {
	// All heavy items in the first chunk: static assigns them to thread 0.
	cm := DefaultCostModel(32)
	c := cfg()
	nnz := make([]int, 800)
	for i := 0; i < 100; i++ {
		nnz[i] = 2000 // heavy head
	}
	for i := 100; i < 800; i++ {
		nnz[i] = 2
	}
	ws := sweepTime(nnz, 8, PolicyWorkSteal, cm, &c)
	st := sweepTime(nnz, 8, PolicyStatic, cm, &c)
	if !(st > 3*ws) {
		t.Fatalf("static on head-skewed data (%v) should be >3x slower than stealing (%v)", st, ws)
	}
}

func TestFig3EngineOrdering(t *testing.T) {
	// On a ChEMBL-shaped workload the Figure 3 ordering must hold at
	// every thread count: TBB >= OpenMP > GraphLab.
	ds := datagen.Generate(datagen.Scaled(datagen.ChEMBL(7), 0.02))
	w := BuildClusterWorkload(partition.Build(ds.R, 1), nil, cfg())
	cm := DefaultCostModel(32)
	for _, threads := range []int{1, 2, 4, 8, 16} {
		tbb := nodeThroughput(w, threads, PolicyWorkSteal, cm)
		omp := nodeThroughput(w, threads, PolicyStatic, cm)
		gl := nodeThroughput(w, threads, PolicyGraphLab, cm)
		// At 1 thread TBB pays task overhead for no benefit; the paper's
		// figure likewise shows the curves nearly coincide there. From 2
		// threads on, stealing must win outright.
		minRatio := 1.0
		if threads == 1 {
			minRatio = 0.95
		}
		if !(tbb >= minRatio*omp && omp > gl) {
			t.Fatalf("threads=%d: ordering violated: TBB=%v OpenMP=%v GraphLab=%v",
				threads, tbb, omp, gl)
		}
	}
	// And all engines must scale: 16 threads beat 1.
	for _, pol := range []Policy{PolicyWorkSteal, PolicyStatic, PolicyGraphLab} {
		if !(nodeThroughput(w, 16, pol, cm) > 2*nodeThroughput(w, 1, pol, cm)) {
			t.Fatalf("%v does not scale 1 -> 16 threads", pol)
		}
	}
}

// sweepTime is one node's sweep of nnz on threads cores under pol.
func sweepTime(nnz []int, threads int, pol Policy, cm CostModel, c *core.Config) float64 {
	return Machine{CoresPerNode: threads, Policy: pol}.Sweep(nnz, cm, c)
}

// nodeThroughput is Figure 3's y-value: the items per second of w on one
// Lynx node cut to threads cores under pol.
func nodeThroughput(w *ClusterWorkload, threads int, pol Policy, cm CostModel) float64 {
	m := Lynx(1)
	m.CoresPerNode, m.Policy = threads, pol
	return SimulateCluster(w, m, cm, 64<<10).ItemsPerSec
}

// TestOneRankIsOneNode pins the node model Figure 3 reads: on one rank,
// SimulateCluster's iteration is the movie sweep, the user sweep, the
// moments and the evaluation of the whole test set, nothing else, at
// every thread count and policy.
func TestOneRankIsOneNode(t *testing.T) {
	ds := datagen.Generate(datagen.Scaled(datagen.ChEMBL(7), 0.02))
	train, test := sparse.SplitTrainTest(ds.R, 0.05, 7)
	c := cfg()
	w := BuildClusterWorkload(partition.Build(train, 1), test, c)
	movie, user := train.Transpose().RowDegrees(), train.RowDegrees()
	cm := DefaultCostModel(32)
	for _, threads := range []int{1, 2, 4, 8, 16} {
		for _, pol := range []Policy{PolicyWorkSteal, PolicyStatic, PolicyGraphLab} {
			m := Lynx(1)
			m.CoresPerNode, m.Policy = threads, pol
			got := SimulateCluster(w, m, cm, 64<<10).IterTime
			want := m.Sweep(movie, cm, &c) + m.Sweep(user, cm, &c) +
				cm.MomentPerRow*float64(train.M+train.N)/float64(threads) +
				cm.EvalMakespan(len(test), threads)
			if math.Abs(got-want) > 1e-12*want {
				t.Errorf("threads=%d %v: one-rank iteration %v s, node model %v s", threads, pol, got, want)
			}
		}
	}
}

func TestCacheFactor(t *testing.T) {
	m := BlueGeneQ(64)
	small := m.cacheFactor(1 << 20)
	big := m.cacheFactor(1 << 30)
	if small != m.CacheSpeedup {
		t.Fatalf("tiny working set factor = %v, want %v", small, m.CacheSpeedup)
	}
	if big != 1 {
		t.Fatalf("huge working set factor = %v, want 1", big)
	}
	mid := m.cacheFactor(2 * m.CacheBytes)
	if !(mid > 1 && mid < m.CacheSpeedup) {
		t.Fatalf("mid working set factor = %v, want interior", mid)
	}
	// Monotone non-increasing in working set.
	prev := math.Inf(1)
	for ws := 1e6; ws < 1e9; ws *= 1.5 {
		f := m.cacheFactor(ws)
		if f > prev+1e-12 {
			t.Fatal("cache factor not monotone")
		}
		prev = f
	}
}

func clusterWorkload(t *testing.T, ranks int) *ClusterWorkload {
	t.Helper()
	ds := datagen.Generate(datagen.Scaled(datagen.ML20M(5), 0.01))
	c := cfg()
	plan := partition.Build(ds.R, ranks)
	return BuildClusterWorkload(plan, nil, c)
}

func TestBuildClusterWorkloadConservation(t *testing.T) {
	w := clusterWorkload(t, 4)
	// Every item appears exactly once across ranks.
	var items int64
	for q := 0; q < w.Ranks; q++ {
		items += int64(len(w.MovieNNZ[q]) + len(w.UserNNZ[q]))
	}
	if items != w.TotalItems {
		t.Fatalf("items %d != TotalItems %d", items, w.TotalItems)
	}
	// No rank sends to itself; all counts non-negative.
	for q := 0; q < w.Ranks; q++ {
		if w.MovieSends[q][q] != 0 || w.UserSends[q][q] != 0 {
			t.Fatal("self-sends must be zero")
		}
		if w.WorkingSet[q] <= 0 {
			t.Fatal("working set must be positive")
		}
	}
}

func TestSimulateClusterSingleNodeNoComm(t *testing.T) {
	w := clusterWorkload(t, 1)
	cm := DefaultCostModel(32)
	res := SimulateCluster(w, BlueGeneQ(1), cm, 64<<10)
	if res.Breakdown.CommunicateOnly != 0 || res.Breakdown.Both != 0 {
		t.Fatalf("single node must not communicate: %+v", res.Breakdown)
	}
	if res.ItemsPerSec <= 0 {
		t.Fatal("throughput must be positive")
	}
}

func TestSimulateClusterThroughputScalesToModerateNodes(t *testing.T) {
	cm := DefaultCostModel(32)
	r1 := SimulateCluster(clusterWorkload(t, 1), BlueGeneQ(1), cm, 64<<10)
	r4 := SimulateCluster(clusterWorkload(t, 4), BlueGeneQ(4), cm, 64<<10)
	r16 := SimulateCluster(clusterWorkload(t, 16), BlueGeneQ(16), cm, 64<<10)
	if !(r4.ItemsPerSec > 2*r1.ItemsPerSec) {
		t.Fatalf("4 nodes (%v) should be >2x of 1 node (%v)", r4.ItemsPerSec, r1.ItemsPerSec)
	}
	if !(r16.ItemsPerSec > r4.ItemsPerSec) {
		t.Fatalf("16 nodes (%v) should beat 4 (%v)", r16.ItemsPerSec, r4.ItemsPerSec)
	}
}

func TestSimulateClusterCommGrowsWithScale(t *testing.T) {
	cm := DefaultCostModel(32)
	r2 := SimulateCluster(clusterWorkload(t, 2), BlueGeneQ(2), cm, 64<<10)
	r64 := SimulateCluster(clusterWorkload(t, 64), BlueGeneQ(64), cm, 64<<10)
	frac := func(b ClusterResult) float64 {
		return b.Breakdown.CommunicateOnly + b.Breakdown.Both + b.Breakdown.Idle
	}
	if !(frac(r64) > frac(r2)) {
		t.Fatalf("non-compute fraction must grow with scale: 2 nodes %v, 64 nodes %v",
			frac(r2), frac(r64))
	}
}

func TestSimulateClusterBufferAblation(t *testing.T) {
	// Per-item sends (buffer = 1 record) must not beat large buffers:
	// more messages, more per-message latency.
	cm := DefaultCostModel(32)
	w := clusterWorkload(t, 8)
	small := SimulateCluster(w, BlueGeneQ(8), cm, -1)   // per-item
	big := SimulateCluster(w, BlueGeneQ(8), cm, 64<<10) // paper default
	if small.ItemsPerSec > big.ItemsPerSec*1.001 {
		t.Fatalf("per-item sends (%v items/s) should not beat buffering (%v items/s)",
			small.ItemsPerSec, big.ItemsPerSec)
	}
}

func TestBreakdownFractionsSumToOne(t *testing.T) {
	cm := DefaultCostModel(32)
	res := SimulateCluster(clusterWorkload(t, 8), BlueGeneQ(8), cm, 64<<10)
	b := res.Breakdown
	sum := b.ComputeOnly + b.CommunicateOnly + b.Both + b.Idle
	if math.Abs(sum-1) > 1e-9 {
		t.Fatalf("breakdown fractions sum to %v", sum)
	}
}

func TestPolicyNames(t *testing.T) {
	if PolicyWorkSteal.String() != "TBB" || PolicyStatic.String() != "OpenMP" ||
		PolicyGraphLab.String() != "GraphLab" {
		t.Fatal("policy names must match the figure legend")
	}
}

func TestEvalMakespan(t *testing.T) {
	cm := DefaultCostModel(32)
	if cm.EvalMakespan(0, 8) != 0 {
		t.Fatal("no test set, no evaluation cost")
	}
	// Chunk granularity: one chunk cannot be split across cores, so a
	// single-chunk test set costs the same at any thread count.
	one := cm.EvalMakespan(core.EvalChunk, 1)
	if got := cm.EvalMakespan(core.EvalChunk, 16); got != one {
		t.Fatalf("one chunk on 16 threads costs %v, want the single-chunk cost %v", got, one)
	}
	// Whole chunks divide: 16 chunks on 4 threads take 4 chunk-spans.
	if got, want := cm.EvalMakespan(16*core.EvalChunk, 4), 4*one; math.Abs(got-want) > 1e-12 {
		t.Fatalf("16 chunks on 4 threads = %v, want %v", got, want)
	}
	// More threads never slow evaluation down.
	if cm.EvalMakespan(16*core.EvalChunk, 8) > cm.EvalMakespan(16*core.EvalChunk, 4) {
		t.Fatal("evaluation makespan must be non-increasing in threads")
	}
}

func TestNodeIterationTimeIncludesEval(t *testing.T) {
	// A workload built with a test set models its evaluation, and only
	// then: on one node and on four, the iteration lengthens.
	cm := DefaultCostModel(32)
	cfg := core.DefaultConfig()
	ds := datagen.Generate(datagen.Scaled(datagen.ML20M(5), 0.01))
	train, test := sparse.SplitTrainTest(ds.R, 0.05, 5)
	for _, ranks := range []int{1, 4} {
		plan := partition.Build(train, ranks)
		w := BuildClusterWorkload(plan, test, cfg)
		plain := SimulateCluster(BuildClusterWorkload(plan, nil, cfg), BlueGeneQ(ranks), cm, 64<<10)
		eval := SimulateCluster(w, BlueGeneQ(ranks), cm, 64<<10)
		if !(eval.IterTime > plain.IterTime) {
			t.Fatalf("%d ranks: modeled evaluation must lengthen the iteration: %v vs %v",
				ranks, eval.IterTime, plain.IterTime)
		}
	}
}

// TestTestEntriesPerRank holds each rank's modeled evaluation share to the
// entries the engine's rank scores, those whose user it owns, counted by
// brute force over the plan's row ranges on a 16-rank ML-20M hold-out.
func TestTestEntriesPerRank(t *testing.T) {
	ds := datagen.Generate(datagen.Scaled(datagen.ML20M(5), 0.01))
	train, test := sparse.SplitTrainTest(ds.R, 0.05, 5)
	plan := partition.Build(train, 16)
	w := BuildClusterWorkload(plan, test, cfg())
	for q := 0; q < w.Ranks; q++ {
		var want int64
		for _, e := range test {
			if plan.RowBounds[q] <= int(e.Row) && int(e.Row) < plan.RowBounds[q+1] {
				want++
			}
		}
		if w.TestEntries[q] != want {
			t.Errorf("rank %d: %d test entries modeled, %d owned", q, w.TestEntries[q], want)
		}
	}
}

// pinWorkload builds a workload from a 5 % hold-out of spec on ranks
// partitions, the split every figure simulates.
func pinWorkload(spec datagen.Spec, ranks int) *ClusterWorkload {
	train, test := sparse.SplitTrainTest(datagen.Generate(spec).R, 0.05, spec.Seed)
	return BuildClusterWorkload(partition.Build(train, ranks), test, cfg())
}

// TestSimulateClusterPinned holds SimulateCluster's output to values
// recorded before its node model was collapsed to one scheduler, one
// static split and one phase body, within 1e-12 relative, under
// DefaultCostModel(32): BlueGeneQ at 1, 2, 8 and 64 nodes on ML-20M,
// Lynx(1) cut to 16 cores under each policy on ChEMBL, and 8 nodes at
// per-item sends and a 64 KiB buffer. Compute is pinned by its sum and
// its maximum over ranks.
func TestSimulateClusterPinned(t *testing.T) {
	ml := datagen.Scaled(datagen.ML20M(5), 0.01)
	chembl := datagen.Scaled(datagen.ChEMBL(7), 0.02)
	lynx := func(pol Policy) Machine {
		m := Lynx(1)
		m.CoresPerNode, m.Policy = 16, pol
		return m
	}
	cases := []struct {
		name                   string
		spec                   datagen.Spec
		m                      Machine
		buf                    int
		iter, ips              float64
		b                      Breakdown
		computeSum, computeMax float64
	}{
		{name: "bgq/1", spec: ml, m: BlueGeneQ(1), buf: 64 << 10,
			iter: 0.0054023421052631585, ips: 306533.71588346182, b: Breakdown{1, 0, 0, 0}, computeSum: 0.00531534210526316, computeMax: 0.00531534210526316},
		{name: "bgq/2", spec: ml, m: BlueGeneQ(2), buf: 64 << 10,
			iter: 0.0030532642105263186, ips: 542370.35703979922, b: Breakdown{0.92695410364955177, 0.011810311035541008, 0.035234422107695881, 0.026001163207211346}, computeSum: 0.0057615526315789468, computeMax: 0.0029441842105263159},
		{name: "bgq/8", spec: ml, m: BlueGeneQ(8), buf: 64 << 10,
			iter: 0.001300549868421051, ips: 1273307.5756721946, b: Breakdown{0.63524379465406455, 0.16138581160863022, 0.081047361141475732, 0.12232303259582936}, computeSum: 0.0071760263157894747, computeMax: 0.0010894736842105264},
		{name: "bgq/64", spec: ml, m: BlueGeneQ(64), buf: 64 << 10,
			iter: 0.001405640000000017, ips: 1178111.0383881934, b: Breakdown{0.077675657424357072, 0.62426366012428613, 0.16840886635128677, 0.12965181610006993}, computeSum: 0.02034502631578948, computeMax: 0.00068400000000000015},
		{name: "lynx16/TBB", spec: chembl, m: lynx(PolicyWorkSteal), buf: 64 << 10,
			iter: 0.0075313187500000121, ips: 1299241.2517396086, b: Breakdown{1, 0, 0, 0}, computeSum: 0.0068071500000000092, computeMax: 0.0068071500000000092},
		{name: "lynx16/OpenMP", spec: chembl, m: lynx(PolicyStatic), buf: 64 << 10,
			iter: 0.01005506875, ips: 973141.03396856436, b: Breakdown{1, 0, 0, 0}, computeSum: 0.0093308999999999996, computeMax: 0.0093308999999999996},
		{name: "lynx16/GraphLab", spec: chembl, m: lynx(PolicyGraphLab), buf: 64 << 10,
			iter: 0.017044208750000039, ips: 574095.29204457661, b: Breakdown{1, 0, 0, 0}, computeSum: 0.016320040000000032, computeMax: 0.016320040000000032},
		{name: "bgq/8/per-item", spec: ml, m: BlueGeneQ(8), buf: -1,
			iter: 0.0040270355251896626, ips: 411220.60871861986, b: Breakdown{0.0082846934113158521, 0.75460741516501095, 0.22304486963672265, 0.014063021786950495}, computeSum: 0.0071760263157894747, computeMax: 0.0010894736842105264},
	}
	cm := DefaultCostModel(32)
	near := func(got, want float64) bool { return math.Abs(got-want) <= 1e-12*math.Abs(want) }
	for _, tc := range cases {
		res := SimulateCluster(pinWorkload(tc.spec, tc.m.Nodes), tc.m, cm, tc.buf)
		var sum, mx float64
		for _, c := range res.Compute {
			sum, mx = sum+c, max(mx, c)
		}
		b := res.Breakdown
		if !near(res.IterTime, tc.iter) || !near(res.ItemsPerSec, tc.ips) ||
			!near(b.ComputeOnly, tc.b.ComputeOnly) || !near(b.CommunicateOnly, tc.b.CommunicateOnly) ||
			!near(b.Both, tc.b.Both) || !near(b.Idle, tc.b.Idle) ||
			!near(sum, tc.computeSum) || !near(mx, tc.computeMax) {
			t.Errorf("%s: model moved: iter %.17g, %.17g items/s, %+v, compute sum %.17g max %.17g; pinned %.17g, %.17g, %+v, %.17g, %.17g",
				tc.name, res.IterTime, res.ItemsPerSec, b, sum, mx, tc.iter, tc.ips, tc.b, tc.computeSum, tc.computeMax)
		}
	}
}
