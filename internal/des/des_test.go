package des

import (
	"math"
	"testing"

	"repro/internal/core"
	"repro/internal/datagen"
	"repro/internal/partition"
)

func cfg() core.Config {
	c := core.DefaultConfig()
	c.K = 32
	return c
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
	if !(cm.ParallelItemCost(heavy, c.ParallelGrain, 12) < cm.SerialItemCost(heavy)/4) {
		t.Fatalf("parallel kernel on 12 cores should be >4x faster on %d ratings: %v vs %v",
			heavy, cm.ParallelItemCost(heavy, c.ParallelGrain, 12), cm.SerialItemCost(heavy))
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
	cores := 12
	foundSerialWin, foundParallelWin := false, false
	for nnz := 1; nnz <= 200000; nnz *= 2 {
		r1 := cm.RankOneItemCost(nnz)
		sc := cm.SerialItemCost(nnz)
		pc := cm.ParallelItemCost(nnz, c.ParallelGrain, cores)
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
	// Rank-one per-rating (full K² cholupdate) must cost more than plain
	// accumulation (K²/2 syr).
	if cm.RankOnePerRating < cm.PerRating {
		t.Fatalf("rank-one per-rating %v should exceed syr per-rating %v",
			cm.RankOnePerRating, cm.PerRating)
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
		ws := PhaseMakespan(nnz, threads, PolicyWorkSteal, cm, &c)
		st := PhaseMakespan(nnz, threads, PolicyStatic, cm, &c)
		gl := PhaseMakespan(nnz, threads, PolicyGraphLab, cm, &c)
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
		t1 := PhaseMakespan(nnz, 1, pol, cm, &c)
		t8 := PhaseMakespan(nnz, 8, pol, cm, &c)
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
	t1 := PhaseMakespan(nnz, 1, PolicyWorkSteal, cm, &c)
	t8 := PhaseMakespan(nnz, 8, PolicyWorkSteal, cm, &c)
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
	ws := PhaseMakespan(nnz, 8, PolicyWorkSteal, cm, &c)
	st := PhaseMakespan(nnz, 8, PolicyStatic, cm, &c)
	if !(st > 3*ws) {
		t.Fatalf("static on head-skewed data (%v) should be >3x slower than stealing (%v)", st, ws)
	}
}

func TestFig3EngineOrdering(t *testing.T) {
	// On a ChEMBL-shaped workload the Figure 3 ordering must hold at
	// every thread count: TBB >= OpenMP > GraphLab.
	ds := datagen.Generate(datagen.Scaled(datagen.ChEMBL(7), 0.02))
	movie := ds.R.Transpose().RowDegrees()
	user := ds.R.RowDegrees()
	cm := DefaultCostModel(32)
	c := cfg()
	for _, threads := range []int{1, 2, 4, 8, 16} {
		tbb := Fig3Point(movie, user, threads, PolicyWorkSteal, cm, &c)
		omp := Fig3Point(movie, user, threads, PolicyStatic, cm, &c)
		gl := Fig3Point(movie, user, threads, PolicyGraphLab, cm, &c)
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
		if !(Fig3Point(movie, user, 16, pol, cm, &c) > 2*Fig3Point(movie, user, 1, pol, cm, &c)) {
			t.Fatalf("%v does not scale 1 -> 16 threads", pol)
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
	plan := partition.Build(ds.R, partition.Options{Ranks: ranks, Reorder: false})
	return BuildClusterWorkload(plan, c)
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
	res := SimulateCluster(w, BlueGeneQ(1), cm, 64<<10, 3)
	if res.Breakdown.CommunicateOnly != 0 || res.Breakdown.Both != 0 {
		t.Fatalf("single node must not communicate: %+v", res.Breakdown)
	}
	if res.ItemsPerSec <= 0 {
		t.Fatal("throughput must be positive")
	}
}

func TestSimulateClusterThroughputScalesToModerateNodes(t *testing.T) {
	cm := DefaultCostModel(32)
	r1 := SimulateCluster(clusterWorkload(t, 1), BlueGeneQ(1), cm, 64<<10, 3)
	r4 := SimulateCluster(clusterWorkload(t, 4), BlueGeneQ(4), cm, 64<<10, 3)
	r16 := SimulateCluster(clusterWorkload(t, 16), BlueGeneQ(16), cm, 64<<10, 3)
	if !(r4.ItemsPerSec > 2*r1.ItemsPerSec) {
		t.Fatalf("4 nodes (%v) should be >2x of 1 node (%v)", r4.ItemsPerSec, r1.ItemsPerSec)
	}
	if !(r16.ItemsPerSec > r4.ItemsPerSec) {
		t.Fatalf("16 nodes (%v) should beat 4 (%v)", r16.ItemsPerSec, r4.ItemsPerSec)
	}
}

func TestSimulateClusterCommGrowsWithScale(t *testing.T) {
	cm := DefaultCostModel(32)
	r2 := SimulateCluster(clusterWorkload(t, 2), BlueGeneQ(2), cm, 64<<10, 3)
	r64 := SimulateCluster(clusterWorkload(t, 64), BlueGeneQ(64), cm, 64<<10, 3)
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
	small := SimulateCluster(w, BlueGeneQ(8), cm, 0, 3)    // per-item
	big := SimulateCluster(w, BlueGeneQ(8), cm, 64<<10, 3) // paper default
	if small.ItemsPerSec > big.ItemsPerSec*1.001 {
		t.Fatalf("per-item sends (%v items/s) should not beat buffering (%v items/s)",
			small.ItemsPerSec, big.ItemsPerSec)
	}
}

func TestBreakdownFractionsSumToOne(t *testing.T) {
	cm := DefaultCostModel(32)
	res := SimulateCluster(clusterWorkload(t, 8), BlueGeneQ(8), cm, 64<<10, 3)
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
	cm := DefaultCostModel(32)
	cfg := core.DefaultConfig()
	nnz := []int{10, 20, 30, 400, 5}
	base := NodeIterationTimeEval(nnz, nnz, 0, 4, PolicyWorkSteal, cm, &cfg)
	withEval := NodeIterationTimeEval(nnz, nnz, 10*core.EvalChunk, 4, PolicyWorkSteal, cm, &cfg)
	if !(withEval > base) {
		t.Fatalf("evaluation must add time: %v vs %v", withEval, base)
	}
	// The simulated cluster slows down accordingly, and only then.
	w := clusterWorkload(t, 4)
	plain := SimulateCluster(w, BlueGeneQ(4), cm, 64<<10, 3)
	w.TestEntries = int64(40 * core.EvalChunk)
	eval := SimulateCluster(w, BlueGeneQ(4), cm, 64<<10, 3)
	if !(eval.IterTime > plain.IterTime) {
		t.Fatalf("modeled evaluation must lengthen the iteration: %v vs %v",
			eval.IterTime, plain.IterTime)
	}
}
