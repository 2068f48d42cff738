package core

import (
	"math"
	"math/rand"
	"testing"

	"repro/internal/la"
	"repro/internal/rng"
)

// The hot path's allocation budget is part of the performance contract
// (PERF.md): a steady-state item update must not touch the heap for the
// serial kernels, and the parallel kernel's inline (nil-pool) execution
// must reuse the chunk accumulators its workspace already holds.

// allocProblem builds one item's update inputs.
func allocProblem(nnz, k int) (cols []int32, vals []float64, other *la.Matrix) {
	r := rng.New(77)
	other = la.NewMatrix(nnz+4, k)
	r.FillNorm(other.Data)
	cols = make([]int32, nnz)
	vals = make([]float64, nnz)
	for i := range cols {
		cols[i] = int32(i)
		vals[i] = r.Norm()
	}
	return
}

// assertZeroAllocs draws an item of nnz ratings with kern on one
// workspace, after items of the degrees grownBy, and requires the steady
// state to allocate nothing.
func assertZeroAllocs(t *testing.T, name string, kern Kernel, nnz, k int, grownBy ...int) {
	t.Helper()
	cfg := DefaultConfig()
	cfg.K = k
	hyper := NewHyper(cfg.K)
	ws := NewWorkspace(cfg.K)
	out := la.NewVector(cfg.K)
	stream := rng.New(itemKey(cfg.Seed, 0, SideU, 1))
	for _, deg := range grownBy {
		cols, vals, other := allocProblem(deg, cfg.K)
		UpdateItem(ws, kern, &cfg, cols, vals, other, hyper, stream, nil, nil, out)
	}
	cols, vals, other := allocProblem(nnz, cfg.K)
	run := func() {
		UpdateItem(ws, kern, &cfg, cols, vals, other, hyper, stream, nil, nil, out)
	}
	run() // warm the workspace's chunk accumulators
	if allocs := testing.AllocsPerRun(100, run); allocs != 0 {
		t.Fatalf("%s nnz=%d K=%d: %v allocs/op in steady state, want 0", name, nnz, k, allocs)
	}
}

// The rank-one kernel's one-lane path at nnz 0 (no pass), 1, 5 (a pass of
// four plus a tail) and 10, at K = 16 and at the benchmark's K = 32.
func TestUpdateItemRankOneZeroAllocs(t *testing.T) {
	for _, k := range []int{16, 32} {
		for _, nnz := range []int{0, 1, 5, 10} {
			assertZeroAllocs(t, "rankupdate", KernelRankOne, nnz, k)
		}
	}
}

func TestUpdateItemCholeskyZeroAllocs(t *testing.T) {
	assertZeroAllocs(t, "serial_chol", KernelCholesky, 100, 16)
}

func TestUpdateItemParallelInlineZeroAllocs(t *testing.T) {
	// The parallel kernel executed inline (nil pool) must also be
	// allocation-free once its workspace holds its chunks; nnz spans
	// several chunks plus a tail. The second case draws two chunks on a
	// workspace grown to four by a heavier item.
	cfg := DefaultConfig()
	assertZeroAllocs(t, "parallel_chol", KernelParallelCholesky, 2*cfg.ParallelGrain+3, 16)
	assertZeroAllocs(t, "parallel_chol grown", KernelParallelCholesky, cfg.ParallelGrain+1, 16, 3*cfg.ParallelGrain+5)
}

func TestSampleHyperWSZeroAllocs(t *testing.T) {
	k := 16
	r := rng.New(5)
	x := la.NewMatrix(200, k)
	r.FillNorm(x.Data)
	m := NewMoments(k)
	m.AccumulateRows(x, 0, 200)
	prior := DefaultNWPrior(k)
	h := NewHyper(k)
	hws := NewHyperWorkspace(k)
	stream := HyperStream(9, 0, SideU)
	run := func() { SampleHyperWS(prior, m, stream, h, hws) }
	run()
	if allocs := testing.AllocsPerRun(50, run); allocs != 0 {
		t.Fatalf("SampleHyperWS: %v allocs/op in steady state, want 0", allocs)
	}
}

// TestItemLoopZeroAllocs pins the engines' full per-item path at zero
// allocations — UpdateItem behind the re-keyed workspace stream, and
// UpdateRange over mixed windows: ratingless, degree 1, 5 and 24 rank-one
// items (lane groups of one to four, one to six passes) beside
// serial-Cholesky items in a full group and a partly filled one, at K = 16
// and 32 — which is what makes the item loops allocation-free per
// iteration, not just per kernel call.
func TestItemLoopZeroAllocs(t *testing.T) {
	cfg := DefaultConfig()
	cfg.K = 16
	hyper := NewHyper(cfg.K)
	cols, vals, other := allocProblem(100, cfg.K)
	ws := NewWorkspace(cfg.K)
	out := la.NewVector(cfg.K)
	run := func() {
		for item := 0; item < 4; item++ {
			UpdateItem(ws, KernelCholesky, &cfg, cols, vals, other, hyper,
				ws.ItemStream(cfg.Seed, 0, SideU, item), nil, nil, out)
		}
	}
	run()
	if allocs := testing.AllocsPerRun(50, run); allocs != 0 {
		t.Fatalf("item loop allocates %v per 4 items in steady state, want 0", allocs)
	}

	for _, k := range []int{16, 32} {
		cfg.K = k
		degs := []int{0, 1, 5, 24, 60, 0, 1, 5, 24, 30, 31, 32, 33, 34, 35}
		s, err := NewSampler(cfg, windowProblem(rand.New(rand.NewSource(5)), &cfg, degs, 64))
		if err != nil {
			t.Fatal(err)
		}
		storage := storageOrder(len(degs)) // one window of every group size
		sweep := func() { s.UpdateRange(SideU, 0, storage, 0, len(degs), nil) }
		sweep() // warm the sampler's workspace lease
		if allocs := testing.AllocsPerRun(50, sweep); allocs != 0 {
			t.Fatalf("UpdateRange over degrees %v at K=%d allocates %v per call in steady state, want 0", degs, k, allocs)
		}
	}
}

// TestWorkspaceItemStreamMatchesKeyed pins ws.ItemStream byte-identical
// to rng.New of the same item key, the stream the sampler keys.
func TestWorkspaceItemStreamMatchesKeyed(t *testing.T) {
	ws := NewWorkspace(4)
	for item := 0; item < 5; item++ {
		a := ws.ItemStream(42, 3, SideV, item)
		b := rng.New(itemKey(42, 3, SideV, item))
		for i := 0; i < 20; i++ {
			if a.Norm() != b.Norm() {
				t.Fatalf("item %d: workspace stream diverges from keyed stream", item)
			}
		}
	}
}

// TestMomentsGroupedWSZeroAllocs pins the per-iteration hyper-moment path:
// once the workspace's partial pool is warm, a grouped reduction touches
// the heap zero times.
func TestMomentsGroupedWSZeroAllocs(t *testing.T) {
	k := 16
	r := rng.New(6)
	x := la.NewMatrix(300, k)
	r.FillNorm(x.Data)
	groups := []int{0, 77, 150, 300}
	ws := NewMomentsWorkspace(k)
	run := func() { MomentsGroupedWS(x, groups, k, nil, ws) }
	run() // warm the partial pool
	if allocs := testing.AllocsPerRun(50, run); allocs != 0 {
		t.Fatalf("MomentsGroupedWS: %v allocs/op in steady state, want 0", allocs)
	}
}

// TestMomentsGroupedWSMatchesAllocating pins a reused workspace against a
// freshly allocated one, bit for bit, across group layouts that grow,
// shrink and reorder its partial pool (an empty group included): a lease
// left over from an earlier reduction must not leak into the next.
func TestMomentsGroupedWSMatchesAllocating(t *testing.T) {
	k := 8
	r := rng.New(11)
	x := la.NewMatrix(120, k)
	r.FillNorm(x.Data)
	ws := NewMomentsWorkspace(k)
	for _, groups := range [][]int{{0, 120}, {0, 13, 50, 120}, {0, 40, 40, 120}, {0, 120}, {0, 7, 8, 9, 60, 120}, {0, 100, 120}} {
		want := MomentsGroupedWS(x, groups, k, nil, NewMomentsWorkspace(k))
		got := MomentsGroupedWS(x, groups, k, nil, ws)
		if got.N != want.N {
			t.Fatalf("groups %v: N %v != %v", groups, got.N, want.N)
		}
		for i := range want.Sum {
			if math.Float64bits(got.Sum[i]) != math.Float64bits(want.Sum[i]) {
				t.Fatalf("groups %v: Sum[%d] differs", groups, i)
			}
		}
		for i := range want.SumSq.Data {
			if math.Float64bits(got.SumSq.Data[i]) != math.Float64bits(want.SumSq.Data[i]) {
				t.Fatalf("groups %v: SumSq[%d] differs", groups, i)
			}
		}
	}
	// Mismatched K must be rejected, not silently mis-sized.
	defer func() {
		if recover() == nil {
			t.Fatal("workspace K mismatch must panic")
		}
	}()
	MomentsGroupedWS(x, []int{0, 120}, k+1, nil, ws)
}
