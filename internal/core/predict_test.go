package core

import (
	"math"
	"testing"

	"repro/internal/la"
	"repro/internal/rng"
	"repro/internal/sched"
	"repro/internal/sparse"
)

// evalProblem builds factor matrices and a test set spanning several
// EvalChunk chunks (plus a ragged tail), so the chunked reduction has a
// real tree to get wrong.
func evalProblem(t *testing.T, nTest int) (u, v *la.Matrix, test []sparse.Entry) {
	t.Helper()
	r := rng.New(1234)
	m, n, k := 300, 200, 8
	u, v = la.NewMatrix(m, k), la.NewMatrix(n, k)
	r.FillNorm(u.Data)
	r.FillNorm(v.Data)
	test = make([]sparse.Entry, nTest)
	for i := range test {
		test[i] = sparse.Entry{
			Row: int32(r.Intn(m)), Col: int32(r.Intn(n)), Val: r.Norm(),
		}
	}
	return u, v, test
}

// TestPartialUpdateParBitIdenticalAcrossSchedules pins the evaluation
// determinism contract: for any pool size and any parallel-for grain over
// the chunks, the chunk-parallel evaluation produces bit-identical sums,
// RMSEs and accumulator state to the inline sequential pass, across
// multiple collecting iterations.
func TestPartialUpdateParBitIdenticalAcrossSchedules(t *testing.T) {
	for _, nTest := range []int{1, EvalChunk - 1, EvalChunk, 2*EvalChunk + 37, 3 * EvalChunk} {
		u, v, test := evalProblem(t, nTest)
		ref := NewPredictor(test, -3, 3)
		for _, threads := range []int{1, 2, 4} {
			for _, grain := range []int{1, 2, 7} {
				pool := sched.NewPool(threads)
				runAll := func(n int, run func(c int)) {
					pool.ParallelFor(0, n, grain, func(_ *sched.Worker, lo, hi int) {
						for c := lo; c < hi; c++ {
							run(c)
						}
					})
				}
				got := NewPredictor(test, -3, 3)
				for iter := 0; iter < 3; iter++ {
					collect := iter >= 1
					// Reference advances only on the first schedule tried
					// for this nTest; replay it for the others.
					var wantS, wantA, wantN float64
					if threads == 1 && grain == 1 {
						wantS, wantA, wantN = ref.PartialUpdatePar(u, v, collect, nil)
					} else {
						refClone := NewPredictor(test, -3, 3)
						for it2 := 0; it2 <= iter; it2++ {
							wantS, wantA, wantN = refClone.PartialUpdatePar(u, v, it2 >= 1, nil)
						}
					}
					gotS, gotA, gotN := got.PartialUpdatePar(u, v, collect, runAll)
					if gotS != wantS || gotA != wantA || gotN != wantN {
						t.Fatalf("nTest=%d threads=%d grain=%d iter=%d: parallel sums (%v,%v,%v) != sequential (%v,%v,%v)",
							nTest, threads, grain, iter, gotS, gotA, gotN, wantS, wantA, wantN)
					}
				}
				// Accumulator state must match element for element.
				refState := NewPredictor(test, -3, 3)
				for iter := 0; iter < 3; iter++ {
					refState.PartialUpdatePar(u, v, iter >= 1, nil)
				}
				for i := range got.sum {
					if got.sum[i] != refState.sum[i] || got.sumSq[i] != refState.sumSq[i] {
						t.Fatalf("nTest=%d threads=%d grain=%d: accumulator %d diverged", nTest, threads, grain, i)
					}
				}
				pool.Close()
			}
		}
	}
}

// TestUpdateParMatchesUpdate pins the RMSE-level wrapper.
func TestUpdateParMatchesUpdate(t *testing.T) {
	u, v, test := evalProblem(t, 2*EvalChunk+11)
	a := NewPredictor(test, 0, 0)
	b := NewPredictor(test, 0, 0)
	pool := sched.NewPool(3)
	defer pool.Close()
	runAll := func(n int, run func(c int)) {
		pool.ParallelFor(0, n, 1, func(_ *sched.Worker, lo, hi int) {
			for c := lo; c < hi; c++ {
				run(c)
			}
		})
	}
	for iter := 0; iter < 4; iter++ {
		s1, a1 := a.Update(u, v, iter >= 2)
		s2, a2 := b.UpdatePar(u, v, iter >= 2, runAll)
		if s1 != s2 || a1 != a2 {
			t.Fatalf("iter %d: (%v,%v) != (%v,%v)", iter, s1, a1, s2, a2)
		}
	}
}

// TestUpdateParEmptyTest pins the empty-test NaN contract of both paths.
func TestUpdateParEmptyTest(t *testing.T) {
	u, v, _ := evalProblem(t, 1)
	p := NewPredictor(nil, 0, 0)
	s, a := p.UpdatePar(u, v, true, nil)
	if !math.IsNaN(s) || !math.IsNaN(a) {
		t.Fatalf("empty test must yield NaN RMSEs, got %v %v", s, a)
	}
	if p.NumChunks() != 0 {
		t.Fatalf("empty test has %d chunks", p.NumChunks())
	}
}

// TestPartialUpdateSteadyStateAllocs pins the evaluation hot path: after
// the first pass, inline scoring performs no allocation (the chunk
// partials are preallocated).
func TestPartialUpdateSteadyStateAllocs(t *testing.T) {
	u, v, test := evalProblem(t, 2*EvalChunk+5)
	p := NewPredictor(test, -4, 4)
	p.PartialUpdatePar(u, v, true, nil)
	if allocs := testing.AllocsPerRun(20, func() {
		p.PartialUpdatePar(u, v, true, nil)
	}); allocs != 0 {
		t.Fatalf("steady-state PartialUpdatePar allocates %v/op, want 0", allocs)
	}
}
