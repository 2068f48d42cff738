package la

import (
	"fmt"
	"math"
	"testing"

	"repro/internal/sched"
)

// choleskyParallel runs CholeskyParallel on a copy of a — on a worker of
// pool, or with no worker when pool is nil — and returns the lane buffer
// and the factor L read from lane 0's upper triangle (U = Lᵀ). Every lane
// must hold the same U.
func choleskyParallel(t testing.TB, pool *sched.Pool, a *Matrix) (*Matrix, []float64, error) {
	t.Helper()
	n := a.Rows
	in, u := a.Clone(), NewVector(Lanes*n*n)
	var err error
	if pool == nil {
		err = CholeskyParallel(nil, in, u)
	} else {
		pool.Run(func(w *sched.Worker) { err = CholeskyParallel(w, in, u) })
	}
	l := NewMatrix(n, n)
	for i := 0; i < n; i++ {
		for j := i; j < n; j++ {
			e := u[(i*n+j)*Lanes : (i*n+j+1)*Lanes]
			if err == nil && !(sameBits(e[1], e[0]) && sameBits(e[2], e[0]) && sameBits(e[3], e[0])) {
				t.Fatalf("n=%d: lanes of U(%d, %d) differ: %v", n, i, j, e)
			}
			l.Set(j, i, e[0])
		}
	}
	return l, u, err
}

// blockedReference is the blocked factorization with its diagonal blocks
// factored by the left-looking loop in place, as before they went through
// the lane factor: it must give CholeskyParallel's L bit for bit.
func blockedReference(a *Matrix) *Matrix {
	l, n, bs := a.Clone(), a.Rows, CholeskyBlockSize
	for k := 0; k < n; k += bs {
		kb := min(bs, n-k)
		for j := k; j < k+kb; j++ {
			d := l.At(j, j)
			for t := k; t < j; t++ {
				d -= l.At(j, t) * l.At(j, t)
			}
			d = math.Sqrt(d)
			l.Set(j, j, d)
			for i := j + 1; i < k+kb; i++ {
				s := l.At(i, j)
				for t := k; t < j; t++ {
					s -= l.At(i, t) * l.At(j, t)
				}
				l.Set(i, j, s*(1/d))
			}
		}
		for i := k + kb; i < n; i += bs {
			trsmBlock(l, i, min(bs, n-i), k, kb)
		}
		for i := k + kb; i < n; i += bs {
			for j := k + kb; j <= i; j += bs {
				syrkBlock(l, i, min(bs, n-i), j, min(bs, n-j), k, kb)
			}
		}
	}
	for i := 0; i < n; i++ {
		clear(l.Row(i)[i+1:])
	}
	return l
}

func TestCholeskyParallelMatchesSerial(t *testing.T) {
	pool := sched.NewPool(4)
	defer pool.Close()
	for _, n := range []int{1, 8, 31, 32, 33, 48, 64, 100, 150} {
		r := testRand(int64(n))
		a := randSPD(r, n)
		lp, _, err := choleskyParallel(t, pool, a)
		if err != nil {
			t.Fatalf("n=%d: %v", n, err)
		}
		if d := MaxAbsDiff(reconstruct(lp), a); d > 1e-8*float64(n) {
			t.Fatalf("n=%d: parallel Cholesky reconstruction error %g", n, d)
		}
		want := blockedReference(a)
		checkBits(t, fmt.Sprintf("n=%d: against the blocked reference", n), lp.Data, want.Data)
	}
}

func TestCholeskyParallelDeterministic(t *testing.T) {
	// The blocked factorization must give bit-identical results across
	// repeated runs and different pool sizes (fixed task DAG), without a
	// worker too — on the one-block path (n <= CholeskyBlockSize) and on
	// the blocked DAG alike.
	for _, n := range []int{32, 33, 130} {
		r := testRand(int64(99 + n))
		a := randSPD(r, n)
		var ref []float64
		for _, workers := range []int{0, 1, 2, 4, 7} {
			var pool *sched.Pool
			if workers > 0 {
				pool = sched.NewPool(workers)
			}
			for rep := 0; rep < 2; rep++ {
				_, u, err := choleskyParallel(t, pool, a)
				if err != nil {
					t.Fatal(err)
				}
				if ref == nil {
					ref = u
					continue
				}
				checkBits(t, fmt.Sprintf("n=%d workers=%d rep=%d: lanes", n, workers, rep), u, ref)
			}
			if pool != nil {
				pool.Close()
			}
		}
	}
}

// TestCholeskyParallelNotSPD: a refused pivot before, inside and past the
// first block is reported at its row with its value, from the one-block
// path and the blocked one; up to one block, exactly as Cholesky reports
// it on a damaged random matrix.
func TestCholeskyParallelNotSPD(t *testing.T) {
	pool := sched.NewPool(2)
	defer pool.Close()
	for _, c := range []struct{ n, pivot int }{{1, 0}, {5, 3}, {32, 31}, {33, 32}, {64, 0}, {64, 31}, {64, 40}, {100, 99}} {
		for _, v := range []float64{-1, 0, math.NaN()} {
			a := Eye(c.n)
			a.Set(c.pivot, c.pivot, v)
			_, _, err := choleskyParallel(t, pool, a)
			e, ok := err.(*ErrNotSPD)
			if !ok || e.Pivot != c.pivot || !sameBits(e.Value, v) {
				t.Fatalf("n=%d: pivot %d set to %v: error %v", c.n, c.pivot, v, err)
			}
		}
	}
	r := testRand(7)
	for n := 1; n <= CholeskyBlockSize; n++ {
		a := randSPD(r, n)
		p := r.Intn(n)
		a.Set(p, p, -a.At(p, p))
		_, _, err := choleskyParallel(t, pool, a)
		want := Cholesky(a, NewMatrix(n, n))
		if fmt.Sprint(err) != fmt.Sprint(want) || want == nil {
			t.Fatalf("n=%d: error %v, Cholesky's %v", n, err, want)
		}
	}
}

// TestCholeskyParallelSmallFallsBack: up to one block the lanes hold
// Cholesky's factor exactly, L below the diagonal and U = Lᵀ above.
func TestCholeskyParallelSmallFallsBack(t *testing.T) {
	pool := sched.NewPool(2)
	defer pool.Close()
	r := testRand(5)
	for n := 1; n <= CholeskyBlockSize; n++ {
		a := randSPD(r, n)
		l, u, err := choleskyParallel(t, pool, a)
		if err != nil {
			t.Fatal(err)
		}
		want := NewMatrix(n, n)
		if err := Cholesky(a, want); err != nil {
			t.Fatal(err)
		}
		checkBits(t, fmt.Sprintf("n=%d: U in lane 0", n), l.Data, want.Data)
		for i := 0; i < n; i++ {
			for j := 0; j <= i; j++ {
				if !sameBits(u[(i*n+j)*Lanes], want.At(i, j)) {
					t.Fatalf("n=%d: L(%d, %d) in lane 0 is %v, want %v", n, i, j, u[(i*n+j)*Lanes], want.At(i, j))
				}
			}
		}
	}
}

func TestCholeskyParallelNilPool(t *testing.T) {
	// Without a worker the identical blocked task DAG runs inline, so the
	// result must be bit-identical to the pooled factorization.
	r := testRand(6)
	a := randSPD(r, 80)
	l, u, err := choleskyParallel(t, nil, a)
	if err != nil {
		t.Fatal(err)
	}
	if d := MaxAbsDiff(reconstruct(l), a); d > 1e-7 {
		t.Fatalf("nil-pool reconstruction error %g", d)
	}
	pool := sched.NewPool(3)
	defer pool.Close()
	_, up, err := choleskyParallel(t, pool, a)
	if err != nil {
		t.Fatal(err)
	}
	checkBits(t, "nil-pool and pooled blocked Cholesky", up, u)
}
