package la

import (
	"fmt"
	"testing"

	"repro/internal/sched"
)

func TestCholeskyParallelMatchesSerial(t *testing.T) {
	pool := sched.NewPool(4)
	defer pool.Close()
	for _, n := range []int{8, 31, 32, 33, 64, 100, 150} {
		r := testRand(int64(n))
		a := randSPD(r, n)
		lp := NewMatrix(n, n)
		if err := CholeskyParallel(pool, nil, a, lp); err != nil {
			t.Fatalf("n=%d: %v", n, err)
		}
		if d := MaxAbsDiff(reconstruct(lp), a); d > 1e-8*float64(n) {
			t.Fatalf("n=%d: parallel Cholesky reconstruction error %g", n, d)
		}
		// Strictly upper triangle must be zeroed.
		for i := 0; i < n; i++ {
			for j := i + 1; j < n; j++ {
				if lp.At(i, j) != 0 {
					t.Fatalf("n=%d: upper triangle not zeroed at (%d,%d)", n, i, j)
				}
			}
		}
	}
}

func TestCholeskyParallelDeterministic(t *testing.T) {
	// The blocked factorization must give bit-identical results across
	// repeated runs and different pool sizes (fixed task DAG), and
	// factoring in place (dst == a, as the item update does) must give
	// the out-of-place factor bit for bit — on the serial fallback
	// (n <= CholeskyBlockSize) and on the blocked DAG alike.
	for _, n := range []int{32, 33, 130} {
		r := testRand(int64(99 + n))
		a := randSPD(r, n)
		var ref *Matrix
		for _, workers := range []int{0, 1, 2, 4, 7} {
			var pool *sched.Pool
			if workers > 0 {
				pool = sched.NewPool(workers)
			}
			l := NewMatrix(n, n)
			if err := CholeskyParallel(pool, nil, a, l); err != nil {
				t.Fatal(err)
			}
			in := a.Clone()
			if err := CholeskyParallel(pool, nil, in, in); err != nil {
				t.Fatal(err)
			}
			if pool != nil {
				pool.Close()
			}
			checkBits(t, fmt.Sprintf("n=%d workers=%d: in-place factor", n, workers), in.Data, l.Data)
			if ref == nil {
				ref = l
				continue
			}
			checkBits(t, fmt.Sprintf("n=%d workers=%d: factor", n, workers), l.Data, ref.Data)
		}
	}
}

func TestCholeskyParallelNotSPD(t *testing.T) {
	pool := sched.NewPool(2)
	defer pool.Close()
	n := 64
	a := Eye(n)
	a.Set(40, 40, -1)
	l := NewMatrix(n, n)
	if err := CholeskyParallel(pool, nil, a, l); err == nil {
		t.Fatal("expected ErrNotSPD from parallel Cholesky")
	}
}

func TestCholeskyParallelSmallFallsBack(t *testing.T) {
	// n <= block size must take the serial path and still be correct.
	pool := sched.NewPool(2)
	defer pool.Close()
	r := testRand(5)
	a := randSPD(r, CholeskyBlockSize)
	l := NewMatrix(a.Rows, a.Rows)
	if err := CholeskyParallel(pool, nil, a, l); err != nil {
		t.Fatal(err)
	}
	want := NewMatrix(a.Rows, a.Rows)
	if err := Cholesky(a, want); err != nil {
		t.Fatal(err)
	}
	if MaxAbsDiff(l, want) != 0 {
		t.Fatal("small-matrix parallel Cholesky must equal serial exactly")
	}
}

func TestCholeskyParallelNilPool(t *testing.T) {
	// pool == nil executes the identical blocked task DAG inline, so the
	// result must be bit-identical to the pooled factorization.
	r := testRand(6)
	a := randSPD(r, 80)
	l := NewMatrix(80, 80)
	if err := CholeskyParallel(nil, nil, a, l); err != nil {
		t.Fatal(err)
	}
	if d := MaxAbsDiff(reconstruct(l), a); d > 1e-7 {
		t.Fatalf("nil-pool reconstruction error %g", d)
	}
	pool := sched.NewPool(3)
	defer pool.Close()
	lp := NewMatrix(80, 80)
	if err := CholeskyParallel(pool, nil, a, lp); err != nil {
		t.Fatal(err)
	}
	if MaxAbsDiff(l, lp) != 0 {
		t.Fatal("nil-pool and pooled blocked Cholesky must match bit-for-bit")
	}
}
