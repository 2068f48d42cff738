package la

import "repro/internal/sched"

// CholeskyBlockSize is the panel width used by the blocked (parallel)
// Cholesky factorization.
const CholeskyBlockSize = 32

// CholeskyParallel factors the symmetric positive definite matrix A (lower
// triangle read) and writes U = Lᵀ of its lower Cholesky factor L into
// every lane of u (lane layout, order n), for the lane solves. Up to
// CholeskyBlockSize it is PackLower4 and Cholesky4 into u, which leave L
// in the lower triangles as well. Past it, A is factored in place by a
// right-looking blocked algorithm and U broadcast (BroadcastUpperT): each
// diagonal block is broadcast into u's lanes, factored there by Cholesky4
// and copied back (cholBlock), and the panel solves and trailing-matrix
// updates run as tasks spawned on w's pool. The arithmetic performed for
// each block is a pure function of the block indices, so the result is
// bit-identical across runs and worker counts — including w == nil, which
// executes the identical task DAG inline on the calling goroutine. The
// blocked result may differ in the last bits from the unblocked
// factorization because trailing updates group inner products differently;
// what is guaranteed is schedule independence.
//
// This is the "parallel Cholesky decomposition" of the paper's Figure 2.
func CholeskyParallel(w *sched.Worker, a *Matrix, u []float64) error {
	n := a.Rows
	if a.Cols != n || len(a.Data) != n*n || len(u) != Lanes*n*n {
		panic("la: CholeskyParallel dimension mismatch")
	}
	bs := CholeskyBlockSize
	if n <= bs {
		PackLower4(u, [Lanes]*Matrix{a}, 1)
		return Cholesky4(u, n, 1)
	}

	// runAll executes a deterministic set of independent block tasks,
	// on w's pool when there is a worker, inline otherwise.
	runAll := func(tasks []func()) {
		if w == nil || len(tasks) == 1 {
			for _, t := range tasks {
				t()
			}
			return
		}
		g := w.Pool().NewGroup()
		for _, t := range tasks {
			g.Spawn(w, func(_ *sched.Worker) { t() })
		}
		g.Sync(w)
	}

	for k := 0; k < n; k += bs {
		kb := min(bs, n-k)
		// 1. Factor the diagonal block serially.
		if err := cholBlock(a, k, kb, u); err != nil {
			return err
		}
		// 2. Triangular solve of the panel below: rows [k+kb, n) of block
		//    column k, parallel over row blocks.
		var solves []func()
		for i := k + kb; i < n; i += bs {
			ib := min(bs, n-i)
			solves = append(solves, func() { trsmBlock(a, i, ib, k, kb) })
		}
		runAll(solves)
		// 3. Trailing update: for each block (i, j) with k+kb <= j <= i,
		//    A[i,j] -= L[i,k-block] * L[j,k-block]ᵀ, parallel over blocks.
		var updates []func()
		for i := k + kb; i < n; i += bs {
			ib := min(bs, n-i)
			for j := k + kb; j <= i; j += bs {
				jb := min(bs, n-j)
				updates = append(updates, func() { syrkBlock(a, i, ib, j, jb, k, kb) })
			}
		}
		runAll(updates)
	}
	BroadcastUpperT(u, a)
	return nil
}

// trsmBlock solves X * L22ᵀ = A(i:i+ib, k:k+kb) where L22 is the factored
// kb x kb diagonal block at (k, k); the solution overwrites the panel block.
func trsmBlock(l *Matrix, i, ib, k, kb int) {
	for r := i; r < i+ib; r++ {
		for j := k; j < k+kb; j++ {
			s := l.At(r, j)
			for t := k; t < j; t++ {
				s -= l.At(r, t) * l.At(j, t)
			}
			l.Set(r, j, s/l.At(j, j))
		}
	}
}

// syrkBlock computes A(i:i+ib, j:j+jb) -= L(i:i+ib, k:k+kb) * L(j:j+jb, k:k+kb)ᵀ,
// touching only elements on or below the global diagonal.
func syrkBlock(l *Matrix, i, ib, j, jb, k, kb int) {
	for r := i; r < i+ib; r++ {
		cmax := j + jb
		if cmax > r+1 {
			cmax = r + 1 // stay on/below the diagonal
		}
		for c := j; c < cmax; c++ {
			s := l.At(r, c)
			for t := k; t < k+kb; t++ {
				s -= l.At(r, t) * l.At(c, t)
			}
			l.Set(r, c, s)
		}
	}
}
