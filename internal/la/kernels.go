package la

// The inner loops of the dense item update. Each has the pure-Go body below
// and, on amd64, an AVX2 body in kernels_amd64.s computing the same bits: a
// vector lane only holds a sum these loops already keep separate (one
// memory element), and every step is a multiply then an add, never a fused
// multiply-add. The Go bodies are the reference of the differential test
// and the only path off amd64, under the purego tag, or without AVX2.
// Callers pass lengths they have checked; the bodies check nothing.
//
// These four are what the exported kernels call; kernels_amd64.go's init
// points them at the AVX2 bodies when the CPU and the OS support them.
var (
	syrk4     = syrk4Go
	axpy4     = axpy4Go
	axpy1     = axpy1Go
	cholTrail = cholTrailGo
)

// syrk4Go adds the four outer products Σ_r (alpha·x_r)·x_rᵀ to the lower
// triangle of the row-major n × n matrix a, n = len(x0): each element is
// loaded once, receives the four updates chained in r order, and is stored
// once. Nothing above the diagonal is read or written.
func syrk4Go(alpha float64, x0, x1, x2, x3, a []float64) {
	n := len(x0)
	for i := 0; i < n; i++ {
		f0 := alpha * x0[i]
		f1 := alpha * x1[i]
		f2 := alpha * x2[i]
		f3 := alpha * x3[i]
		row := a[i*n : i*n+i+1 : i*n+i+1]
		b0 := x0[:len(row)]
		b1 := x1[:len(row)]
		b2 := x2[:len(row)]
		b3 := x3[:len(row)]
		for j := range row {
			s := row[j]
			s += f0 * b0[j]
			s += f1 * b1[j]
			s += f2 * b2[j]
			s += f3 * b3[j]
			row[j] = s
		}
	}
}

// axpy4Go computes y += a0·x0 + a1·x1 + a2·x2 + a3·x3, chained per element
// in that order.
func axpy4Go(a0, a1, a2, a3 float64, x0, x1, x2, x3, y []float64) {
	x0 = x0[:len(y)]
	x1 = x1[:len(y)]
	x2 = x2[:len(y)]
	x3 = x3[:len(y)]
	for i := range y {
		s := y[i]
		s += a0 * x0[i]
		s += a1 * x1[i]
		s += a2 * x2[i]
		s += a3 * x3[i]
		y[i] = s
	}
}

// axpy1Go computes y += alpha·x over len(x) elements (four-wide unrolled;
// the element updates are independent).
func axpy1Go(alpha float64, x, y []float64) {
	n := len(x)
	y = y[:n]
	i := 0
	for ; i+4 <= n; i += 4 {
		y[i] += alpha * x[i]
		y[i+1] += alpha * x[i+1]
		y[i+2] += alpha * x[i+2]
		y[i+3] += alpha * x[i+3]
	}
	for ; i < n; i++ {
		y[i] += alpha * x[i]
	}
}

// cholTrailGo is the trailing update of Cholesky's pivot k on the row-major
// n × n matrix l: row_i[k+1..i] -= l_ik · col_k[k+1..i] for every i > k,
// where column k has been copied into row k's strictly upper part so both
// operands are contiguous. a − b·c and a + (−b)·c are the same IEEE
// operation, so each row is one axpy1 with −l_ik.
func cholTrailGo(l []float64, n, k int) {
	colk := l[k*n : (k+1)*n]
	for i := k + 1; i < n; i++ {
		row := l[i*n : (i+1)*n]
		axpy1Go(-row[k], colk[k+1:i+1], row[k+1:i+1])
	}
}
