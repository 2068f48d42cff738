package la

import (
	"fmt"
	"math"
	"math/rand"
	"testing"
)

// Differential tests of the vectorised kernels. Four layers, all compared
// bit for bit:
//
//   - each primitive against its Go body: the four dense ones through
//     every set of bodies the CPU runs (AVX2, AVX-512), the rest through
//     their dispatchers — trivially true under the purego tag;
//   - the batched accumulation built on them against the naive per-rating
//     loops, for rating counts on both sides of the four-row block and of a
//     gather panel;
//   - the right-looking Cholesky against the left-looking loop it replaced,
//     kept below as the reference;
//   - the row-blocked Gemv against one Dot per row.
//
// Operands start at odd element offsets of a larger buffer, so no vector
// load is 32-byte aligned, and the whole buffer is compared, so a write
// outside the operand (or above the diagonal) fails the test.

// sameBits is equality of bit patterns, except that any NaN equals any NaN:
// x86 propagates the payload of its first NaN operand, and which operand
// of a commutative scalar operation the compiler puts first is not a
// contract. Where NaNs appear is; the chain itself never carries one into
// these loops (Cholesky refuses a NaN pivot).
func sameBits(a, b float64) bool {
	return math.Float64bits(a) == math.Float64bits(b) || (math.IsNaN(a) && math.IsNaN(b))
}

func checkBits(t testing.TB, what string, got, want []float64) {
	t.Helper()
	for i := range want {
		if !sameBits(got[i], want[i]) {
			t.Fatalf("%s: element %d is %v (%#x), want %v (%#x)", what, i,
				got[i], math.Float64bits(got[i]), want[i], math.Float64bits(want[i]))
		}
	}
}

var specials = []float64{math.Copysign(0, -1), 5e-324, -1e-310, math.Inf(1), math.Inf(-1), math.NaN()}

// payload returns n + off + 4 normal deviates; when oneIn > 0, about one
// element in oneIn is a signed zero, denormal, infinity or NaN instead.
func payload(r *rand.Rand, n, off, oneIn int) Vector {
	buf := NewVector(n + off + 4)
	for i := range buf {
		buf[i] = r.NormFloat64()
		if oneIn > 0 && r.Intn(oneIn) == 0 {
			buf[i] = specials[r.Intn(len(specials))]
		}
	}
	return buf
}

// specials32 are float64 values at and past float32's limits: overflow to
// ±Inf, the largest float32, a float32 subnormal, and underflow to zero.
var specials32 = []float64{1e39, -1e39, 3.4e38, 1e-40, -1e-45, 1e-300}

// payload32 is payload rounded to float32, with specials32 among the
// specials.
func payload32(r *rand.Rand, n, off, oneIn int) []float32 {
	src := payload(r, n, off, oneIn)
	out := make([]float32, len(src))
	for i, x := range src {
		if oneIn > 0 && r.Intn(oneIn) == 0 {
			x = specials32[r.Intn(len(specials32))]
		}
		out[i] = float32(x)
	}
	return out
}

// blockDot32Sum is row j's float32 sum of packed rows v with x, the Go
// body's chain written out for one row.
func blockDot32Sum(v []float32, x []float64, j int) float32 {
	blk := v[(j/Block32)*Block32*len(x):]
	var s float32
	for c, xc := range x {
		s += float32(blk[c*Block32+j%Block32] * float32(xc))
	}
	return s
}

// widen converts float32s to float64 exactly, for checkBits.
func widen(x []float32) []float64 {
	out := make([]float64, len(x))
	for i, v := range x {
		out[i] = float64(v)
	}
	return out
}

// diffPrimitives compares the nine primitives with their Go bodies at
// width k (the lane kernels at order k): the four dense ones through every
// set in denseSets the CPU runs, the other five through their dispatchers.
func diffPrimitives(t testing.TB, r *rand.Rand, k, off, oneIn int) {
	t.Helper()
	var x [4]Vector
	for i := range x {
		x[i] = payload(r, k, off, oneIn)[off : off+k]
	}
	f := payload(r, 4, 0, oneIn)
	a := payload(r, k*k, off, oneIn)
	y := payload(r, k, off, oneIn)
	for _, s := range denseSets {
		if !s.ok {
			continue
		}
		got, want := a.Clone(), a.Clone()
		s.syrk4(f[0], x[0], x[1], x[2], x[3], got[off:off+k*k])
		syrk4Go(f[0], x[0], x[1], x[2], x[3], want[off:off+k*k])
		checkBits(t, s.name+" syrk4", got, want)

		got, want = y.Clone(), y.Clone()
		s.axpy4(f[0], f[1], f[2], f[3], x[0], x[1], x[2], x[3], got[off:off+k])
		axpy4Go(f[0], f[1], f[2], f[3], x[0], x[1], x[2], x[3], want[off:off+k])
		checkBits(t, s.name+" axpy4", got, want)

		got, want = y.Clone(), y.Clone()
		s.axpy1(f[1], x[0], got[off:off+k])
		axpy1Go(f[1], x[0], want[off:off+k])
		checkBits(t, s.name+" axpy1", got, want)

		for _, pivot := range []int{0, k / 2, k - 2, k - 1} {
			if pivot < 0 {
				continue
			}
			got, want = a.Clone(), a.Clone()
			s.cholTrail(got[off:off+k*k], k, pivot)
			cholTrailGo(want[off:off+k*k], k, pivot)
			checkBits(t, s.name+" cholTrail", got, want)
		}
	}

	rows := payload(r, 4*k, off, oneIn)[off : off+4*k]
	g0, g1, g2, g3 := dot4(rows, k, x[0])
	w0, w1, w2, w3 := dot4Go(rows, k, x[0])
	checkBits(t, "dot4", []float64{g0, g1, g2, g3}, []float64{w0, w1, w2, w3})

	// blockDot32 over 1 to 8 blocks, so both the four-block steps and the
	// one-block tail run; the specials include values past float32's range
	// at both ends, in the rows and in x.
	nb := 1 + r.Intn(8)
	v32 := payload32(r, nb*Block32*k, off, oneIn)
	xs := payload(r, k, 0, oneIn)[:k] // rounded to float32 by the kernel
	for i := range xs {
		if oneIn > 0 && r.Intn(oneIn) == 0 {
			xs[i] = specials32[r.Intn(len(specials32))]
		}
	}
	got32, want32 := payload32(r, nb*Block32, off, 0), payload32(r, nb*Block32, off, 0)
	copy(want32, got32)
	// theta is one of the rows' own float32 sums (or, with specials, one
	// of the specials), so the rule keeps some rows and drops others.
	bound, theta := 0.1*math.Abs(r.NormFloat64()), float64(blockDot32Sum(v32[off:], xs, r.Intn(nb*Block32)))
	if oneIn > 0 && r.Intn(4) == 0 {
		theta = specials[r.Intn(len(specials))]
	}
	gotKeep := blockDot32(v32[off:off+nb*Block32*k], xs, got32[off:off+nb*Block32], bound, theta)
	wantKeep := blockDot32Go(v32[off:off+nb*Block32*k], xs, want32[off:off+nb*Block32], bound, theta)
	what := fmt.Sprintf("blockDot32 %d blocks bound=%v theta=%v", nb, bound, theta)
	checkBits(t, what, widen(got32), widen(want32))
	if gotKeep != wantKeep {
		t.Fatalf("%s: kept rows %#x, want %#x", what, gotKeep, wantKeep)
	}

	// The lane kernels, each lane with its own count of vectors (0 to 4).
	// Where a lane carries no vector r, its slot r is scratch to the
	// kernel: the assembly leaves anything there, the Go body leaves it as
	// it was, so the comparison takes those from the Go body.
	var nr [Lanes]int
	for l := range nr {
		nr[l] = r.Intn(Lanes + 1)
	}
	u, xs := payload(r, Lanes*k*k, off, oneIn), payload(r, Lanes*Lanes*k, off, oneIn)
	src := payload(r, Lanes*k*k, off, oneIn)
	for _, inPlace := range []bool{true, false} {
		gotU, wantU, gotX, wantX := u.Clone(), u.Clone(), xs.Clone(), xs.Clone()
		gotFrom, wantFrom := gotU[off:off+Lanes*k*k], wantU[off:off+Lanes*k*k]
		if !inPlace {
			gotFrom, wantFrom = src[off:off+Lanes*k*k], src[off:off+Lanes*k*k]
		}
		cholUpdate4(gotU[off:off+Lanes*k*k], gotFrom, gotX[off:off+Lanes*Lanes*k], k, nr)
		cholUpdate4Go(wantU[off:off+Lanes*k*k], wantFrom, wantX[off:off+Lanes*Lanes*k], k, nr)
		scratchFrom(gotX[off:], wantX[off:], k, nr)
		what := fmt.Sprintf("cholUpdate4 nr=%v in place=%v", nr, inPlace)
		checkBits(t, what+" factor", gotU, wantU)
		checkBits(t, what+" vectors", gotX, wantX)
	}

	y, z := payload(r, Lanes*k, off, oneIn), payload(r, Lanes*k, off, oneIn)
	got, want := y.Clone(), y.Clone()
	solveUpperT4(u[off:off+Lanes*k*k], got[off:off+Lanes*k], k)
	solveUpperT4Go(u[off:off+Lanes*k*k], want[off:off+Lanes*k], k)
	checkBits(t, "solveUpperT4", got, want)

	gotA, wantA, gotB, wantB := y.Clone(), y.Clone(), z.Clone(), z.Clone()
	solveUpperPair4(u[off:off+Lanes*k*k], gotA[off:off+Lanes*k], gotB[off:off+Lanes*k], k)
	solveUpperPair4Go(u[off:off+Lanes*k*k], wantA[off:off+Lanes*k], wantB[off:off+Lanes*k], k)
	checkBits(t, "solveUpperPair4 a", gotA, wantA)
	checkBits(t, "solveUpperPair4 b", gotB, wantB)
}

// scratchFrom copies into got the elements of a lane-layout pass x (order
// k) that are scratch to CholUpdateUpper4: slot r of every lane l with
// nr[l] ≤ r.
func scratchFrom(got, want []float64, k int, nr [Lanes]int) {
	for l, n := range nr {
		for r := n; r < Lanes; r++ {
			for j := 0; j < k; j++ {
				i := (r*k+j)*Lanes + l
				got[i] = want[i]
			}
		}
	}
}

// diffGemv compares Gemv over a rows × k matrix with the per-row loop
// y[i] = alpha·Dot(A_i, x) + beta·y[i] (alpha·Dot alone when beta is 0),
// for (alpha, beta) = (1, 0) and (1.3, 0.2). y starts as special-laden
// payload, so a read of y under beta == 0 shows as soon as it is not finite.
func diffGemv(t testing.TB, r *rand.Rand, rows, k, off, oneIn int) {
	t.Helper()
	a := &Matrix{Rows: rows, Cols: k, Data: payload(r, rows*k, off, oneIn)[off : off+rows*k]}
	x := payload(r, k, off, oneIn)[off : off+k]
	yBuf := payload(r, rows, off, 4)
	for _, ab := range [][2]float64{{1, 0}, {1.3, 0.2}} {
		alpha, beta := ab[0], ab[1]
		got, want := yBuf.Clone(), yBuf.Clone()
		for i := 0; i < rows; i++ {
			s := Dot(a.Row(i), x)
			if beta == 0 {
				want[off+i] = alpha * s
			} else {
				want[off+i] = alpha*s + beta*want[off+i]
			}
		}
		Gemv(alpha, a, x, beta, got[off:off+rows])
		checkBits(t, fmt.Sprintf("Gemv %d×%d alpha=%v beta=%v", rows, k, alpha, beta), got, want)
	}
}

// diffBatch compares SyrkAxpyPanelLower over nnz gathered ratings with the
// per-rating loops a[i][j] += (alpha·x[i])·x[j], y[i] += (alpha·v)·x[i].
func diffBatch(t testing.TB, r *rand.Rand, k, nnz, off, oneIn int) {
	t.Helper()
	const alpha = 1.7
	nRows := nnz + 3
	src := &Matrix{Rows: nRows, Cols: k, Data: payload(r, nRows*k, off, oneIn)[off : off+nRows*k]}
	cols, vals := make([]int32, nnz), make([]float64, nnz)
	for p := range cols {
		cols[p], vals[p] = int32(r.Intn(nRows)), r.NormFloat64()
	}
	aBuf, yBuf := payload(r, k*k, off, oneIn), payload(r, k, off, oneIn)
	wantA, wantY := aBuf.Clone(), yBuf.Clone()
	for p, c := range cols {
		x := src.Row(int(c))
		for i := 0; i < k; i++ {
			fi := alpha * x[i]
			for j := 0; j <= i; j++ {
				wantA[off+i*k+j] += fi * x[j]
			}
		}
		fv := alpha * vals[p]
		for i := 0; i < k; i++ {
			wantY[off+i] += fv * x[i]
		}
	}
	a := &Matrix{Rows: k, Cols: k, Data: aBuf[off : off+k*k]}
	panel := &Matrix{Rows: GatherPanelRows, Cols: k, Data: payload(r, GatherPanelRows*k, off, 0)[off : off+GatherPanelRows*k]}
	SyrkAxpyPanelLower(alpha, src, cols, vals, a, yBuf[off:off+k], panel)
	checkBits(t, "batch precision", aBuf, wantA)
	checkBits(t, "batch rhs", yBuf, wantY)
}

// choleskyLeftLooking is the factorization la.Cholesky performed before it
// turned right-looking: every element is one sequential inner product.
func choleskyLeftLooking(l *Matrix) error {
	n := l.Rows
	for j := 0; j < n; j++ {
		rowj := l.Row(j)
		d := rowj[j]
		for k := 0; k < j; k++ {
			d -= rowj[k] * rowj[k]
		}
		if d <= 0 || math.IsNaN(d) {
			return &ErrNotSPD{Pivot: j, Value: d}
		}
		d = math.Sqrt(d)
		rowj[j] = d
		inv := 1 / d
		for i := j + 1; i < n; i++ {
			rowi := l.Row(i)
			s := rowi[j]
			for k := 0; k < j; k++ {
				s -= rowi[k] * rowj[k]
			}
			rowi[j] = s * inv
		}
		for i := j + 1; i < n; i++ {
			rowj[i] = 0
		}
	}
	return nil
}

// diffCholesky factors one matrix of order k in place with la.Cholesky and
// with the left-looking reference: the same factor, or the same refusal at
// the same pivot with the same value. With oneIn > 0 the strictly lower
// triangle carries special values (an infinity or NaN makes both refuse).
func diffCholesky(t testing.TB, r *rand.Rand, k, off, oneIn int) {
	t.Helper()
	buf := payload(r, k*k, off, 0)
	copy(buf[off:], randSPD(r, k).Data)
	if oneIn > 0 {
		for i := 0; i < k; i++ {
			for j := 0; j < i; j++ {
				if r.Intn(oneIn) == 0 {
					buf[off+i*k+j] = specials[r.Intn(len(specials))]
				}
			}
		}
	}
	want := buf.Clone()
	wantErr := choleskyLeftLooking(&Matrix{Rows: k, Cols: k, Data: want[off : off+k*k]})
	m := &Matrix{Rows: k, Cols: k, Data: buf[off : off+k*k]}
	err := Cholesky(m, m)
	if (err == nil) != (wantErr == nil) {
		t.Fatalf("Cholesky: error %v, left-looking reference %v", err, wantErr)
	}
	if err != nil {
		g, w := err.(*ErrNotSPD), wantErr.(*ErrNotSPD)
		if g.Pivot != w.Pivot || !sameBits(g.Value, w.Value) {
			t.Fatalf("Cholesky: refused with %v, left-looking reference with %v", g, w)
		}
		return
	}
	checkBits(t, "Cholesky", buf, want)
}

// TestPrimitivesMatchGoBodies logs the dense sets it compares and shows a
// set this CPU cannot run as a skipped subtest, so a run without AVX-512
// does not read as a pass of the AVX-512 bodies.
func TestPrimitivesMatchGoBodies(t *testing.T) {
	if HasAVX512 && !HasAVX2 {
		t.Fatal("HasAVX512 without HasAVX2")
	}
	for _, s := range denseSets {
		if s.ok {
			t.Logf("dense bodies compared with Go: %s", s.name)
		} else {
			t.Run(s.name, func(t *testing.T) { t.Skipf("the CPU or the OS does not run the %s bodies", s.name) })
		}
	}
	t.Logf("dot4, blockDot32 and the lane kernels compared with Go through their dispatchers (AVX2 bodies: %v)", HasAVX2)
	r := testRand(181)
	for k := 1; k <= 67; k++ {
		for off := 0; off < 4; off++ {
			diffPrimitives(t, r, k, off, 0)
			diffPrimitives(t, r, k, off, 8)
		}
	}
}

// TestGemvMatchesDotLoop covers every tail of the row blocking: rows on
// both sides of the four-row block and of a 64-row scoring panel, widths
// on both sides of dot4's four columns, at odd element offsets.
func TestGemvMatchesDotLoop(t *testing.T) {
	r := testRand(184)
	for rows := 0; rows <= 70; rows++ {
		for k := 1; k <= 67; k++ {
			oneIn := 0
			if k%2 == 0 {
				oneIn = 8
			}
			diffGemv(t, r, rows, k, 1+2*(rows%2), oneIn)
		}
	}
}

// TestGemvAllocatesNothing pins the scoring kernel at zero allocations with
// its operands on the caller's stack, as a ranking keeps them: a kernel
// that let an operand or a result escape would put them on the heap.
func TestGemvAllocatesNothing(t *testing.T) {
	r := testRand(185)
	data := payload(r, 70*32, 0, 0)
	x := payload(r, 32, 0, 0)[:32]
	if n := testing.AllocsPerRun(10, func() {
		var y [70]float64
		a := Matrix{Rows: 70, Cols: 32, Data: data[:70*32]}
		Gemv(1, &a, x, 0, y[:])
	}); n != 0 {
		t.Fatalf("Gemv allocates %v times per run, want 0", n)
	}
}

// TestBlockDot32Rule pins BlockDot32's rule on rows whose float32 sums
// are known (K = 1, x = 1): a row is dropped only when its sum is above
// −Inf and sum + bound is strictly below theta, and nothing is dropped
// under a NaN bound or theta. Rows 8–15 repeat rows 0–7, so the second
// block's byte lands in its place.
func TestBlockDot32Rule(t *testing.T) {
	inf, nan := math.Inf(1), math.NaN()
	rows := []float64{1, 2, 3, -inf, nan, inf, 0.5, 2.5}
	a := &Matrix{Rows: 16, Cols: 1, Data: append(append([]float64(nil), rows...), rows...)}
	blocks := PackBlocks32(a)
	for _, tc := range []struct {
		bound, theta float64
		keep         uint64
	}{
		// 2 + 0.5 == 2.5 is not below theta: kept.
		{0.5, 2.5, 0b10111110},
		{0, 2.5, 0b10111100},
		{0.5, inf, 0b00111000},
		{0.5, -inf, 0xff},
		{nan, 2.5, 0xff},
		{0.5, nan, 0xff},
		{inf, 2.5, 0xff},
	} {
		var ts [16]float32
		want := tc.keep | tc.keep<<8
		if got := BlockDot32(blocks, Vector{1}, ts[:], tc.bound, tc.theta); got != want {
			t.Errorf("bound %v theta %v: kept %#b, want %#b", tc.bound, tc.theta, got, want)
		}
		if got := BlockDot32(blocks, Vector{1}, ts[:8], tc.bound, tc.theta); got != tc.keep {
			t.Errorf("one block, bound %v theta %v: kept %#b, want %#b", tc.bound, tc.theta, got, tc.keep)
		}
		for j, tj := range ts[:8] {
			if !sameBits(float64(tj), rows[j]) {
				t.Fatalf("row %d: sum %v, want %v", j, tj, rows[j])
			}
		}
	}
}

func TestBatchMatchesPerRatingLoops(t *testing.T) {
	r := testRand(182)
	for k := 1; k <= 67; k++ {
		for nnz := 0; nnz <= 9; nnz++ {
			diffBatch(t, r, k, nnz, 1, 0)
			diffBatch(t, r, k, nnz, 3, 2*nnz+8)
		}
	}
	// Both sides of one and of two gather panels, at widths around the
	// four-lane and the K = 32, 64 boundaries.
	for _, k := range []int{1, 2, 3, 4, 5, 7, 8, 9, 31, 32, 33, 63, 64, 65, 67} {
		for nnz := 63; nnz <= 130; nnz++ {
			oneIn := 0
			if nnz%2 == 1 {
				oneIn = 2*nnz + 8
			}
			diffBatch(t, r, k, nnz, 1+nnz%3, oneIn)
		}
	}
}

func TestCholeskyMatchesLeftLooking(t *testing.T) {
	r := testRand(183)
	for k := 1; k <= 67; k++ {
		for off := 0; off < 4; off++ {
			diffCholesky(t, r, k, off, 0)
			diffCholesky(t, r, k, off, k*k)
		}
	}
}

// FuzzKernelsMatchGo drives the comparisons from fuzzed shapes: the nine
// primitives against their Go bodies, the batched accumulation, Cholesky,
// Gemv (nnz doubles as its row count), and the lane kernels against the
// one-vector loop and the lower-form solves on every lane (nnz doubles as
// the most vectors a lane takes); plain `go test` runs the seeds below.
func FuzzKernelsMatchGo(f *testing.F) {
	f.Add(int64(1), uint8(32), uint8(67), uint8(1), false)
	f.Add(int64(2), uint8(67), uint8(130), uint8(3), true)
	f.Add(int64(3), uint8(1), uint8(0), uint8(0), true)
	f.Add(int64(4), uint8(5), uint8(3), uint8(2), false)
	f.Fuzz(func(t *testing.T, seed int64, k, nnz, off uint8, special bool) {
		kk, n, o := 1+int(k)%67, int(nnz)%131, int(off)%4
		r := testRand(seed)
		var prim, batch, chol int
		if special {
			prim, batch, chol = 8, 2*n+8, kk*kk
		}
		diffPrimitives(t, r, kk, o, prim)
		diffBatch(t, r, kk, n, o, batch)
		diffCholesky(t, r, kk, o, chol)
		diffGemv(t, r, n, kk, o, prim)
		diffLanes(t, r, kk, n%13, o, special)
	})
}
