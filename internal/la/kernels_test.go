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
//   - each primitive against its Go body: the three dense ones through
//     every set of bodies the CPU runs (AVX2, AVX-512), the rest through
//     their dispatchers — trivially true under the purego tag;
//   - the batched accumulation built on them against the naive per-rating
//     loops, for rating counts on both sides of the four-row block and of a
//     gather panel;
//   - Cholesky, which is Cholesky4 on one lane, against the left-looking
//     loop kept below as the reference;
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

// blockDot8Sum is row j's int32 sum of packed rows v with x, in int64
// so that a sum the kernel would wrap shows as out of int32's range.
func blockDot8Sum(v []int8, x []int16, j int) int64 {
	blk := v[(j/Block8)*Block8*len(x):]
	var s int64
	for c, xc := range x {
		s += int64(xc) * int64(blk[(c/2)*2*Block8+2*(j%Block8)+c%2])
	}
	return s
}

// diffPrimitives compares the ten primitives with their Go bodies at width
// k (the lane kernels at order k): the three dense ones through every set
// in denseSets the CPU runs, the other seven through their dispatchers.
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
	}

	rows := payload(r, 4*k, off, oneIn)[off : off+4*k]
	g0, g1, g2, g3 := dot4(rows, k, x[0])
	w0, w1, w2, w3 := dot4Go(rows, k, x[0])
	checkBits(t, "dot4", []float64{g0, g1, g2, g3}, []float64{w0, w1, w2, w3})

	// blockDot8 over 1 to 8 blocks, so both the four-block steps and the
	// one-block tail run, with every byte and every query value at the
	// limits the packers produce (|q| ≤ 127, |x| ≤ QueryRange(k)); with
	// specials, the extremes themselves.
	nb, pairs := 1+r.Intn(8), Pairs(k)
	rx := QueryRange(k)
	v8 := make([]int8, off+nb*Block8*2*pairs+4)
	for i := range v8 {
		v8[i] = int8(r.Intn(255) - 127)
		if oneIn > 0 && r.Intn(oneIn) == 0 {
			v8[i] = int8(127 * (2*r.Intn(2) - 1))
		}
	}
	x16 := make([]int16, 2*pairs)
	for i := range x16[:k] {
		x16[i] = int16(r.Intn(2*rx+1) - rx)
		if oneIn > 0 && r.Intn(oneIn) == 0 {
			x16[i] = int16(rx * (2*r.Intn(2) - 1))
		}
	}
	got8, want8 := make([]int32, off+nb*Block8+4), make([]int32, off+nb*Block8+4)
	for i := range got8 {
		got8[i] = int32(r.Uint32())
	}
	copy(want8, got8)
	// thr is one of the rows' own sums, or with specials one of the
	// extremes, so the rule keeps some rows and drops others.
	thr := int32(blockDot8Sum(v8[off:], x16, r.Intn(nb*Block8)))
	if oneIn > 0 && r.Intn(4) == 0 {
		thr = []int32{math.MinInt32, math.MaxInt32, -1, 0}[r.Intn(4)]
	}
	gotKeep := blockDot8(v8[off:off+nb*Block8*2*pairs], x16, got8[off:off+nb*Block8], thr)
	wantKeep := blockDot8Go(v8[off:off+nb*Block8*2*pairs], x16, want8[off:off+nb*Block8], thr)
	what := fmt.Sprintf("blockDot8 %d blocks thr=%d", nb, thr)
	for i := range want8 {
		if got8[i] != want8[i] {
			t.Fatalf("%s: element %d is %d, want %d", what, i, got8[i], want8[i])
		}
	}
	for j := range nb * Block8 {
		if s := blockDot8Sum(v8[off:], x16, j); s != int64(want8[off+j]) {
			t.Fatalf("%s: row %d sums to %d, the exact sum is %d", what, j, want8[off+j], s)
		}
	}
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

	// The Cholesky group's pack and factor, on SPD matrices (with specials
	// sprinkled over their lower triangles, which may make a lane fail)
	// packed over a buffer that holds other values, the whole buffer
	// compared: pack, then factor, then the failing lanes.
	var mats [Lanes][]float64
	for l := range mats {
		mats[l] = payload(r, k*k, off, 0)[off : off+k*k]
		copy(mats[l], randSPD(r, k).Data)
		if oneIn > 0 {
			for i := range mats[l] {
				if i/k >= i%k && r.Intn(oneIn) == 0 {
					mats[l][i] = specials[r.Intn(len(specials))]
				}
			}
		}
	}
	buf := payload(r, Lanes*k*k, off, oneIn)
	got, want = buf.Clone(), buf.Clone()
	packLower4(got[off:off+Lanes*k*k], mats[0], mats[1], mats[2], mats[3], k)
	packLower4Go(want[off:off+Lanes*k*k], mats[0], mats[1], mats[2], mats[3], k)
	checkBits(t, "packLower4", got, want)
	gotBad := cholesky4(got[off:off+Lanes*k*k], k)
	wantBad := cholesky4Go(want[off:off+Lanes*k*k], k)
	checkBits(t, "cholesky4", got, want)
	if gotBad != wantBad {
		t.Fatalf("cholesky4: failing lanes %#b, want %#b", gotBad, wantBad)
	}
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

// choleskyLeftLooking is the reference every factorization in the package
// is held to: every element is one sequential inner product, then one
// scaling. Cholesky4's right-looking updates give each element the same
// terms in the same order, so the same bits.
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

// diffCholesky factors one matrix of order k in place with Cholesky and
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
	t.Logf("dot4, blockDot8 and the lane kernels compared with Go through their dispatchers (AVX2 bodies: %v)", HasAVX2)
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

// TestBlockDot8Rule pins BlockDot8's rule on rows whose sums are known
// (one column pair, x = (1, 0)): a row is skipped iff its sum is at most
// thr, so a sum equal to thr is skipped and thr + 1 kept; math.MinInt32
// keeps every row and math.MaxInt32 none. Rows 8–15 repeat rows 0–7 and
// rows 32–39 too, so the bytes of the second block and of a one-block
// tail after four blocks land in their places.
func TestBlockDot8Rule(t *testing.T) {
	rows := []int8{-127, -1, 0, 1, 2, 3, 126, 127}
	a := &Matrix{Rows: 40, Cols: 1, Data: make([]float64, 40)}
	for i := range a.Data {
		a.Data[i] = float64(rows[i%8])
	}
	blocks, exp, l1 := PackBlocks8(a)
	if exp != 0 || l1 != 127 {
		t.Fatalf("PackBlocks8: exp %d, l1 %d, want 0 and 127", exp, l1)
	}
	x := []int16{1, 0}
	for _, tc := range []struct {
		thr  int32
		keep uint64
	}{
		{2, 0b11100000},  // 2 is skipped, 3 kept
		{1, 0b11110000},  // 1 skipped, 2 kept
		{-2, 0b11111110}, // only −127
		{126, 0b10000000},
		{127, 0},
		{-127, 0b11111110},
		{-128, 0xff},
		{math.MinInt32, 0xff},
		{math.MaxInt32, 0},
	} {
		var ts [40]int32
		want := tc.keep | tc.keep<<8
		if got := BlockDot8(blocks, x, ts[:16], tc.thr); got != want {
			t.Errorf("thr %d: kept %#b, want %#b", tc.thr, got, want)
		}
		if got := BlockDot8(blocks, x, ts[:8], tc.thr); got != tc.keep {
			t.Errorf("one block, thr %d: kept %#b, want %#b", tc.thr, got, tc.keep)
		}
		if got, want := BlockDot8(blocks, x, ts[:40], tc.thr), tc.keep*0x0101010101; got != want {
			t.Errorf("five blocks, thr %d: kept %#b, want %#b", tc.thr, got, want)
		}
		for j, tj := range ts {
			if tj != int32(rows[j%8]) {
				t.Fatalf("row %d: sum %d, want %d", j, tj, rows[j%8])
			}
		}
	}
}

// TestPackBlocks8 pins the quantisers: the scale is the smallest power of
// two that brings the largest magnitude to the integer range (but never
// below 2⁻¹⁰²²), values round half to even, every element lands at its
// place in the layout with the padding zero, the l1 sums are exact, and a
// NaN or an infinity builds nothing.
func TestPackBlocks8(t *testing.T) {
	for _, tc := range []struct {
		max float64
		exp int
	}{
		{127, 0}, {127.5, 1}, {254, 1}, {254.5, 2}, {63.5, -1}, {1, -6}, {0.5, -7},
		{math.MaxFloat64, 1018}, {5e-324, -1022}, {0, -1022},
	} {
		a := &Matrix{Rows: 1, Cols: 1, Data: []float64{-tc.max}}
		if _, exp, _ := PackBlocks8(a); exp != tc.exp {
			t.Errorf("max %v: exp %d, want %d", tc.max, exp, tc.exp)
		}
	}
	// Half-way values round to even: with 127 the largest, s = 1.
	a := &Matrix{Rows: 9, Cols: 3, Data: make([]float64, 27)}
	for i := range a.Data {
		a.Data[i] = []float64{0.5, 1.5, 2.5, -0.5, -1.5, -2.5, 126.5, -127, 3}[i%9]
	}
	want := []int8{0, 2, 2, 0, -2, -2, 126, -127, 3}
	blocks, exp, l1 := PackBlocks8(a)
	if exp != 0 || len(blocks) != 2*Block8*2*2 {
		t.Fatalf("exp %d, %d bytes", exp, len(blocks))
	}
	best := 0
	for i := 0; i < a.Rows; i++ {
		sum := 0
		for c := 0; c < 4; c++ {
			got := blocks[(i/Block8)*Block8*4+(c/2)*2*Block8+2*(i%Block8)+c%2]
			w := int8(0)
			if c < a.Cols {
				w = want[(i*a.Cols+c)%9]
			}
			if got != w {
				t.Fatalf("element (%d, %d) is %d, want %d", i, c, got, w)
			}
			sum += int(max(w, -w))
		}
		best = max(best, sum)
	}
	if l1 != best {
		t.Errorf("l1 %d, want %d", l1, best)
	}
	for _, bad := range []float64{math.NaN(), math.Inf(1), math.Inf(-1)} {
		a.Data[4] = bad
		if b, _, _ := PackBlocks8(a); b != nil {
			t.Errorf("%v in the matrix: packed %d bytes, want none", bad, len(b))
		}
		if _, _, ok := PackQuery16(a.Data[:5], make([]int16, 6)); ok {
			t.Errorf("%v in the query: packed it", bad)
		}
	}
	// The query range and its scale: R binds from k = 517.
	for _, tc := range []struct{ k, r int }{{1, 32767}, {516, 32767}, {517, 32706}, {1024, 16513}, {1 << 16, 258}, {1<<16 + 1, 0}} {
		if r := QueryRange(tc.k); r != tc.r {
			t.Errorf("QueryRange(%d) = %d, want %d", tc.k, r, tc.r)
		}
	}
	x := Vector{32767, -0.5, 1.5, 3}
	dst := []int16{9, 9, 9, 9, 9, 9}
	if exp, l1, ok := PackQuery16(x, dst); !ok || exp != 0 || l1 != 32767+0+2+3 || dst[0] != 32767 || dst[1] != 0 || dst[2] != 2 || dst[4] != 9 {
		t.Errorf("PackQuery16(%v) = %d, %d, %v, %v", x, exp, l1, ok, dst)
	}
	x = Vector{32768, 1, -1}
	if exp, l1, ok := PackQuery16(x, dst); !ok || exp != 1 || l1 != 16384 || dst[0] != 16384 || dst[1] != 0 || dst[3] != 0 {
		t.Errorf("PackQuery16(%v) = %d, %d, %v, %v", x, exp, l1, ok, dst)
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

// FuzzKernelsMatchGo drives the comparisons from fuzzed shapes: the ten
// primitives against their Go bodies, the batched accumulation, Cholesky
// against the left-looking reference, Gemv (nnz doubles as its row count),
// the lane kernels against the one-vector loop and the lower-form solves on
// every lane (nnz doubles as the most vectors a lane takes), and the
// Cholesky group against the left-looking reference on every lane (nnz
// also picks the group's fill); plain `go test` runs the seeds below.
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
		diffCholesky4(t, r, kk, 1+n%Lanes, o, chol)
	})
}

// TestBlockDot8ExactAtQueryRange drives the sums to their extremes, every
// byte −127 or 127 against x_c = ±QueryRange(k), at the widths where the
// range binds (k = 517, 1024 and the largest a checkpoint holds), and
// checks them against int64 sums: none may wrap.
func TestBlockDot8ExactAtQueryRange(t *testing.T) {
	for _, k := range []int{516, 517, 1024, 1 << 16} {
		rx := QueryRange(k)
		pairs := Pairs(k)
		v := make([]int8, Block8*2*pairs)
		for i := range v {
			v[i] = -127
			if i%(2*Block8) >= 2*(Block8/2) { // rows 4–7 all 127
				v[i] = 127
			}
		}
		x := make([]int16, 2*pairs)
		for c := range x[:k] {
			x[c] = int16(rx)
		}
		var ts [Block8]int32
		keep := BlockDot8(v, x, ts[:], 0)
		for j, tj := range ts {
			want := int64(-127) * int64(rx) * int64(k)
			if j >= Block8/2 {
				want = -want
			}
			if int64(tj) != want || blockDot8Sum(v, x, j) != want {
				t.Fatalf("k=%d row %d: sum %d, want %d", k, j, tj, want)
			}
		}
		if keep != 0xf0 {
			t.Errorf("k=%d: kept %#b, want the four positive rows", k, keep)
		}
	}
}
