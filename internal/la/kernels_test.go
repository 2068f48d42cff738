package la

import (
	"math"
	"math/rand"
	"testing"
)

// Differential tests of the vectorised kernels. Three layers, all compared
// bit for bit:
//
//   - each primitive's dispatcher (the AVX2 body on amd64) against its Go
//     body — the same comparison is trivially true under the purego tag;
//   - the batched accumulation built on them against the naive per-rating
//     loops, for rating counts on both sides of the four-row block and of a
//     gather panel;
//   - the right-looking Cholesky against the left-looking loop it replaced,
//     kept below as the reference.
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

// diffPrimitives compares the four dispatchers with their Go bodies at
// width k.
func diffPrimitives(t testing.TB, r *rand.Rand, k, off, oneIn int) {
	t.Helper()
	var x [4]Vector
	for i := range x {
		x[i] = payload(r, k, off, oneIn)[off : off+k]
	}
	f := payload(r, 4, 0, oneIn)

	a := payload(r, k*k, off, oneIn)
	got, want := a.Clone(), a.Clone()
	syrk4(f[0], x[0], x[1], x[2], x[3], got[off:off+k*k])
	syrk4Go(f[0], x[0], x[1], x[2], x[3], want[off:off+k*k])
	checkBits(t, "syrk4", got, want)

	y := payload(r, k, off, oneIn)
	got, want = y.Clone(), y.Clone()
	axpy4(f[0], f[1], f[2], f[3], x[0], x[1], x[2], x[3], got[off:off+k])
	axpy4Go(f[0], f[1], f[2], f[3], x[0], x[1], x[2], x[3], want[off:off+k])
	checkBits(t, "axpy4", got, want)

	got, want = y.Clone(), y.Clone()
	axpy1(f[1], x[0], got[off:off+k])
	axpy1Go(f[1], x[0], want[off:off+k])
	checkBits(t, "axpy1", got, want)

	for _, pivot := range []int{0, k / 2, k - 2, k - 1} {
		if pivot < 0 {
			continue
		}
		got, want = a.Clone(), a.Clone()
		cholTrail(got[off:off+k*k], k, pivot)
		cholTrailGo(want[off:off+k*k], k, pivot)
		checkBits(t, "cholTrail", got, want)
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

func TestPrimitivesMatchGoBodies(t *testing.T) {
	r := testRand(181)
	for k := 1; k <= 67; k++ {
		for off := 0; off < 4; off++ {
			diffPrimitives(t, r, k, off, 0)
			diffPrimitives(t, r, k, off, 8)
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

// FuzzKernelsMatchGo drives the three comparisons from fuzzed shapes; plain
// `go test` runs the seeds below.
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
	})
}
