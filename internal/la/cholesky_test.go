package la

import (
	"fmt"
	"math"
	"math/rand"
	"runtime"
	"testing"
)

// testRand returns a deterministic PRNG for test data (math/rand is fine
// here; keyed streams are only required inside the sampler).
func testRand(seed int64) *rand.Rand { return rand.New(rand.NewSource(seed)) }

func randVector(r *rand.Rand, n int) Vector {
	v := NewVector(n)
	for i := range v {
		v[i] = r.NormFloat64()
	}
	return v
}

func randMatrix(r *rand.Rand, m, n int) *Matrix {
	a := NewMatrix(m, n)
	for i := range a.Data {
		a.Data[i] = r.NormFloat64()
	}
	return a
}

// randSPD builds a well-conditioned random SPD matrix B·Bᵀ + n·I.
func randSPD(r *rand.Rand, n int) *Matrix {
	b := randMatrix(r, n, n)
	a := NewMatrix(n, n)
	gemm(1, b, b.Transpose(), a)
	for i := 0; i < n; i++ {
		a.Set(i, i, a.At(i, i)+float64(n))
	}
	return a
}

// reconstruct computes L·Lᵀ.
func reconstruct(l *Matrix) *Matrix {
	n := l.Rows
	a := NewMatrix(n, n)
	gemm(1, l, l.Transpose(), a)
	return a
}

func TestCholeskyKnown(t *testing.T) {
	// A = [[4,2],[2,3]] has L = [[2,0],[1,sqrt(2)]].
	a := NewMatrixFrom([][]float64{{4, 2}, {2, 3}})
	l := NewMatrix(2, 2)
	if err := Cholesky(a, l); err != nil {
		t.Fatal(err)
	}
	if !almostEq(l.At(0, 0), 2, 1e-15) || !almostEq(l.At(1, 0), 1, 1e-15) ||
		!almostEq(l.At(1, 1), math.Sqrt2, 1e-15) || l.At(0, 1) != 0 {
		t.Fatalf("Cholesky factor wrong: %+v", l.Data)
	}
}

func TestCholeskyReconstruct(t *testing.T) {
	for _, n := range []int{1, 2, 3, 5, 8, 17, 33, 64} {
		r := testRand(int64(n))
		a := randSPD(r, n)
		l := NewMatrix(n, n)
		if err := Cholesky(a, l); err != nil {
			t.Fatalf("n=%d: %v", n, err)
		}
		if d := MaxAbsDiff(reconstruct(l), a); d > 1e-9*float64(n) {
			t.Fatalf("n=%d: reconstruction error %g", n, d)
		}
	}
}

func TestCholeskyInPlace(t *testing.T) {
	r := testRand(3)
	a := randSPD(r, 6)
	want := NewMatrix(6, 6)
	if err := Cholesky(a, want); err != nil {
		t.Fatal(err)
	}
	if err := Cholesky(a, a); err != nil { // aliasing dst == a
		t.Fatal(err)
	}
	if MaxAbsDiff(a, want) != 0 {
		t.Fatal("in-place Cholesky differs from out-of-place")
	}
}

func TestCholeskyNotSPD(t *testing.T) {
	a := NewMatrixFrom([][]float64{{1, 0}, {0, -1}})
	l := NewMatrix(2, 2)
	err := Cholesky(a, l)
	if err == nil {
		t.Fatal("expected ErrNotSPD")
	}
	if _, ok := err.(*ErrNotSPD); !ok {
		t.Fatalf("expected *ErrNotSPD, got %T", err)
	}
}

// upperFactor returns the transposed Cholesky factor U = Lᵀ of a.
func upperFactor(t testing.TB, a *Matrix) *Matrix {
	t.Helper()
	l := NewMatrix(a.Rows, a.Rows)
	if err := Cholesky(a, l); err != nil {
		t.Fatal(err)
	}
	return l.Transpose()
}

// toLanes packs four equal-length blocks — K × K matrices or K-vectors —
// into the lane layout, block l in lane l.
func toLanes(blocks [Lanes][]float64) Vector {
	out := NewVector(Lanes * len(blocks[0]))
	for l, b := range blocks {
		SetLane(out, l, b)
	}
	return out
}

// lane copies lane l of a lane-layout buffer out.
func lane(buf []float64, l int) Vector {
	out := NewVector(len(buf) / Lanes)
	LaneInto(out, buf, l)
	return out
}

// TestLaneHelpers pins SetLane, LaneInto and SetPassVector to the layout's
// index formulas: element i of lane l at [i·Lanes + l], vector r of a pass
// of order k at [(r·k + j)·Lanes + l], and nothing else written.
func TestLaneHelpers(t *testing.T) {
	r := testRand(4)
	for _, k := range []int{1, 3, 8} {
		for l := 0; l < Lanes; l++ {
			v := randVector(r, k)
			buf := payload(r, Lanes*k, 0, 0)[:Lanes*k]
			want := buf.Clone()
			for i, e := range v {
				want[i*Lanes+l] = e
			}
			SetLane(buf, l, v)
			checkBits(t, "SetLane", buf, want)
			got := NewVector(k)
			LaneInto(got, buf, l)
			checkBits(t, "LaneInto", got, v)

			x := payload(r, Lanes*Lanes*k, 0, 0)[:Lanes*Lanes*k]
			for rr := 0; rr < Lanes; rr++ {
				want = x.Clone()
				for j, e := range v {
					want[(rr*k+j)*Lanes+l] = -3 * e
				}
				SetPassVector(x, rr, l, -3, v)
				checkBits(t, "SetPassVector", x, want)
			}
		}
	}
}

// updateLanes runs CholUpdateUpper4 on u (order n) the way the rank-one
// item update does: lane l takes its vectors xs[l] in passes of up to four,
// the first pass reading a copy of u. The vectors are not modified.
func updateLanes(u []float64, n int, xs [Lanes][]Vector) {
	x := NewVector(Lanes * Lanes * n)
	from := Vector(u).Clone()
	for lo := 0; ; lo += Lanes {
		var nr [Lanes]int
		for l, v := range xs {
			nr[l] = min(max(len(v)-lo, 0), Lanes)
			for r := 0; r < nr[l]; r++ {
				for j, e := range v[lo+r] {
					x[(r*n+j)*Lanes+l] = e
				}
			}
		}
		if nr == [Lanes]int{} {
			return
		}
		CholUpdateUpper4(u, from, x, n, nr)
		from = u
	}
}

// TestCholUpdateMatchesRefactor: updating U with m vectors gives the factor
// of A + Σ x_r·x_rᵀ computed from scratch, in every lane, for m on both
// sides of a four-vector pass and a different A, x and m in each lane.
func TestCholUpdateMatchesRefactor(t *testing.T) {
	for _, n := range []int{1, 2, 4, 8, 16, 32} {
		for _, m := range []int{1, 3, 4, 6} {
			r := testRand(int64(100 + n + 64*m))
			var as, us [Lanes][]float64
			var xs [Lanes][]Vector
			for l := range as {
				a := randSPD(r, n)
				as[l], us[l] = a.Data, upperFactor(t, a).Data
				for v := 0; v < m+l%3; v++ {
					xs[l] = append(xs[l], randVector(r, n))
				}
			}
			u := toLanes(us)
			updateLanes(u, n, xs)
			for l := range as {
				// Reference: factor A + Σ x_r·x_rᵀ directly.
				ap := &Matrix{Rows: n, Cols: n, Data: Vector(as[l]).Clone()}
				for _, x := range xs[l] {
					SyrLower(1, x, ap)
				}
				SymmetrizeLower(ap)
				got := &Matrix{Rows: n, Cols: n, Data: lane(u, l)}
				if d := MaxAbsDiff(got, upperFactor(t, ap)); d > 1e-9 {
					t.Fatalf("n=%d m=%d lane %d: CholUpdateUpper4 deviates from refactorization by %g", n, m, l, d)
				}
			}
		}
	}
}

func TestCholUpdateSequence(t *testing.T) {
	// Many successive updates must stay consistent (this is exactly the
	// rank-one item-update kernel's usage pattern): 50 calls of one vector
	// in lane 0 beside lanes that take none.
	n := 8
	r := testRand(9)
	acc := Eye(n)
	u := toLanes([Lanes][]float64{Eye(n).Data, Eye(n).Data, Eye(n).Data, Eye(n).Data})
	for step := 0; step < 50; step++ {
		x := randVector(r, n)
		SyrLower(1, x, acc)
		updateLanes(u, n, [Lanes][]Vector{{x}})
	}
	SymmetrizeLower(acc)
	got := &Matrix{Rows: n, Cols: n, Data: lane(u, 0)}
	if d := MaxAbsDiff(reconstruct(got.Transpose()), acc); d > 1e-8 {
		t.Fatalf("50 rank-one updates drifted by %g", d)
	}
	if d := MaxAbsDiff(&Matrix{Rows: n, Cols: n, Data: lane(u, 3)}, Eye(n)); d != 0 {
		t.Fatalf("a lane without vectors moved by %g", d)
	}
}

// cholUpdateStrided is the rank-one update la performed before it held the
// factor transposed: one vector at a time on the lower factor L, walking
// column k at stride n, with math.Hypot. It is the bit reference of
// CholUpdateUpper4's every lane.
func cholUpdateStrided(l *Matrix, x Vector) {
	n := l.Rows
	for k := 0; k < n; k++ {
		lkk := l.At(k, k)
		xk := x[k]
		r := math.Hypot(lkk, xk)
		c := r / lkk
		s := xk / lkk
		l.Set(k, k, r)
		if k+1 < n {
			invC := 1 / c
			for i := k + 1; i < n; i++ {
				lik := l.At(i, k)
				v := (lik + float64(s*x[i])) * invC
				x[i] = float64(c*x[i]) - float64(s*v)
				l.Set(i, k, v)
			}
		}
	}
}

// signedZeros overwrites about one element in four of v with −0 or +0.
func signedZeros(r *rand.Rand, v []float64) {
	for i := range v {
		if r.Intn(4) == 0 {
			v[i] = math.Copysign(0, float64(r.Intn(2))-0.5)
		}
	}
}

// hypotSpecials are the operands whose math.Hypot takes a special case or
// sits at the edge of the range: both signs of zero, subnormals, the
// extremes, the infinities and NaN.
var hypotSpecials = []float64{0, math.Copysign(0, -1), 5e-324, -5e-324, 2.2250738585072014e-308,
	1e-300, 1, -1, 3, 1e300, math.MaxFloat64, -math.MaxFloat64, math.Inf(1), math.Inf(-1), math.NaN()}

// laneRef is one lane's reference: its lower factor after each prefix of
// its vectors under cholUpdateStrided (l[i] after i of them), and each
// vector as that loop leaves it.
type laneRef struct {
	l []*Matrix
	x []Vector
}

func strided(l *Matrix, xs []Vector) laneRef {
	ref := laneRef{l: []*Matrix{l.Clone()}}
	for _, x := range xs {
		f, w := ref.l[len(ref.l)-1].Clone(), x.Clone()
		cholUpdateStrided(f, w)
		ref.l, ref.x = append(ref.l, f), append(ref.x, w)
	}
	return ref
}

// junkPool holds the values junk copies from: a finite ramp with every
// third value one of the specials.
var junkPool = func() Vector {
	v := NewVector(1 << 16)
	for i := range v {
		v[i] = -0.375 * float64(i%997)
		if i%3 == 0 {
			v[i] = specials[i/3%len(specials)]
		}
	}
	return v
}()

// junk returns n + off + 4 values for the parts of a buffer a kernel must
// neither read nor write, copied from a random point of junkPool, so the
// exhaustive tests spend their time in the kernel rather than drawing
// garbage.
func junk(r *rand.Rand, n, off int) Vector {
	buf := NewVector(n + off + 4)
	copy(buf, junkPool[r.Intn(len(junkPool)-len(buf)):])
	return buf
}

// packUpper writes U_l = L_lᵀ of every lane's lower factor into the upper
// triangle of dst (lane layout), leaving the rest of dst as it was.
func packUpper(dst []float64, ls [Lanes]*Matrix) {
	n := ls[0].Rows
	for l, f := range ls {
		for i := 0; i < n; i++ {
			for j := i; j < n; j++ {
				dst[(i*n+j)*Lanes+l] = f.Data[j*n+i]
			}
		}
	}
}

// checkLanes runs calls through CholUpdateUpper4 on the lane-layout packing
// of the lower factors ls, at element offset off of larger buffers — call c
// gives lane l its next calls[c][l] vectors of xs[l], and fills the slots it
// carries no vector in with garbage; the first call reads the factors from
// a separate buffer whose strictly lower parts hold garbage — and compares
// every lane's factor and vectors with its strided reference bit for bit.
// The buffers are compared whole, so a write outside the operands, or below
// the diagonal, fails too.
func checkLanes(t testing.TB, what string, r *rand.Rand, ls [Lanes]*Matrix, xs [Lanes][]Vector, refs [Lanes]laneRef, calls [][Lanes]int, off int) {
	t.Helper()
	n := ls[0].Rows
	ubuf := junk(r, Lanes*n*n, off)
	want := ubuf.Clone()
	from := junk(r, Lanes*n*n, 0)[:Lanes*n*n]
	packUpper(from, ls)
	xbuf := junk(r, Lanes*Lanes*n, off)
	xWant := xbuf.Clone()
	u, x := ubuf[off:off+Lanes*n*n], xbuf[off:off+Lanes*Lanes*n]
	var done [Lanes]int
	for _, nr := range calls {
		copy(x, junkPool[r.Intn(len(junkPool)-len(x)):])
		for l := range nr {
			for rr := 0; rr < nr[l]; rr++ {
				for j, e := range xs[l][done[l]+rr] {
					x[(rr*n+j)*Lanes+l] = e
				}
			}
		}
		CholUpdateUpper4(u, from, x, n, nr)
		from = u
		for l := range nr {
			for rr := 0; rr < nr[l]; rr++ {
				v := done[l] + rr
				for j, e := range refs[l].x[v] {
					if got := x[(rr*n+j)*Lanes+l]; !sameBits(got, e) {
						t.Fatalf("%s lane %d vector %d: element %d is %v (%#x), want %v (%#x)", what, l, v, j,
							got, math.Float64bits(got), e, math.Float64bits(e))
					}
				}
			}
			done[l] += nr[l]
		}
	}
	var fs [Lanes]*Matrix
	for l := range fs {
		fs[l] = refs[l].l[done[l]]
	}
	packUpper(want[off:], fs)
	checkBits(t, what+" factors", ubuf, want)
	copy(xWant[off:], x)
	checkBits(t, what+" pass buffer bounds", xbuf, xWant)
}

// compositions returns every way to take m vectors in calls of one to four.
func compositions(m int) [][]int {
	if m == 0 {
		return [][]int{nil}
	}
	var out [][]int
	for first := 1; first <= min(m, Lanes); first++ {
		for _, rest := range compositions(m - first) {
			out = append(out, append([]int{first}, rest...))
		}
	}
	return out
}

// randomCalls spreads m vectors over exactly c calls of zero to four each
// (m ≤ 4c).
func randomCalls(r *rand.Rand, m, c int) []int {
	parts := make([]int, c)
	for m > 0 {
		if i := r.Intn(c); parts[i] < Lanes {
			parts[i]++
			m--
		}
	}
	return parts
}

// TestCholUpdateUpperMatchesStrided: lane 0 takes m = 1…9 vectors in every
// split into calls of one to four, at every order from 1 to 67. Beside it,
// lane 1 takes as many vectors, lane 2 fewer and lane 3 none, each spread
// over the same calls with idle calls allowed. Every lane must end with
// exactly the strided one-vector loop's L and vectors. The factors carry −0
// below their diagonals and the vectors carry signed zeros, so a lane
// padded with an identity rotation (−0 + +0 = +0) would show; the slots a
// lane does not use hold infinities and NaNs, so would a lane that reads
// them.
func TestCholUpdateUpperMatchesStrided(t *testing.T) {
	r := testRand(186)
	for n := 1; n <= 67; n++ {
		off := 1 + 2*(n%2)
		var ls [Lanes]*Matrix
		for l := range ls {
			ls[l] = upperFactor(t, randSPD(r, n)).Transpose()
			for i := 0; i < n; i++ {
				signedZeros(r, ls[l].Data[i*n:i*n+i])
			}
		}
		for m := 1; m <= 9; m++ {
			var xs [Lanes][]Vector
			var refs [Lanes]laneRef
			for l, ml := range [Lanes]int{m, m, r.Intn(m + 1), 0} {
				for v := 0; v < ml; v++ {
					x := randVector(r, n)
					signedZeros(r, x)
					xs[l] = append(xs[l], x)
				}
				refs[l] = strided(ls[l], xs[l])
			}
			for _, split := range compositions(m) {
				calls := make([][Lanes]int, len(split))
				for l := 0; l < Lanes; l++ {
					parts := split
					if l > 0 {
						parts = randomCalls(r, min(len(xs[l]), Lanes*len(split)), len(split))
					}
					for c, p := range parts {
						calls[c][l] = p
					}
				}
				// A lane that gets fewer vectors than it has keeps the
				// prefix: the reference holds every prefix's factor.
				checkLanes(t, fmt.Sprintf("n=%d m=%d split=%v", n, m, calls), r, ls, xs, refs, calls, off)
			}
		}
	}
}

// TestCholUpdateUpper4Hypot: at order 1 a lane's update is u ← hypot(u, x),
// so every pair of hypotSpecials and random values drives the kernel's own
// hypot, which must return math.Hypot's bits on amd64 — +Inf over NaN, +0
// for two zeros, and 0x7FF8000000000001 for NaN — in every lane, beside
// lanes that carry no vector. The Go body's scalar hypot is held to the
// same.
func TestCholUpdateUpper4Hypot(t *testing.T) {
	if runtime.GOARCH != "amd64" {
		t.Skip("math.Hypot is the reference on amd64; elsewhere it may fuse its square")
	}
	r := testRand(30)
	vals := append([]float64(nil), hypotSpecials...)
	for i := 0; i < 24; i++ {
		vals = append(vals, r.NormFloat64()*math.Pow(10, float64(r.Intn(40)-20)))
	}
	for _, p := range vals {
		for _, q := range vals {
			want := math.Hypot(p, q)
			if got := hypot(p, q); math.Float64bits(got) != math.Float64bits(want) {
				t.Fatalf("hypot(%v, %v) = %v (%#x), math.Hypot %v (%#x)", p, q, got, math.Float64bits(got), want, math.Float64bits(want))
			}
			for l := 0; l < Lanes; l++ {
				var nr [Lanes]int
				nr[l] = 1
				u := Vector{-7, -7, -7, -7}
				u[l] = p
				x := NewVector(Lanes * Lanes)
				x[l] = q
				CholUpdateUpper4(u, u, x, 1, nr)
				if math.Float64bits(u[l]) != math.Float64bits(want) {
					t.Fatalf("lane %d: hypot(%v, %v) = %v (%#x), math.Hypot %v (%#x)", l, p, q, u[l], math.Float64bits(u[l]), want, math.Float64bits(want))
				}
				for o := range u {
					if o != l && u[o] != -7 {
						t.Fatalf("lane %d moved a lane without vectors to %v", l, u[o])
					}
				}
			}
		}
	}
}

// diffLanes is one randomized lane workload for the fuzz target: order k,
// up to m vectors per lane in random calls, specials in the factors
// (diagonal included) and vectors when special is set. The factors are
// checked against the strided reference, then both solves on the updated
// factors against SolveLower and SolveLowerT lane by lane.
func diffLanes(t testing.TB, r *rand.Rand, k, m, off int, special bool) {
	t.Helper()
	var ls [Lanes]*Matrix
	var xs [Lanes][]Vector
	var refs [Lanes]laneRef
	c := max((m+Lanes-1)/Lanes, 1) // with m = 0, one call that carries nothing: a copy
	calls := make([][Lanes]int, c)
	for l := range ls {
		ls[l] = upperFactor(t, randSPD(r, k)).Transpose()
		signedZeros(r, ls[l].Data)
		for i := 0; i < k; i++ {
			ls[l].Data[i*k+i] = math.Abs(ls[l].Data[i*k+i])
			for j := i + 1; j < k; j++ {
				ls[l].Data[i*k+j] = 0
			}
		}
		ml := r.Intn(m + 1)
		for v := 0; v < ml; v++ {
			x := payload(r, k, 0, 0)[:k]
			signedZeros(r, x)
			xs[l] = append(xs[l], x)
		}
		if special {
			for i := range ls[l].Data {
				if i%(k+1) == 0 || i/k > i%k {
					if r.Intn(2*k) == 0 {
						ls[l].Data[i] = hypotSpecials[r.Intn(len(hypotSpecials))]
					}
				}
			}
			for _, x := range xs[l] {
				for j := range x {
					if r.Intn(2*k) == 0 {
						x[j] = hypotSpecials[r.Intn(len(hypotSpecials))]
					}
				}
			}
		}
		refs[l] = strided(ls[l], xs[l])
		for ci, p := range randomCalls(r, ml, c) {
			calls[ci][l] = p
		}
	}
	checkLanes(t, fmt.Sprintf("k=%d m=%d special=%v", k, m, special), r, ls, xs, refs, calls, off)

	var us, bs, cs [Lanes][]float64
	for l := range ls {
		f := refs[l].l[len(refs[l].l)-1]
		us[l] = f.Transpose().Data
		bs[l], cs[l] = payload(r, k, 0, 0)[:k], payload(r, k, 0, 0)[:k]
		tinyAndZeros(r, bs[l])
		tinyAndZeros(r, cs[l])
	}
	u := toLanes(us)
	y := toLanes(bs)
	SolveUpperT4(u, y, k)
	a, b := y.Clone(), toLanes(cs)
	SolveUpperPair4(u, a, b, k)
	for l := range ls {
		f := refs[l].l[len(refs[l].l)-1]
		wantY, wantA, wantB := NewVector(k), NewVector(k), NewVector(k)
		SolveLower(f, bs[l], wantY)
		SolveLowerT(f, wantY, wantA)
		SolveLowerT(f, cs[l], wantB)
		checkBits(t, fmt.Sprintf("k=%d lane %d SolveUpperT4", k, l), lane(y, l), wantY)
		checkBits(t, fmt.Sprintf("k=%d lane %d SolveUpperPair4 a", k, l), lane(a, l), wantA)
		checkBits(t, fmt.Sprintf("k=%d lane %d SolveUpperPair4 b", k, l), lane(b, l), wantB)
	}
}

// diffCholesky4 draws a Cholesky group of m ≤ 4 matrices of order k —
// SPD, or, about one lane in three, damaged so that the factorization
// refuses it: a pivot made −0, +0, negative or NaN, or with oneIn > 0
// special values sprinkled over the lower triangle — packs it (PackLower4)
// into a buffer at offset off that holds other values, and factors it
// (Cholesky4). Every lane l < m must hold the left-looking reference's
// factor L of its matrix bit for bit in its lower triangle and Lᵀ in its
// upper one, unless the reference refuses it; the error must be the lowest
// refused lane's, pivot and value. (Cholesky itself is Cholesky4, so it
// cannot be the reference.) Lanes ≥ m are
// given matrices that are not SPD, which the pack must not read: they
// hold lane 0's factor. Poisoned after the pack, they are still never
// reported and leave lanes < m as they were. Nothing outside the group's
// K × K lane block is written.
func diffCholesky4(t testing.TB, r *rand.Rand, k, m, off, oneIn int) {
	t.Helper()
	var mats [Lanes]*Matrix
	for l := range mats {
		a := randSPD(r, k)
		damaged := l >= m || r.Intn(3) == 0
		if damaged {
			p := r.Intn(k)
			a.Data[p*k+p] = []float64{0, math.Copysign(0, -1), -1, math.NaN(), -a.Data[p*k+p]}[r.Intn(5)]
		}
		if oneIn > 0 {
			for i := 0; i < k; i++ {
				for j := 0; j <= i; j++ {
					if r.Intn(oneIn) == 0 {
						a.Data[i*k+j] = specials[r.Intn(len(specials))]
					}
				}
			}
		}
		mats[l] = a
	}
	buf := payload(r, Lanes*k*k, off, 4)
	before := buf.Clone()
	g := buf[off : off+Lanes*k*k]
	PackLower4(g, mats, m)
	// A copy whose lanes ≥ m are poisoned after the pack: every pivot −1
	// or NaN. It must factor lanes < m alike and report the same.
	poisoned := g.Clone()
	for l := m; l < Lanes; l++ {
		for p := 0; p < k; p++ {
			poisoned[(p*k+p)*Lanes+l] = []float64{-1, math.NaN()}[r.Intn(2)]
		}
	}
	err := Cholesky4(g, k, m)
	if perr := Cholesky4(poisoned, k, m); fmt.Sprint(perr) != fmt.Sprint(err) {
		t.Fatalf("Cholesky4 k=%d m=%d: lanes ≥ m poisoned: %v, packed: %v", k, m, perr, err)
	}
	for l := 0; l < m; l++ {
		checkBits(t, fmt.Sprintf("Cholesky4 k=%d m=%d lane %d beside poisoned lanes", k, m, l), lane(poisoned, l), lane(g, l))
	}
	what := fmt.Sprintf("Cholesky4 k=%d m=%d off=%d", k, m, off)
	checkBits(t, what+" outside the group", append(buf[:off:off], buf[off+Lanes*k*k:]...),
		append(before[:off:off], before[off+Lanes*k*k:]...))

	var wantErr *ErrNotSPD
	for l := 0; l < Lanes; l++ {
		got := lane(g, l)
		if l >= m {
			checkBits(t, fmt.Sprintf("%s lane %d (past m) against lane 0", what, l), got, lane(g, 0))
			continue
		}
		f := mats[l].Clone()
		if e := choleskyLeftLooking(f); e != nil {
			if wantErr == nil {
				wantErr = e.(*ErrNotSPD)
			}
			continue
		}
		for i := 0; i < k; i++ {
			for j := 0; j < k; j++ {
				w := f.Data[i*k+j]
				if j > i {
					w = f.Data[j*k+i]
				}
				if !sameBits(got[i*k+j], w) {
					t.Fatalf("%s lane %d: element (%d, %d) is %v, want %v", what, l, i, j, got[i*k+j], w)
				}
			}
		}
	}
	if wantErr == nil {
		if err != nil {
			t.Fatalf("%s: %v, want no error", what, err)
		}
		return
	}
	g2, ok := err.(*ErrNotSPD)
	if !ok || g2.Pivot != wantErr.Pivot || !sameBits(g2.Value, wantErr.Value) {
		t.Fatalf("%s: error %v, want %v", what, err, wantErr)
	}
}

// TestCholesky4MatchesCholesky: the Cholesky group against the left-looking
// factorization at every order 1…67, offsets 0–3 and fills 1–4, with and
// without special values.
func TestCholesky4MatchesCholesky(t *testing.T) {
	r := testRand(188)
	for k := 1; k <= 67; k++ {
		for off := 0; off < 4; off++ {
			for m := 1; m <= Lanes; m++ {
				diffCholesky4(t, r, k, m, off, 0)
				diffCholesky4(t, r, k, m, off, 2*k*k)
			}
		}
	}
}

// TestSolveUpperMatchesLower: SolveUpperT4 on U_l = L_lᵀ is SolveLower on
// L_l bit for bit in every lane, on factors and right-hand sides carrying
// signed zeros, each lane its own system.
func TestSolveUpperMatchesLower(t *testing.T) {
	r := testRand(187)
	for n := 1; n <= 67; n++ {
		var ls [Lanes]*Matrix
		var us, bs [Lanes][]float64
		for l := range ls {
			ls[l] = upperFactor(t, randSPD(r, n)).Transpose()
			for i := 0; i < n; i++ {
				signedZeros(r, ls[l].Data[i*n:i*n+i])
			}
			us[l] = ls[l].Transpose().Data
			bs[l] = randVector(r, n)
			signedZeros(r, bs[l])
		}
		y := toLanes(bs)
		SolveUpperT4(toLanes(us), y, n)
		for l := range ls {
			want := NewVector(n)
			SolveLower(ls[l], bs[l], want)
			checkBits(t, fmt.Sprintf("n=%d lane %d SolveUpperT4", n, l), lane(y, l), want)
		}
	}
}

// tinyAndZeros overwrites about one element in three of v with ±0 or a
// subnormal of either sign.
func tinyAndZeros(r *rand.Rand, v []float64) {
	tiny := []float64{0, math.Copysign(0, -1), 5e-324, -5e-324, 2.5e-310, -1e-315}
	for i := range v {
		if r.Intn(3) == 0 {
			v[i] = tiny[r.Intn(len(tiny))]
		}
	}
}

// TestSolvePairMatchesSingles: each vector of SolveUpperPair4 (every lane)
// is SolveLowerT's bit for bit at every order 1…67,
// with ±0 and subnormals planted in the factor's off-diagonal part and in
// both right-hand sides, and when the two right-hand sides hold equal
// values.
func TestSolvePairMatchesSingles(t *testing.T) {
	r := testRand(29)
	for n := 1; n <= 67; n++ {
		var ls [Lanes]*Matrix
		var us, xs, ys [Lanes][]float64
		for l := range ls {
			ls[l] = upperFactor(t, randSPD(r, n)).Transpose()
			for i := 0; i < n; i++ {
				tinyAndZeros(r, ls[l].Data[i*n:i*n+i])
			}
			us[l] = ls[l].Transpose().Data
			xs[l], ys[l] = randVector(r, n), randVector(r, n)
			tinyAndZeros(r, xs[l])
			tinyAndZeros(r, ys[l])
		}
		u := toLanes(us)
		for _, rhs := range []struct {
			name string
			a, b [Lanes][]float64
		}{{"distinct", xs, ys}, {"equal", xs, xs}} {
			gotA, gotB := toLanes(rhs.a), toLanes(rhs.b)
			SolveUpperPair4(u, gotA, gotB, n)
			for l, f := range ls {
				wantA, wantB := NewVector(n), NewVector(n)
				SolveLowerT(f, rhs.a[l], wantA)
				SolveLowerT(f, rhs.b[l], wantB)
				what := fmt.Sprintf("n=%d %s lane %d", n, rhs.name, l)
				checkBits(t, what+" SolveUpperPair4 a", lane(gotA, l), wantA)
				checkBits(t, what+" SolveUpperPair4 b", lane(gotB, l), wantB)
			}
		}
	}
}

func TestSolveLowerAndT(t *testing.T) {
	r := testRand(5)
	n := 12
	a := randSPD(r, n)
	l := NewMatrix(n, n)
	if err := Cholesky(a, l); err != nil {
		t.Fatal(err)
	}
	b := randVector(r, n)
	y := NewVector(n)
	SolveLower(l, b, y)
	// L·y must equal b.
	ly := NewVector(n)
	Gemv(1, l, y, 0, ly)
	for i := range b {
		if !almostEq(ly[i], b[i], 1e-10) {
			t.Fatalf("SolveLower residual at %d: %v vs %v", i, ly[i], b[i])
		}
	}
	z := NewVector(n)
	SolveLowerT(l, b, z)
	ltz := NewVector(n)
	Gemv(1, l.Transpose(), z, 0, ltz)
	for i := range b {
		if !almostEq(ltz[i], b[i], 1e-10) {
			t.Fatalf("SolveLowerT residual at %d: %v vs %v", i, ltz[i], b[i])
		}
	}
}

func TestSolveSPD(t *testing.T) {
	r := testRand(11)
	n := 10
	a := randSPD(r, n)
	l := NewMatrix(n, n)
	if err := Cholesky(a, l); err != nil {
		t.Fatal(err)
	}
	b := randVector(r, n)
	x := NewVector(n)
	scratch := NewVector(n)
	SolveSPD(l, b, x, scratch)
	ax := NewVector(n)
	Gemv(1, a, x, 0, ax)
	for i := range b {
		if !almostEq(ax[i], b[i], 1e-9) {
			t.Fatalf("SolveSPD residual at %d: %v vs %v", i, ax[i], b[i])
		}
	}
}

// TestInvFromChol: InvFromCholWS inverts A whatever its scratch vectors
// hold on entry.
func TestInvFromChol(t *testing.T) {
	r := testRand(13)
	n := 7
	a := randSPD(r, n)
	l := NewMatrix(n, n)
	if err := Cholesky(a, l); err != nil {
		t.Fatal(err)
	}
	inv := NewMatrix(n, n)
	InvFromCholWS(l, inv, randVector(r, n), randVector(r, n))
	prod := NewMatrix(n, n)
	gemm(1, a, inv, prod)
	if d := MaxAbsDiff(prod, Eye(n)); d > 1e-9 {
		t.Fatalf("A·A⁻¹ deviates from I by %g", d)
	}
}
