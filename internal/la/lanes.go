package la

import "math/bits"

// The lane layout: Lanes items side by side, one per float64 lane of a
// 256-bit register. Element (i, j) of item l's K × K matrix sits at
// [(i·K + j)·Lanes + l] and element i of its vector at [i·Lanes + l], so one
// register holds the same element of every item, and a lane performs the
// scalar loop's operations on its own item. Lanes never mix: what one lane
// holds cannot change another lane's bits. SetLane, LaneInto, SetPassVector
// and BroadcastUpperT pack and unpack the layout, so callers never index it.
//
// A sweep draws its rank-one items and its serial-Cholesky items four at a
// time this way, and a lone item is a group of one. A rank-one group
// builds its factors by rating updates (CholUpdateUpper4); a Cholesky
// group packs its four accumulated precisions (PackLower4) and factors
// them side by side (Cholesky4); CholeskyParallel writes a
// parallel-Cholesky item's factor into the lanes, factored there up to one
// block and broadcast (BroadcastUpperT) past it. Cholesky4 is also the
// body of every other factorization in the package. All then share the
// forward solve (SolveUpperT4) and the paired back-solve of
// the mean and the noise (SolveUpperPair4). The chains of one item are
// serial — hypot → ÷ → ÷ per rating, √ → ÷ per pivot — but the items of a
// sweep are independent, so four chains run in the time of one.

// Lanes is the number of items the lane kernels advance at once: the AVX2
// width in float64s.
const Lanes = 4

// SetLane writes v into lane l of buf, which holds len(v) elements per lane
// in the lane layout: element i of v (element (i, j) of a K × K matrix is
// element i·K + j) goes to buf[i·Lanes + l].
func SetLane(buf []float64, l int, v []float64) {
	buf = buf[:len(v)*Lanes]
	for i, e := range v {
		buf[i*Lanes+l] = e
	}
}

// LaneInto copies lane l of buf (lane layout, len(dst) elements per lane)
// into dst; SetLane's inverse.
func LaneInto(dst, buf []float64, l int) {
	buf = buf[:len(dst)*Lanes]
	for i := range dst {
		dst[i] = buf[i*Lanes+l]
	}
}

// SetPassVector makes a·v vector r of lane l in x, a CholUpdateUpper4 pass
// of order len(v).
func SetPassVector(x []float64, r, l int, a float64, v []float64) {
	x = x[r*len(v)*Lanes : (r+1)*len(v)*Lanes]
	for j, e := range v {
		x[j*Lanes+l] = a * e
	}
}

// BroadcastUpperT writes U = Lᵀ, the transpose of the lower-triangular l,
// into every lane of dst (lane layout, order l.Rows). Only U's upper
// triangle is written; the lane kernels read nothing else.
func BroadcastUpperT(dst []float64, l *Matrix) {
	n := l.Rows
	if l.Cols != n || len(dst) != Lanes*n*n {
		panic("la: BroadcastUpperT dimension mismatch")
	}
	for i := 0; i < n; i++ {
		for j := i; j < n; j++ {
			v := l.Data[j*n+i]
			e := dst[(i*n+j)*Lanes : (i*n+j+1)*Lanes]
			e[0], e[1], e[2], e[3] = v, v, v, v
		}
	}
}

// CholUpdateUpper4 performs rank-one updates of four Cholesky
// factorizations held transposed, one per lane (lane layout, order k ≥ 1):
// given upper-triangular U_l in from with A_l = U_lᵀ·U_l, it writes to u
// the factor of A_l + Σ_{r < nr[l]} x_lr·x_lrᵀ. from is u for an update in
// place, or a factor that does not overlap u, which is then left as it was;
// only the upper triangles are read and written. x holds one pass of up
// to four vectors per lane, element j of lane l's vector r at
// x[(r·k + j)·Lanes + l] (len(x) = Lanes·Lanes·k); nr[l] is 0 to 4. Each
// vector is one sweep of Givens rotations (Golub & Van Loan §6.5.4): at
// pivot p, h = hypot(u_pp, x_p), c = h/u_pp, s = x_p/u_pp, u_pp ← h, and
// row p of U — column p of L = Uᵀ — rotates against x's tail. A lane
// chains its vectors' (s, c, 1/c) through u_pp in order, then every element
// of row p takes its rotations in that order, so each lane ends bit-equal
// to the one-vector-at-a-time loop on its own factor, however its vectors
// are split into calls.
//
// A lane with fewer than four vectors, or none, is left out of the
// rotations it does not carry, never padded with an identity rotation:
// −0 + +0 is +0, so even s = 0, c = 1 would change a bit. hypot is
// math.Hypot as amd64 computes it, special cases included (+Inf if either
// operand is infinite, else NaN if either is NaN, +0 for two zeros), and
// rounds its square on its own on every architecture. x is destroyed: the
// vectors a lane carries end as the one-vector loop leaves them, the rest
// hold anything.
func CholUpdateUpper4(u, from, x []float64, k int, nr [Lanes]int) {
	if k < 1 || len(u) != Lanes*k*k || len(from) != len(u) || len(x) != Lanes*Lanes*k {
		panic("la: CholUpdateUpper4 dimension mismatch")
	}
	for _, n := range nr {
		if n < 0 || n > Lanes {
			panic("la: CholUpdateUpper4 takes 0 to 4 vectors per lane")
		}
	}
	cholUpdate4(u, from, x, k, nr)
}

// SolveUpperT4 solves U_lᵀ·y_l = b_l in place (y ← y_l) in every lane:
// SolveLower on L_l = U_lᵀ, bit for bit. Column-oriented, so U is read by
// rows: once y_p is known, row p takes u_pi·y_p off every later y_i.
func SolveUpperT4(u, y []float64, k int) {
	if k < 1 || len(u) != Lanes*k*k || len(y) != Lanes*k {
		panic("la: SolveUpperT4 dimension mismatch")
	}
	solveUpperT4(u, y, k)
}

// SolveUpperPair4 solves U_l·x = a_l and U_l·y = b_l in place (a ← x,
// b ← y) in every lane, in one pass over U's rows: each vector receives
// SolveLowerT's operations on L_l = U_lᵀ in order, so a and b end bit-equal
// to two SolveLowerT calls per lane. The two back-substitutions are
// independent chains that the core overlaps. a and b must not alias.
func SolveUpperPair4(u, a, b []float64, k int) {
	if k < 1 || len(u) != Lanes*k*k || len(a) != Lanes*k || len(b) != Lanes*k {
		panic("la: SolveUpperPair4 dimension mismatch")
	}
	solveUpperPair4(u, a, b, k)
}

// PackLower4 packs the lower triangles of the row-major K × K matrices
// a[0..m) into dst (lane layout, order K = a[0].Rows), a[l] into lane l,
// for Cholesky4; lanes l ≥ m take a[0]'s triangle, so a partly filled
// group factors m clean items. Row i is copied over its columns [0, c_i),
// c_i = min(K, ⌈(i+1)/4⌉·4): a row's last four-column block may carry up to
// three elements from above the diagonal, which Cholesky4 overwrites
// before it reads them. The rest of dst is left as it was.
func PackLower4(dst []float64, a [Lanes]*Matrix, m int) {
	k := a[0].Rows
	if m < 1 || m > Lanes || len(dst) != Lanes*k*k {
		panic("la: PackLower4 dimension mismatch")
	}
	for l := range a {
		if l >= m {
			a[l] = a[0]
		}
		if a[l].Rows != k || a[l].Cols != k || len(a[l].Data) != k*k {
			panic("la: PackLower4 dimension mismatch")
		}
	}
	packLower4(dst, a[0].Data, a[1].Data, a[2].Data, a[3].Data, k)
}

// Cholesky4 factors in place the four symmetric matrices whose lower
// triangles a holds (lane layout, order k ≥ 1, packed by PackLower4), one
// per lane, right-looking on each lane's own matrix: at pivot p, d ← √d,
// one reciprocal 1/d, column p below the pivot scaled by it and mirrored
// into row p's upper part, then l_ij −= l_ip·l_jp over the trailing lower
// triangle, a multiply then a subtraction. Each element so takes its terms
// in ascending p and then one scaling, the left-looking inner product's
// order, and its bits. Each lane ends with the factor L in its lower
// triangle and U = Lᵀ in its upper triangle, what SolveUpperT4 and
// SolveUpperPair4 read. It is the package's one factorization body:
// Cholesky and CholeskyParallel factor through it too.
//
// A lane whose pivot p is not positive (d ≤ 0 or NaN) keeps d there and
// goes on with garbage. Of the lanes l < m that do, the lowest one's first
// such pivot is returned as Cholesky would report it; lanes ≥ m are never
// reported.
func Cholesky4(a []float64, k, m int) error {
	if k < 1 || m < 1 || m > Lanes || len(a) != Lanes*k*k {
		panic("la: Cholesky4 dimension mismatch")
	}
	bad := cholesky4(a, k) & (1<<m - 1)
	if bad == 0 {
		return nil
	}
	l := bits.TrailingZeros(uint(bad))
	for p := 0; ; p++ {
		if d := a[(p*k+p)*Lanes+l]; !(d > 0) {
			return &ErrNotSPD{Pivot: p, Value: d}
		}
	}
}
