package la

import "math"

// The inner loops of the dense item update, of the item updates in lane
// groups and of the scoring pass. Each has the pure-Go body below and, on
// amd64, an AVX2 body in kernels_amd64.s computing the same bits; the three
// dense primitives also have an AVX-512 body in kernels_avx512_amd64.s. A
// vector lane only holds a value these loops already keep separate (one
// memory element, one row's inner product, or in the lane kernels one
// item), and every step is a multiply then an add or subtract, never a
// fused multiply-add. The AVX2 dense bodies take the last count mod 4
// elements of a run through the scalar forms of the same two instructions;
// the AVX-512 ones take the last count mod 8 through one step under an
// opmask, whose loads and store touch only those elements. The Go bodies
// are the reference of the differential test and the only path off amd64,
// under the purego tag, or without AVX2. Callers pass lengths they have
// checked; the bodies check nothing.
//
// These nine are what the exported kernels call: syrk4, axpy4 and axpy1 for
// the dense item update's accumulation, dot4 for Gemv, and the five lane
// kernels (lanes.go), which advance four items at a time: the rank-one
// group's factor update, the Cholesky group's pack and factor, and the two
// solves every item draw ends in. cholesky4 is the package's one
// factorization body: Cholesky, CholeskyParallel's diagonal blocks and the
// Cholesky groups all run it. kernels_amd64.go's init points them at the
// widest bodies the CPU and the OS run: AVX-512, then AVX2, then Go. The
// tenth, blockDot8 (blocks8.go, the integer pass of a ranking), is
// dispatched by a direct call instead, AVX2 or Go; its sums are exact, so
// no lane rule applies.
var (
	syrk4           = syrk4Go
	axpy4           = axpy4Go
	axpy1           = axpy1Go
	dot4            = dot4Go
	cholUpdate4     = cholUpdate4Go
	solveUpperT4    = solveUpperT4Go
	solveUpperPair4 = solveUpperPair4Go
	packLower4      = packLower4Go
	cholesky4       = cholesky4Go
)

// HasAVX2 reports whether the AVX2 bodies run: the CPU and the OS support
// AVX2 on amd64, outside the purego build. HasAVX512 reports the same of
// the AVX-512 bodies (AVX512F and AVX512VL with opmask and ZMM state); it
// implies HasAVX2. Both are set once, by this package's init, before any
// importer's init reads them; rng's lane fill dispatches on HasAVX2 too,
// so there is one CPU check.
var HasAVX2, HasAVX512 bool

// denseSet is one vector set of the three dense-update primitives.
type denseSet struct {
	name  string
	ok    bool // the CPU and the OS run it
	syrk4 func(alpha float64, x0, x1, x2, x3, a []float64)
	axpy4 func(a0, a1, a2, a3 float64, x0, x1, x2, x3, y []float64)
	axpy1 func(alpha float64, x, y []float64)
}

// denseSets lists the build's vector sets of the dense primitives, narrowest
// first; the dispatchers run the last one the CPU runs, and the
// differential test compares every one it runs with the Go bodies. Empty
// off amd64 and under purego.
var denseSets []denseSet

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

// dot4Go returns the inner products of x with the four consecutive rows of
// a (row stride k) over columns [0, k&^3): four independent chains, each
// from +0 in ascending column order, so row r's sum is Dot's so far. The
// caller finishes the columns past k&^3.
func dot4Go(a []float64, k int, x []float64) (s0, s1, s2, s3 float64) {
	n := k &^ 3
	r0, r1, r2, r3 := a[:n], a[k:k+n], a[2*k:2*k+n], a[3*k:3*k+n]
	for j, xj := range x[:n] {
		s0 += r0[j] * xj
		s1 += r1[j] * xj
		s2 += r2[j] * xj
		s3 += r3[j] * xj
	}
	return
}

// hypot is math.Hypot as amd64 computes it (archHypot): +Inf if either
// operand is infinite, else NaN if either is NaN, +0 if both are zero, else
// max·√(1 + (min/max)²). The square is rounded on its own, which the
// portable math.Hypot does not force: arm64 fuses it into the sum.
func hypot(p, q float64) float64 {
	p, q = math.Abs(p), math.Abs(q)
	switch {
	case math.IsInf(p, 1) || math.IsInf(q, 1):
		return math.Inf(1)
	case math.IsNaN(p) || math.IsNaN(q):
		return math.NaN()
	}
	if p < q {
		p, q = q, p
	}
	if p == 0 {
		return 0
	}
	q /= p
	return p * math.Sqrt(1+float64(q*q))
}

// cholUpdate4Go is CholUpdateUpper4: from's upper triangle copied to u
// unless from is u, then one lane at a time: at pivot p the lane chains its
// nr[l] rotations (s, c, 1/c) through u_pp, then applies them rating by
// rating to row p's tail, u_j ← (u_j + s·x_j)·(1/c) and
// x_j ← c·x_j − s·u_j. Each u_j so receives the rotations in rating order.
// A lane's vectors past nr[l] are not touched.
func cholUpdate4Go(u, from, x []float64, k int, nr [4]int) {
	if &from[0] != &u[0] {
		for p := 0; p < k; p++ {
			copy(u[(p*k+p)*4:(p+1)*k*4], from[(p*k+p)*4:])
		}
	}
	var rot [12]float64
	for l, n := range nr {
		for p := 0; p < k; p++ {
			pp := (p*k+p)*4 + l
			d := u[pp]
			for r := 0; r < n; r++ {
				xp := x[(r*k+p)*4+l]
				h := hypot(d, xp)
				c := h / d
				rot[3*r], rot[3*r+1], rot[3*r+2] = xp/d, c, 1/c
				d = h
			}
			u[pp] = d
			if p+1 == k {
				break
			}
			row := u[pp+4 : (p+1)*k*4]
			for r := 0; r < n; r++ {
				s, c, invC := rot[3*r], rot[3*r+1], rot[3*r+2]
				xr := x[(r*k+p+1)*4+l : (r+1)*k*4]
				for j := 0; j < len(row); j += 4 {
					xj := xr[j]
					v := (row[j] + float64(s*xj)) * invC
					xr[j] = float64(c*xj) - float64(s*v)
					row[j] = v
				}
			}
		}
	}
}

// solveUpperT4Go is SolveUpperT4, one lane at a time: y_p ← y_p / u_pp,
// then y_i −= u_pi·y_p for every i > p.
func solveUpperT4Go(u, y []float64, k int) {
	for l := 0; l < 4; l++ {
		for p := 0; p < k; p++ {
			row := u[p*k*4 : (p+1)*k*4]
			yp := y[p*4+l] / row[p*4+l]
			y[p*4+l] = yp
			for i := p + 1; i < k; i++ {
				y[i*4+l] -= float64(row[i*4+l] * yp)
			}
		}
	}
}

// solveUpperPair4Go is SolveUpperPair4, one lane at a time: for i from the
// last row up, a_i ← (a_i − Σ_{p>i} u_ip·a_p) / u_ii with the terms taken
// off in ascending p, and b_i likewise, both in one pass.
func solveUpperPair4Go(u, a, b []float64, k int) {
	for l := 0; l < 4; l++ {
		for i := k - 1; i >= 0; i-- {
			row := u[i*k*4 : (i+1)*k*4]
			s, t := a[i*4+l], b[i*4+l]
			for p := i + 1; p < k; p++ {
				r := row[p*4+l]
				s -= float64(r * a[p*4+l])
				t -= float64(r * b[p*4+l])
			}
			a[i*4+l], b[i*4+l] = s/row[i*4+l], t/row[i*4+l]
		}
	}
}

// packLower4Go is PackLower4: row i of every a_l over its columns
// [0, min(k, (i|3)+1)), element (i, j) of a_l to lane l of element (i, j).
func packLower4Go(dst, a0, a1, a2, a3 []float64, k int) {
	for i := 0; i < k; i++ {
		for j := i * k; j < i*k+min(k, (i|3)+1); j++ {
			e := dst[j*4 : j*4+4]
			e[0], e[1], e[2], e[3] = a0[j], a1[j], a2[j], a3[j]
		}
	}
}

// cholesky4Go is Cholesky4 one lane at a time, returning the lanes that met
// a pivot not above 0 as a bit mask. Per pivot p: s = √d, u_pp ← s (d where
// the pivot fails), inv = 1/s, then row by row below the pivot l_ip ← l_ip·inv,
// mirrored to u_pi, and row i's trailing part l_ij −= l_ip·u_pj for
// p < j ≤ i, where u_pj = l_jp was mirrored by an earlier row or this one.
func cholesky4Go(a []float64, k int) (bad int) {
	for l := 0; l < 4; l++ {
		for p := 0; p < k; p++ {
			pp := (p*k+p)*4 + l
			d := a[pp]
			s := math.Sqrt(d)
			a[pp] = s
			if !(d > 0) {
				a[pp] = d
				bad |= 1 << l
			}
			inv := 1 / s
			rowp := a[p*k*4 : (p+1)*k*4]
			for i := p + 1; i < k; i++ {
				rowi := a[i*k*4 : (i+1)*k*4]
				v := rowi[p*4+l] * inv
				rowi[p*4+l] = v
				rowp[i*4+l] = v
				for j := (p+1)*4 + l; j <= i*4+l; j += 4 {
					rowi[j] -= float64(v * rowp[j])
				}
			}
		}
	}
	return bad
}
