package rng

import "math"

// log returns the natural logarithm of x: math/log.go's reduction and
// polynomial (FreeBSD's e_log.c) in the order and at the reduction boundary
// of amd64's math.Log (log_amd64.s), with every product rounded on its own.
// On amd64 it is therefore math.Log bit for bit, and on the arches where Go
// would fuse a product into a sum (arm64, ppc64le, s390x, riscv64) it
// still is, so the polar method's normals and the gamma sampler's
// acceptance follow one chain everywhere. The lane fill (lanes_amd64.s)
// performs the same operations four lanes at a time.
//
// Special cases as log_amd64.s: ±0 → −Inf, x < 0 → NaN, +Inf and NaN → x.
// The assembly takes a subnormal's exponent field at face value; this port
// normalises it first, as math.Frexp does. Neither sampler can produce
// one: the polar method's s is at least 2⁻¹⁰⁴, the gamma sampler's u is 0
// or at least 2⁻⁵³, and its v = (1 + c·x)³ is at least 2⁻¹⁵⁹.
func log(x float64) float64 {
	const (
		ln2Hi = 6.93147180369123816490e-01 // 0x3fe62e42fee00000
		ln2Lo = 1.90821492927058770002e-10 // 0x3dea39ef35793c76
		l1    = 6.666666666666735130e-01   // 0x3FE5555555555593
		l2    = 3.999999999940941908e-01   // 0x3FD999999997FA04
		l3    = 2.857142874366239149e-01   // 0x3FD2492494229359
		l4    = 2.222219843214978396e-01   // 0x3FCC71C51D8E78AF
		l5    = 1.818357216161805012e-01   // 0x3FC7466496CB03DE
		l6    = 1.531383769920937332e-01   // 0x3FC39A09D078C69F
		l7    = 1.479819860511658591e-01   // 0x3FC2F112DF3E5244
	)
	b := math.Float64bits(x)
	switch {
	case b&^(1<<63) == 0:
		return math.Inf(-1)
	case int64(b) < 0:
		return math.NaN()
	case b >= 0x7FF0000000000000:
		return x
	}

	// f1·2^ki = x with f1 in [1/2, 1), by the bits.
	ki := int(b>>52) - 0x3FE
	if ki == -0x3FE { // subnormal
		b = math.Float64bits(x * (1 << 52))
		ki = int(b>>52) - 0x3FE - 52
	}
	f1 := math.Float64frombits(b&(1<<52-1) | 0x3FE<<52)
	// log_amd64.s reduces at ≤ (CMPSD's not-less-than), math/log.go at <.
	if f1 <= math.Sqrt2/2 {
		f1 *= 2
		ki--
	}
	f := f1 - 1
	k := float64(ki)

	s := f / (2 + f)
	s2 := float64(s * s)
	s4 := float64(s2 * s2)
	t1 := float64(s2 * (l1 + float64(s4*(l3+float64(s4*(l5+float64(s4*l7)))))))
	t2 := float64(s4 * (l2 + float64(s4*(l4+float64(s4*l6)))))
	r := t1 + t2
	hfsq := float64(float64(0.5*f) * f)
	return float64(k*ln2Hi) - ((hfsq - (float64(s*(hfsq+r)) + float64(k*ln2Lo))) - f)
}
