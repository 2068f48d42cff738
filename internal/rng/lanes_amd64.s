//go:build amd64 && !purego

#include "textflag.h"

// The lane fill: four keyed streams side by side, one per 64-bit lane, each
// running Norm's polar loop on its own. One rule keeps a lane bit-equal to
// the scalar stream: a lane holds one stream's values, every integer step
// is the xoshiro256** step on that stream's words, and every float step is
// a VMULPD, VADDPD, VSUBPD, VDIVPD or VSQRTPD that Norm (or log_amd64.s,
// for math.Log) performs in the same order, with no FMA. Steps that are
// exact in any order (the uniform's conversion, the reduction's ·1 or ·2)
// are written so, and the comment says why.
//
// Each iteration draws u then v from every lane's stream, whether or not
// the lane still needs a pair, so a lane's stream advances exactly as Norm
// advances it while the lane is live. A lane accepts when it is live
// (count < K) and 0 < s < 1; then u·f goes to its row count and, if that
// row is not its last, v·f to the next (an odd K leaves the last pair's
// v·f as Norm's spare, which nobody reads), and its count grows by 2.
// Rows are per lane, so the stores are scalar: an address per lane,
// redirected to a frame slot where the lane does not store.

// Lane constants, 32 bytes each so that they can be a VEX memory operand.
#define LANES4(name, v) \
	DATA name<>+0(SB)/8, $v; \
	DATA name<>+8(SB)/8, $v; \
	DATA name<>+16(SB)/8, $v; \
	DATA name<>+24(SB)/8, $v; \
	GLOBL name<>(SB), RODATA|NOPTR, $32

LANES4(lo32, 0x00000000ffffffff)
LANES4(exp52, 0x4330000000000000)	// 2⁵²
LANES4(exp52k, 0x43300000000003fe)	// 2⁵² + 0x3FE
LANES4(two32, 0x41f0000000000000)	// 2³²
LANES4(twom53, 0x3ca0000000000000)	// 2⁻⁵³
LANES4(one, 0x3ff0000000000000)
LANES4(two, 0x4000000000000000)
LANES4(mtwo, 0xc000000000000000)	// −2
LANES4(half, 0x3fe0000000000000)
LANES4(mant, 0x000fffffffffffff)
LANES4(hsqrt2, 0x3fe6a09e667f3bcd)	// √2/2
LANES4(ln2hi, 0x3fe62e42fee00000)
LANES4(ln2lo, 0x3dea39ef35793c76)
LANES4(l1, 0x3fe5555555555593)
LANES4(l2, 0x3fd999999997fa04)
LANES4(l3, 0x3fd2492494229359)
LANES4(l4, 0x3fcc71c51d8e78af)
LANES4(l5, 0x3fc7466496cb03de)
LANES4(l6, 0x3fc39a09d078c69f)
LANES4(l7, 0x3fc2f112df3e5244)
LANES4(row, 32)				// one row of the lane layout, in bytes

DATA laneoff<>+0(SB)/8, $0
DATA laneoff<>+8(SB)/8, $8
DATA laneoff<>+16(SB)/8, $16
DATA laneoff<>+24(SB)/8, $24
GLOBL laneoff<>(SB), RODATA|NOPTR, $32

// NEXT sets out to Uint64 of every lane's stream and advances it. The
// state words s0–s3 are Y0–Y3; ×5 and ×9 are a shift and an add, a rotate
// two shifts and an or. Clobbers Y9.
#define NEXT(out) \
	VPSLLQ	$2, Y1, out; \
	VPADDQ	Y1, out, out; \
	VPSLLQ	$7, out, Y9; \
	VPSRLQ	$57, out, out; \
	VPOR	Y9, out, out; \
	VPSLLQ	$3, out, Y9; \
	VPADDQ	Y9, out, out; \
	VPSLLQ	$17, Y1, Y9; \
	VPXOR	Y0, Y2, Y2; \
	VPXOR	Y1, Y3, Y3; \
	VPXOR	Y2, Y1, Y1; \
	VPXOR	Y3, Y0, Y0; \
	VPXOR	Y9, Y2, Y2; \
	VPSLLQ	$45, Y3, Y9; \
	VPSRLQ	$19, Y3, Y3; \
	VPOR	Y9, Y3, Y3

// UNIFORM turns the 64 bits in x into Norm's 2·F − 1, F = Float64 =
// (x>>11)·2⁻⁵³. AVX2 has no 64-bit integer conversion, so m = x>>11 goes
// in two halves, each exact as a double through the 2⁵² exponent: m>>32
// and m & 0xFFFFFFFF. hi·2³² + lo is m exactly (m < 2⁵³), so the sum and
// the ·2⁻⁵³ and ·2 round nothing; only − 1 rounds, as in Norm. Clobbers Y9.
#define UNIFORM(x) \
	VPSRLQ	$11, x, x; \
	VPSRLQ	$32, x, Y9; \
	VPAND	lo32<>(SB), x, x; \
	VPOR	exp52<>(SB), Y9, Y9; \
	VSUBPD	exp52<>(SB), Y9, Y9; \
	VPOR	exp52<>(SB), x, x; \
	VSUBPD	exp52<>(SB), x, x; \
	VMULPD	two32<>(SB), Y9, Y9; \
	VADDPD	x, Y9, x; \
	VMULPD	twom53<>(SB), x, x; \
	VMULPD	two<>(SB), x, x; \
	VSUBPD	one<>(SB), x, x

// LOG sets Y9 = log(Y8) for positive normal Y8 — the fill's rejected
// lanes, s = 0 among them, get a finite value nobody stores — with
// log_amd64.s's operations in its order: f1 and k by
// the bits (the exponent through 2⁵² as in UNIFORM, exact), the reduction
// at f1 ≤ √2/2 as k − (0 or 1) and f1·(1 or 2), both exact, then
// f = f1 − 1, r = f/(2 + f), the two polynomials, and
// k·Ln2Hi − ((hfsq − (r·(hfsq + R) + k·Ln2Lo)) − f). Clobbers Y10–Y15.
#define LOG \
	VANDPD	mant<>(SB), Y8, Y10; \
	VORPD	half<>(SB), Y10, Y10; \
	VPSRLQ	$52, Y8, Y11; \
	VPOR	exp52<>(SB), Y11, Y11; \
	VSUBPD	exp52k<>(SB), Y11, Y11; \
	VCMPPD	$2, hsqrt2<>(SB), Y10, Y12; \
	VANDPD	one<>(SB), Y12, Y12; \
	VSUBPD	Y12, Y11, Y11; \
	VADDPD	one<>(SB), Y12, Y12; \
	VMULPD	Y12, Y10, Y10; \
	VSUBPD	one<>(SB), Y10, Y10; \
	VADDPD	two<>(SB), Y10, Y12; \
	VDIVPD	Y12, Y10, Y12; \
	VMULPD	Y12, Y12, Y13; \
	VMULPD	Y13, Y13, Y14; \
	VMULPD	l7<>(SB), Y14, Y15; \
	VADDPD	l5<>(SB), Y15, Y15; \
	VMULPD	Y14, Y15, Y15; \
	VADDPD	l3<>(SB), Y15, Y15; \
	VMULPD	Y14, Y15, Y15; \
	VADDPD	l1<>(SB), Y15, Y15; \
	VMULPD	Y15, Y13, Y13; \
	VMULPD	l6<>(SB), Y14, Y15; \
	VADDPD	l4<>(SB), Y15, Y15; \
	VMULPD	Y14, Y15, Y15; \
	VADDPD	l2<>(SB), Y15, Y15; \
	VMULPD	Y15, Y14, Y14; \
	VADDPD	Y14, Y13, Y13; \
	VMULPD	half<>(SB), Y10, Y15; \
	VMULPD	Y10, Y15, Y15; \
	VADDPD	Y15, Y13, Y13; \
	VMULPD	Y13, Y12, Y12; \
	VMULPD	ln2lo<>(SB), Y11, Y14; \
	VADDPD	Y14, Y12, Y12; \
	VSUBPD	Y12, Y15, Y15; \
	VSUBPD	Y10, Y15, Y15; \
	VMULPD	ln2hi<>(SB), Y11, Y11; \
	VSUBPD	Y15, Y11, Y9

// STORE4 writes lane l of vals to the address in lane l of addrs, lanes
// 0–3 in order. Clobbers addrs, vals, R8–R11.
#define STORE4(addrs, xaddrs, vals, xvals) \
	VMOVQ	xaddrs, R8; \
	VPEXTRQ	$1, xaddrs, R9; \
	VEXTRACTI128	$1, addrs, xaddrs; \
	VMOVQ	xaddrs, R10; \
	VPEXTRQ	$1, xaddrs, R11; \
	VMOVSD	xvals, (R8); \
	VMOVHPD	xvals, (R9); \
	VEXTRACTF128	$1, vals, xvals; \
	VMOVSD	xvals, (R10); \
	VMOVHPD	xvals, (R11)

// Frame: 0(SP) each lane's address in dst (dst + 8·l), 32(SP) the
// discard slot's address in every lane, 64(SP) the discard slot.
//
// Registers: Y0–Y3 the state words, Y4 the counts, Y5 K, Y6 u then u·f,
// Y7 v then v·f, Y8 s, Y9–Y15 scratch.
//
// func fillNormLanesAVX2(dst []float64, st *laneState)
TEXT ·fillNormLanesAVX2(SB), NOSPLIT, $96-32
	MOVQ	st+24(FP), DI
	VMOVDQU	0(DI), Y0
	VMOVDQU	32(DI), Y1
	VMOVDQU	64(DI), Y2
	VMOVDQU	96(DI), Y3
	VMOVDQU	128(DI), Y4
	MOVQ	dst_len+8(FP), AX
	SHRQ	$2, AX
	VMOVQ	AX, X5
	VPBROADCASTQ	X5, Y5
	MOVQ	dst_base+0(FP), AX
	VMOVQ	AX, X9
	VPBROADCASTQ	X9, Y9
	VPADDQ	laneoff<>(SB), Y9, Y9
	VMOVDQU	Y9, 0(SP)
	LEAQ	64(SP), AX
	VMOVQ	AX, X9
	VPBROADCASTQ	X9, Y9
	VMOVDQU	Y9, 32(SP)

loop:
	VPCMPGTQ	Y4, Y5, Y9	// live: count < K
	VMOVMSKPD	Y9, AX
	TESTL	AX, AX
	JZ	done
	NEXT(Y6)
	UNIFORM(Y6)
	NEXT(Y7)
	UNIFORM(Y7)
	VMULPD	Y6, Y6, Y8
	VMULPD	Y7, Y7, Y9
	VADDPD	Y9, Y8, Y8		// s = u·u + v·v
	LOG
	VMULPD	mtwo<>(SB), Y9, Y9
	VDIVPD	Y8, Y9, Y9
	VSQRTPD	Y9, Y9			// f = √(−2·log(s)/s)
	VMULPD	Y9, Y6, Y6		// u·f
	VMULPD	Y9, Y7, Y7		// v·f

	VPCMPGTQ	Y4, Y5, Y9	// live
	VCMPPD	$1, one<>(SB), Y8, Y10	// s < 1
	VANDPD	Y10, Y9, Y9
	VXORPD	Y10, Y10, Y10
	VCMPPD	$4, Y10, Y8, Y10	// s ≠ 0
	VANDPD	Y10, Y9, Y9		// accept
	VPCMPEQQ	Y10, Y10, Y10
	VPSUBQ	Y10, Y4, Y10		// count + 1
	VPCMPGTQ	Y10, Y5, Y10	// count + 1 < K
	VANDPD	Y9, Y10, Y10		// accept and v·f has a row
	VPSLLQ	$5, Y4, Y11
	VPADDQ	0(SP), Y11, Y11		// row count of the lane
	VPADDQ	row<>(SB), Y11, Y12	// the next row
	VMOVDQU	32(SP), Y13
	VBLENDVPD	Y9, Y11, Y13, Y11
	VBLENDVPD	Y10, Y12, Y13, Y12
	VPADDQ	Y9, Y9, Y9
	VPSUBQ	Y9, Y4, Y4		// count += 2 where accepted
	STORE4(Y11, X11, Y6, X6)
	STORE4(Y12, X12, Y7, X7)
	JMP	loop

done:
	VZEROUPPER
	RET

// log4AVX2 is LOG on its own, for the tests: x[l] = log(x[l]) for
// positive normal x[l].
//
// func log4AVX2(x *[4]float64)
TEXT ·log4AVX2(SB), NOSPLIT, $0-8
	MOVQ	x+0(FP), DI
	VMOVUPD	(DI), Y8
	LOG
	VMOVUPD	Y9, (DI)
	VZEROUPPER
	RET
