//go:build amd64 && !purego

#include "textflag.h"

// AVX2 bodies of the six kernels.go primitives: four for the dense item
// update, one (rot4) for the rank-one item update, one (dot4) for the
// scoring pass. One rule keeps them bit-identical to the Go bodies: a lane
// holds a sum the scalar loop keeps separate — one memory element, or in
// dot4 one row's inner product — and every update is VMULPD then VADDPD
// (VSUBPD in rot4), no FMA, which would skip the product's rounding. In
// the item-update bodies the last count mod 4
// elements of a run go through the scalar forms of the same two
// instructions, so no element outside the run is loaded or stored; dot4
// stops at the last whole four columns and leaves the rest to its Go
// caller. dot4's PREFETCHT0 is a hint: it never faults and reads no
// element into a result. VZEROUPPER precedes every RET (the Go code around
// runs SSE encodings).

// func hasAVX2() bool
TEXT ·hasAVX2(SB), NOSPLIT, $0-1
	MOVB	$0, ret+0(FP)
	XORL	AX, AX
	CPUID
	CMPL	AX, $7
	JLT	no
	MOVL	$1, AX
	XORL	CX, CX
	CPUID
	ANDL	$0x18000000, CX		// OSXSAVE (bit 27) and AVX (bit 28)
	CMPL	CX, $0x18000000
	JNE	no
	XORL	CX, CX
	XGETBV
	ANDL	$6, AX			// the OS saves XMM and YMM state
	CMPL	AX, $6
	JNE	no
	MOVL	$7, AX
	XORL	CX, CX
	CPUID
	SHRL	$5, BX			// leaf 7 EBX bit 5: AVX2
	ANDL	$1, BX
	MOVB	BX, ret+0(FP)
no:
	RET

// CHAIN4 runs dst[j] = (((dst[j] + f0·x0[j]) + f1·x1[j]) + f2·x2[j]) + f3·x3[j]
// for j in [0, DX). In: DI = dst, R8–R11 = x0–x3, Y4–Y7 = f0–f3 broadcast
// (the scalar tail reads their low lanes as X4–X7). Clobbers SI, DX, Y8, Y9.
#define CHAIN4(vec, tail, scalar, end) \
	XORQ	SI, SI; \
	CMPQ	DX, $4; \
	JLT	tail; \
	PCALIGN	$32; \
vec: \
	VMOVUPD	(DI)(SI*8), Y8; \
	VMULPD	(R8)(SI*8), Y4, Y9; \
	VADDPD	Y9, Y8, Y8; \
	VMULPD	(R9)(SI*8), Y5, Y9; \
	VADDPD	Y9, Y8, Y8; \
	VMULPD	(R10)(SI*8), Y6, Y9; \
	VADDPD	Y9, Y8, Y8; \
	VMULPD	(R11)(SI*8), Y7, Y9; \
	VADDPD	Y9, Y8, Y8; \
	VMOVUPD	Y8, (DI)(SI*8); \
	ADDQ	$4, SI; \
	SUBQ	$4, DX; \
	CMPQ	DX, $4; \
	JGE	vec; \
tail: \
	TESTQ	DX, DX; \
	JZ	end; \
scalar: \
	VMOVSD	(DI)(SI*8), X8; \
	VMULSD	(R8)(SI*8), X4, X9; \
	VADDSD	X9, X8, X8; \
	VMULSD	(R9)(SI*8), X5, X9; \
	VADDSD	X9, X8, X8; \
	VMULSD	(R10)(SI*8), X6, X9; \
	VADDSD	X9, X8, X8; \
	VMULSD	(R11)(SI*8), X7, X9; \
	VADDSD	X9, X8, X8; \
	VMOVSD	X8, (DI)(SI*8); \
	INCQ	SI; \
	DECQ	DX; \
	JNZ	scalar; \
end:

// AXPY1 runs dst[j] += f·x[j] for j in [0, DX). In: DI = dst, R8 = x,
// Y4 = f broadcast. Clobbers SI, DX, Y8, Y9.
#define AXPY1(vec, tail, scalar, end) \
	XORQ	SI, SI; \
	CMPQ	DX, $4; \
	JLT	tail; \
	PCALIGN	$32; \
vec: \
	VMULPD	(R8)(SI*8), Y4, Y9; \
	VADDPD	(DI)(SI*8), Y9, Y8; \
	VMOVUPD	Y8, (DI)(SI*8); \
	ADDQ	$4, SI; \
	SUBQ	$4, DX; \
	CMPQ	DX, $4; \
	JGE	vec; \
tail: \
	TESTQ	DX, DX; \
	JZ	end; \
scalar: \
	VMULSD	(R8)(SI*8), X4, X9; \
	VADDSD	(DI)(SI*8), X9, X8; \
	VMOVSD	X8, (DI)(SI*8); \
	INCQ	SI; \
	DECQ	DX; \
	JNZ	scalar; \
end:

// func syrk4AVX2(alpha float64, x0, x1, x2, x3, a []float64)
TEXT ·syrk4AVX2(SB), NOSPLIT, $0-128
	VMOVSD	alpha+0(FP), X0
	MOVQ	x0_base+8(FP), R8
	MOVQ	x0_len+16(FP), CX	// n
	MOVQ	x1_base+32(FP), R9
	MOVQ	x2_base+56(FP), R10
	MOVQ	x3_base+80(FP), R11
	MOVQ	a_base+104(FP), DI	// row i of a
	LEAQ	(CX*8), R12		// row stride
	XORQ	BX, BX			// i
	JMP	check
row:
	VMULSD	(R8)(BX*8), X0, X4	// f_r = alpha·x_r[i], a scalar multiply as in Go
	VMULSD	(R9)(BX*8), X0, X5
	VMULSD	(R10)(BX*8), X0, X6
	VMULSD	(R11)(BX*8), X0, X7
	VBROADCASTSD	X4, Y4
	VBROADCASTSD	X5, Y5
	VBROADCASTSD	X6, Y6
	VBROADCASTSD	X7, Y7
	LEAQ	1(BX), DX		// columns 0..i
	CHAIN4(vec, tail, scalar, next)
	ADDQ	R12, DI
	INCQ	BX
check:
	CMPQ	BX, CX
	JLT	row
	VZEROUPPER
	RET

// func axpy4AVX2(a0, a1, a2, a3 float64, x0, x1, x2, x3, y []float64)
TEXT ·axpy4AVX2(SB), NOSPLIT, $0-152
	VBROADCASTSD	a0+0(FP), Y4
	VBROADCASTSD	a1+8(FP), Y5
	VBROADCASTSD	a2+16(FP), Y6
	VBROADCASTSD	a3+24(FP), Y7
	MOVQ	x0_base+32(FP), R8
	MOVQ	x1_base+56(FP), R9
	MOVQ	x2_base+80(FP), R10
	MOVQ	x3_base+104(FP), R11
	MOVQ	y_base+128(FP), DI
	MOVQ	y_len+136(FP), DX
	CHAIN4(vec, tail, scalar, done)
	VZEROUPPER
	RET

// func axpy1AVX2(alpha float64, x, y []float64)
TEXT ·axpy1AVX2(SB), NOSPLIT, $0-56
	VBROADCASTSD	alpha+0(FP), Y4
	MOVQ	x_base+8(FP), R8
	MOVQ	x_len+16(FP), DX
	MOVQ	y_base+32(FP), DI
	AXPY1(vec, tail, scalar, done)
	VZEROUPPER
	RET

// dot4AVX2 takes columns j..j+3 of the four rows as a 4 × 4 tile, transposes
// it in registers so that one register holds one column, and adds
// a_r[c]·x[c] to lane r for c = j..j+3 in turn: lane r is Dot's chain for
// row r. Each row's stream is prefetched 2 KiB ahead.
//
// func dot4AVX2(a []float64, k int, x []float64) (s0, s1, s2, s3 float64)
TEXT ·dot4AVX2(SB), NOSPLIT, $0-88
	MOVQ	a_base+0(FP), SI	// row 0
	MOVQ	k+24(FP), BX
	MOVQ	x_base+32(FP), DX
	LEAQ	(SI)(BX*8), R8		// row 1
	LEAQ	(R8)(BX*8), R9		// row 2
	LEAQ	(R9)(BX*8), R10		// row 3
	ANDQ	$-4, BX			// columns [0, k&^3)
	XORQ	AX, AX			// column j
	VXORPD	Y0, Y0, Y0		// lane r: row r's sum, from +0
	TESTQ	BX, BX
	JZ	done
	PCALIGN	$32
loop:
	PREFETCHT0	2048(SI)(AX*8)
	PREFETCHT0	2048(R8)(AX*8)
	PREFETCHT0	2048(R9)(AX*8)
	PREFETCHT0	2048(R10)(AX*8)
	VMOVUPD	(SI)(AX*8), Y1
	VMOVUPD	(R8)(AX*8), Y2
	VMOVUPD	(R9)(AX*8), Y3
	VMOVUPD	(R10)(AX*8), Y4
	VUNPCKLPD	Y2, Y1, Y5	// a0[j] a1[j] a0[j+2] a1[j+2]
	VUNPCKHPD	Y2, Y1, Y6	// a0[j+1] a1[j+1] a0[j+3] a1[j+3]
	VUNPCKLPD	Y4, Y3, Y7	// a2[j] a3[j] a2[j+2] a3[j+2]
	VUNPCKHPD	Y4, Y3, Y8	// a2[j+1] a3[j+1] a2[j+3] a3[j+3]
	VPERM2F128	$0x20, Y7, Y5, Y1	// column j of the four rows
	VPERM2F128	$0x20, Y8, Y6, Y2	// column j+1
	VPERM2F128	$0x31, Y7, Y5, Y3	// column j+2
	VPERM2F128	$0x31, Y8, Y6, Y4	// column j+3
	VBROADCASTSD	(DX)(AX*8), Y9
	VMULPD	Y9, Y1, Y1
	VADDPD	Y1, Y0, Y0
	VBROADCASTSD	8(DX)(AX*8), Y9
	VMULPD	Y9, Y2, Y2
	VADDPD	Y2, Y0, Y0
	VBROADCASTSD	16(DX)(AX*8), Y9
	VMULPD	Y9, Y3, Y3
	VADDPD	Y3, Y0, Y0
	VBROADCASTSD	24(DX)(AX*8), Y9
	VMULPD	Y9, Y4, Y4
	VADDPD	Y4, Y0, Y0
	ADDQ	$4, AX
	CMPQ	AX, BX
	JLT	loop
done:
	VMOVSD	X0, s0+56(FP)
	VMOVHPD	X0, s1+64(FP)
	VEXTRACTF128	$1, Y0, X0
	VMOVSD	X0, s2+72(FP)
	VMOVHPD	X0, s3+80(FP)
	VZEROUPPER
	RET

// rot4AVX2 keeps one element of the factor row per lane, four at a time,
// and runs that element's rotation chain over the nr ratings in r order:
// u += s·x, u ·= 1/c, x = c·x − s·u, each a VMULPD, VADDPD or VSUBPD of
// its own. The last len(u) mod 4 elements take the scalar forms. A short
// block is never padded with an identity rotation: −0 + +0 is +0, so even
// s = 0, c = 1 would change a bit.
//
// func rot4AVX2(u, x []float64, stride int, rot [12]float64, nr int)
TEXT ·rot4AVX2(SB), NOSPLIT, $0-160
	MOVQ	u_base+0(FP), DI
	MOVQ	u_len+8(FP), DX
	MOVQ	x_base+24(FP), R8
	MOVQ	stride+48(FP), R12
	SHLQ	$3, R12			// from x_r to x_r+1, in bytes
	LEAQ	rot+56(FP), R9		// (s, c, 1/c) of rating 0
	MOVQ	nr+152(FP), CX
	XORQ	SI, SI			// element j
	CMPQ	DX, $4
	JLT	tail
	PCALIGN	$32
vec:
	VMOVUPD	(DI)(SI*8), Y0		// u_j .. u_j+3
	MOVQ	R9, R10
	LEAQ	(R8)(SI*8), R11		// x_0[j]
	MOVQ	CX, BX
vrot:
	VBROADCASTSD	(R10), Y1	// s
	VBROADCASTSD	8(R10), Y2	// c
	VBROADCASTSD	16(R10), Y3	// 1/c
	VMOVUPD	(R11), Y4		// x_r
	VMULPD	Y4, Y1, Y5
	VADDPD	Y5, Y0, Y0		// u + s·x
	VMULPD	Y3, Y0, Y0		// · 1/c
	VMULPD	Y4, Y2, Y4		// c·x
	VMULPD	Y0, Y1, Y5		// s·u
	VSUBPD	Y5, Y4, Y4		// c·x − s·u
	VMOVUPD	Y4, (R11)
	ADDQ	$24, R10
	ADDQ	R12, R11
	DECQ	BX
	JNZ	vrot
	VMOVUPD	Y0, (DI)(SI*8)
	ADDQ	$4, SI
	SUBQ	$4, DX
	CMPQ	DX, $4
	JGE	vec
tail:
	TESTQ	DX, DX
	JZ	done
scalar:
	VMOVSD	(DI)(SI*8), X0
	MOVQ	R9, R10
	LEAQ	(R8)(SI*8), R11
	MOVQ	CX, BX
srot:
	VMOVSD	(R10), X1
	VMOVSD	8(R10), X2
	VMOVSD	16(R10), X3
	VMOVSD	(R11), X4
	VMULSD	X4, X1, X5
	VADDSD	X5, X0, X0
	VMULSD	X3, X0, X0
	VMULSD	X4, X2, X4
	VMULSD	X0, X1, X5
	VSUBSD	X5, X4, X4
	VMOVSD	X4, (R11)
	ADDQ	$24, R10
	ADDQ	R12, R11
	DECQ	BX
	JNZ	srot
	VMOVSD	X0, (DI)(SI*8)
	INCQ	SI
	DECQ	DX
	JNZ	scalar
done:
	VZEROUPPER
	RET

// func cholTrailAVX2(l []float64, n, k int)
TEXT ·cholTrailAVX2(SB), NOSPLIT, $0-40
	MOVQ	l_base+0(FP), R8
	MOVQ	n+24(FP), CX
	MOVQ	k+32(FP), BX
	LEAQ	1(BX), AX
	SUBQ	AX, CX			// rows below the pivot: n − k − 1
	JLE	done
	LEAQ	(CX)(AX*1), R12
	IMULQ	R12, BX
	ADDQ	AX, BX			// k·n + k + 1
	SHLQ	$3, R12			// row stride
	LEAQ	(R8)(BX*8), R8		// column k below the pivot, kept in row k
	LEAQ	(R8)(R12*1), DI		// row i from column k+1, i = k+1
	VPCMPEQD	X0, X0, X0
	VPSLLQ	$63, X0, X0		// sign bit
	MOVQ	$1, BX			// row length i − k
row:
	VMOVSD	-8(DI), X4
	VXORPD	X0, X4, X4		// −l_ik
	VBROADCASTSD	X4, Y4
	MOVQ	BX, DX
	AXPY1(vec, tail, scalar, next)
	ADDQ	R12, DI
	INCQ	BX
	DECQ	CX
	JNZ	row
done:
	VZEROUPPER
	RET
