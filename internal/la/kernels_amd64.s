//go:build amd64 && !purego

#include "textflag.h"

// AVX2 bodies of the kernels.go primitives. One rule keeps them
// bit-identical to the Go bodies: a lane holds the sum of one memory
// element, exactly as the scalar loop does, and every update is VMULPD
// then VADDPD — no FMA, which would skip the product's rounding. The last
// count mod 4 elements of a run go through the scalar forms of the same two
// instructions, so no element outside the run is loaded or stored.
// VZEROUPPER precedes every RET (the Go code around runs SSE encodings).

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
