//go:build amd64 && !purego

#include "textflag.h"

// AVX-512 bodies of the three dense-update primitives: kernels_amd64.s's
// AVX2 loops eight elements a step. The lane rule is the same at this
// width: a zmm lane holds one memory element's chain, and every update is
// VMULPD then VADDPD, never FMA. The last count mod 8 elements of a run go
// through one step under the opmask K1 = (1<<r)−1 instead of a scalar
// loop: the loads zero their masked-off lanes and do not fault on them,
// and the store writes only the first r elements, so nothing outside the
// run is stored. VZEROUPPER precedes every RET.

// TAILMASK sets K1 to the low DX lanes, DX in 1..7. Clobbers AX, CX.
#define TAILMASK \
	MOVQ	DX, CX; \
	MOVL	$1, AX; \
	SHLL	CX, AX; \
	DECL	AX; \
	KMOVW	AX, K1

// CHAIN8 runs dst[j] = (((dst[j] + f0·x0[j]) + f1·x1[j]) + f2·x2[j]) + f3·x3[j]
// for j in [0, DX). In: DI = dst, R8–R11 = x0–x3, Z4–Z7 = f0–f3 broadcast.
// Clobbers AX, CX, SI, DX, K1, Z8, Z9.
#define CHAIN8(vec, tail, end) \
	XORQ	SI, SI; \
	CMPQ	DX, $8; \
	JLT	tail; \
	PCALIGN	$32; \
vec: \
	VMOVUPD	(DI)(SI*8), Z8; \
	VMULPD	(R8)(SI*8), Z4, Z9; \
	VADDPD	Z9, Z8, Z8; \
	VMULPD	(R9)(SI*8), Z5, Z9; \
	VADDPD	Z9, Z8, Z8; \
	VMULPD	(R10)(SI*8), Z6, Z9; \
	VADDPD	Z9, Z8, Z8; \
	VMULPD	(R11)(SI*8), Z7, Z9; \
	VADDPD	Z9, Z8, Z8; \
	VMOVUPD	Z8, (DI)(SI*8); \
	ADDQ	$8, SI; \
	SUBQ	$8, DX; \
	CMPQ	DX, $8; \
	JGE	vec; \
tail: \
	TESTQ	DX, DX; \
	JZ	end; \
	TAILMASK; \
	VMOVUPD.Z	(DI)(SI*8), K1, Z8; \
	VMULPD.Z	(R8)(SI*8), Z4, K1, Z9; \
	VADDPD	Z9, Z8, Z8; \
	VMULPD.Z	(R9)(SI*8), Z5, K1, Z9; \
	VADDPD	Z9, Z8, Z8; \
	VMULPD.Z	(R10)(SI*8), Z6, K1, Z9; \
	VADDPD	Z9, Z8, Z8; \
	VMULPD.Z	(R11)(SI*8), Z7, K1, Z9; \
	VADDPD	Z9, Z8, Z8; \
	VMOVUPD	Z8, K1, (DI)(SI*8); \
end:

// AXPY8 runs dst[j] += f·x[j] for j in [0, DX). In: DI = dst, R8 = x,
// Z4 = f broadcast. Clobbers AX, CX, SI, DX, K1, Z8, Z9.
#define AXPY8(vec, tail, end) \
	XORQ	SI, SI; \
	CMPQ	DX, $8; \
	JLT	tail; \
	PCALIGN	$32; \
vec: \
	VMULPD	(R8)(SI*8), Z4, Z9; \
	VADDPD	(DI)(SI*8), Z9, Z8; \
	VMOVUPD	Z8, (DI)(SI*8); \
	ADDQ	$8, SI; \
	SUBQ	$8, DX; \
	CMPQ	DX, $8; \
	JGE	vec; \
tail: \
	TESTQ	DX, DX; \
	JZ	end; \
	TAILMASK; \
	VMULPD.Z	(R8)(SI*8), Z4, K1, Z9; \
	VADDPD.Z	(DI)(SI*8), Z9, K1, Z8; \
	VMOVUPD	Z8, K1, (DI)(SI*8); \
end:

// func syrk4AVX512(alpha float64, x0, x1, x2, x3, a []float64)
TEXT ·syrk4AVX512(SB), NOSPLIT, $0-128
	VMOVSD	alpha+0(FP), X0
	MOVQ	x0_base+8(FP), R8
	MOVQ	x0_len+16(FP), R13	// n
	MOVQ	x1_base+32(FP), R9
	MOVQ	x2_base+56(FP), R10
	MOVQ	x3_base+80(FP), R11
	MOVQ	a_base+104(FP), DI	// row i of a
	LEAQ	(R13*8), R12		// row stride
	XORQ	BX, BX			// i
	JMP	check
row:
	VMULSD	(R8)(BX*8), X0, X4	// f_r = alpha·x_r[i], a scalar multiply as in Go
	VMULSD	(R9)(BX*8), X0, X5
	VMULSD	(R10)(BX*8), X0, X6
	VMULSD	(R11)(BX*8), X0, X7
	VBROADCASTSD	X4, Z4
	VBROADCASTSD	X5, Z5
	VBROADCASTSD	X6, Z6
	VBROADCASTSD	X7, Z7
	LEAQ	1(BX), DX		// columns 0..i
	CHAIN8(vec, tail, next)
	ADDQ	R12, DI
	INCQ	BX
check:
	CMPQ	BX, R13
	JLT	row
	VZEROUPPER
	RET

// func axpy4AVX512(a0, a1, a2, a3 float64, x0, x1, x2, x3, y []float64)
TEXT ·axpy4AVX512(SB), NOSPLIT, $0-152
	VBROADCASTSD	a0+0(FP), Z4
	VBROADCASTSD	a1+8(FP), Z5
	VBROADCASTSD	a2+16(FP), Z6
	VBROADCASTSD	a3+24(FP), Z7
	MOVQ	x0_base+32(FP), R8
	MOVQ	x1_base+56(FP), R9
	MOVQ	x2_base+80(FP), R10
	MOVQ	x3_base+104(FP), R11
	MOVQ	y_base+128(FP), DI
	MOVQ	y_len+136(FP), DX
	CHAIN8(vec, tail, done)
	VZEROUPPER
	RET

// func axpy1AVX512(alpha float64, x, y []float64)
TEXT ·axpy1AVX512(SB), NOSPLIT, $0-56
	VBROADCASTSD	alpha+0(FP), Z4
	MOVQ	x_base+8(FP), R8
	MOVQ	x_len+16(FP), DX
	MOVQ	y_base+32(FP), DI
	AXPY8(vec, tail, done)
	VZEROUPPER
	RET
