//go:build amd64 && !purego

#include "textflag.h"

// AVX2 bodies of the ten kernels.go primitives: three for the dense item
// update, five lane kernels for the item updates in lane groups, dot4 for
// Gemv, blockDot8 for a ranking's integer pass, and cpuFeatures, the one
// CPU check. One rule keeps the floating-point ones bit-identical to the Go
// bodies: a lane holds a value the scalar loop keeps separate — one memory
// element, in dot4 one row's inner product, in the lane kernels one item —
// and every update is VMULPD then VADDPD or VSUBPD, no FMA, which would
// skip the product's rounding. blockDot8's int32 sums are exact, so any
// order gives the Go body's integers. In the
// dense-update bodies the last count mod 4 elements of a run go through
// the scalar forms of the same two instructions, so no element outside
// the run is loaded or stored. Where the CPU has AVX-512 the dense
// primitives run kernels_avx512_amd64.s's bodies instead: the same loops
// eight elements a step, the last count mod 8 under one opmask. dot4
// stops at the last whole four columns and leaves the rest to its Go
// caller. dot4's PREFETCHT0 is a hint: it never faults and reads no
// element into a result. VZEROUPPER precedes every RET (the Go code around
// runs SSE encodings).

// The lane kernels keep one item per lane (lanes.go's layout), so every
// instruction below performs one scalar step of the Go body on four items
// at once (packLower4AVX2 only moves elements into that layout).

// HYPOT sets Y2 = hypot(Y0, Y1) lane by lane with archHypot's operations:
// t = max(|p|, |q|), h = t·√(1 + (min/t)²). The special cases are settled
// beside the chain and blended in once: +Inf if either operand is +Inf
// after |·|, else NaN if either is NaN, else +0 where t is 0 (two zeros).
// The constants are on the frame: |·| mask at 768(SP), 1 at 800, +Inf at
// 832, math.NaN()'s bits at 864. Clobbers Y3–Y10.
#define HYPOT \
	VANDPD	768(SP), Y0, Y3; \
	VANDPD	768(SP), Y1, Y4; \
	VMAXPD	Y4, Y3, Y5; \
	VMINPD	Y4, Y3, Y6; \
	VDIVPD	Y5, Y6, Y6; \
	VMULPD	Y6, Y6, Y6; \
	VADDPD	800(SP), Y6, Y6; \
	VSQRTPD	Y6, Y6; \
	VMULPD	Y6, Y5, Y2; \
	VCMPPD	$3, Y4, Y3, Y7; \
	VCMPPD	$0, 832(SP), Y3, Y8; \
	VCMPPD	$0, 832(SP), Y4, Y9; \
	VORPD	Y9, Y8, Y8; \
	VMOVUPD	864(SP), Y9; \
	VBLENDVPD	Y8, 832(SP), Y9, Y9; \
	VORPD	Y8, Y7, Y7; \
	VXORPD	Y10, Y10, Y10; \
	VCMPPD	$0, Y10, Y5, Y8; \
	VORPD	Y7, Y8, Y8; \
	VANDPD	Y7, Y9, Y9; \
	VBLENDVPD	Y8, Y9, Y2, Y2

// CHAINSTEP takes vector r at the pivot: x = x_r(q) at (xs)(CX*1), h =
// hypot(d, x), c = h/d, s = x/d, 1/c stored at s, c, ic(R14), and d = h in
// the lanes mask says carry vector r.
#define CHAINSTEP(xs, s, c, ic, mask) \
	VMOVUPD	(xs)(CX*1), Y1; \
	HYPOT; \
	VDIVPD	Y0, Y2, Y3; \
	VDIVPD	Y0, Y1, Y4; \
	VMOVUPD	800(SP), Y5; \
	VDIVPD	Y3, Y5, Y5; \
	VMOVUPD	Y4, s(R14); \
	VMOVUPD	Y3, c(R14); \
	VMOVUPD	Y5, ic(R14); \
	VBLENDVPD	mask, Y2, Y0, Y0

// CHAIN is pivot q's chain: d = u_qq read at (BX)(CX*1), advanced through
// the pass's DX vectors in order, and stored at (AX)(CX*1). Clobbers
// Y0–Y10.
#define CHAIN(done) \
	VMOVUPD	(BX)(CX*1), Y0; \
	CHAINSTEP(R8, 0, 32, 64, Y12); \
	CMPQ	DX, $1; \
	JEQ	done; \
	CHAINSTEP(R9, 96, 128, 160, Y13); \
	CMPQ	DX, $2; \
	JEQ	done; \
	CHAINSTEP(R10, 192, 224, 256, Y14); \
	CMPQ	DX, $3; \
	JEQ	done; \
	CHAINSTEP(R11, 288, 320, 352, Y15); \
done: \
	VMOVUPD	Y0, (AX)(CX*1)

// ROT applies vector r's rotation, its (s, c, 1/c) at s, c, ic(R13), to
// u = Y0 and x_r(j) at (xs)(CX*1): v = (u + s·x)·(1/c), x = c·x − s·v, and
// u = v in the lanes mask says carry vector r. Clobbers Y1–Y4.
#define ROT(xs, s, c, ic, mask) \
	VMOVUPD	(xs)(CX*1), Y1; \
	VMOVUPD	s(R13), Y2; \
	VMULPD	Y1, Y2, Y3; \
	VADDPD	Y3, Y0, Y3; \
	VMULPD	ic(R13), Y3, Y3; \
	VMULPD	c(R13), Y1, Y1; \
	VMULPD	Y3, Y2, Y4; \
	VSUBPD	Y4, Y1, Y1; \
	VMOVUPD	Y1, (xs)(CX*1); \
	VBLENDVPD	mask, Y3, Y0, Y0

// ROWELEM rotates element j of row p, u read at (SI)(CX*1) and stored at
// (DI)(CX*1), through the pass's DX vectors in order; vector 0's
// (s, c, 1/c) are in Y5, Y6, Y7.
#define ROWELEM(done) \
	VMOVUPD	(SI)(CX*1), Y0; \
	VMOVUPD	(R8)(CX*1), Y1; \
	VMULPD	Y1, Y5, Y3; \
	VADDPD	Y3, Y0, Y3; \
	VMULPD	Y7, Y3, Y3; \
	VMULPD	Y6, Y1, Y1; \
	VMULPD	Y3, Y5, Y4; \
	VSUBPD	Y4, Y1, Y1; \
	VMOVUPD	Y1, (R8)(CX*1); \
	VBLENDVPD	Y12, Y3, Y0, Y0; \
	CMPQ	DX, $1; \
	JEQ	done; \
	ROT(R9, 96, 128, 160, Y13); \
	CMPQ	DX, $2; \
	JEQ	done; \
	ROT(R10, 192, 224, 256, Y14); \
	CMPQ	DX, $3; \
	JEQ	done; \
	ROT(R11, 288, 320, 352, Y15); \
done: \
	VMOVUPD	Y0, (DI)(CX*1)

// BROADCAST stores the 64-bit constant c into all four lanes at off(SP).
#define BROADCAST(c, off) \
	MOVQ	c, AX; \
	VMOVQ	AX, X0; \
	VPBROADCASTQ	X0, Y0; \
	VMOVUPD	Y0, off(SP)

// KEEP8 puts block sums s (Y register) through BlockDot8's rule: a row is
// kept when its sum is above thr (VPCMPGTD, signed). The block's byte of
// kept rows goes into the top byte of R12 after R12 moves down a byte.
// In: Y15 = thr in every lane. Clobbers Y10, R10.
#define KEEP8(s) \
	VPCMPGTD	Y15, s, Y10; \
	VMOVMSKPS	Y10, R10; \
	SHRQ	$8, R12; \
	SHLQ	$56, R10; \
	ORQ	R10, R12

// cpuFeatures reports which vector bodies the CPU and the OS run. AVX2:
// OSXSAVE and AVX (leaf 1 ECX bits 27, 28), XCR0 saving XMM and YMM state
// (bits 1, 2), leaf 7 EBX bit 5. AVX-512 on top of that: XCR0 also saving
// opmask and ZMM state (bits 5–7, so XCR0 & 0xE6 == 0xE6), leaf 7 EBX bits
// 16 (F) and 31 (VL).
//
// func cpuFeatures() (avx2, avx512 bool)
TEXT ·cpuFeatures(SB), NOSPLIT, $0-2
	MOVB	$0, avx2+0(FP)
	MOVB	$0, avx512+1(FP)
	XORL	AX, AX
	CPUID
	CMPL	AX, $7
	JLT	done
	MOVL	$1, AX
	XORL	CX, CX
	CPUID
	ANDL	$0x18000000, CX		// OSXSAVE (bit 27) and AVX (bit 28)
	CMPL	CX, $0x18000000
	JNE	done
	XORL	CX, CX
	XGETBV
	MOVL	AX, R8			// XCR0
	ANDL	$6, AX			// the OS saves XMM and YMM state
	CMPL	AX, $6
	JNE	done
	MOVL	$7, AX
	XORL	CX, CX
	CPUID
	BTL	$5, BX			// leaf 7 EBX bit 5: AVX2
	JCC	done
	MOVB	$1, avx2+0(FP)
	ANDL	$0xE6, R8		// ... and opmask and ZMM state
	CMPL	R8, $0xE6
	JNE	done
	ANDL	$0x80010000, BX		// AVX512F (bit 16) and AVX512VL (bit 31)
	CMPL	BX, $0x80010000
	JNE	done
	MOVB	$1, avx512+1(FP)
done:
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

// blockDot8AVX2 takes four blocks at a time, one register of eight int32
// row sums per block: at column pair p, x's pair (x_2p, x_2p+1) is
// broadcast as one dword, each block's 16 bytes of the pair are widened to
// sixteen words (VPMOVSXBW), VPMADDWD forms row r's x_2p·q_r,2p +
// x_2p+1·q_r,2p+1 in dword r, and VPADDD adds it to the block's sums — the
// same integers as blockDot8Go, as no step rounds or overflows. The last
// len(t)/8 mod 4 blocks go one at a time through the same steps. Each
// block's sums are stored and go through KEEP8; the mask collects one byte
// per block in the top of R12, shifted down a byte per block and into
// place at the end.
//
// func blockDot8AVX2(v []int8, x []int16, t []int32, thr int32) uint64
TEXT ·blockDot8AVX2(SB), NOSPLIT, $0-88
	MOVQ	v_base+0(FP), SI	// block b
	MOVQ	x_base+24(FP), DX
	MOVQ	x_len+32(FP), BX
	SHRQ	$1, BX			// column pairs
	MOVQ	t_base+48(FP), DI
	MOVQ	t_len+56(FP), CX
	SHRQ	$3, CX			// blocks left
	MOVQ	BX, R8
	SHLQ	$4, R8			// block stride: 16 bytes a pair
	LEAQ	(R8)(R8*2), R11		// three block strides
	MOVL	thr+72(FP), AX
	VMOVD	AX, X15
	VPBROADCASTD	X15, Y15
	XORQ	R12, R12		// mask
four:
	CMPQ	CX, $4
	JLT	one
	VPXOR	Y0, Y0, Y0		// block b's eight sums
	VPXOR	Y1, Y1, Y1		// block b+1
	VPXOR	Y2, Y2, Y2		// block b+2
	VPXOR	Y3, Y3, Y3		// block b+3
	MOVQ	SI, R9			// pair p of block b
	XORQ	AX, AX			// pair p
	CMPQ	AX, BX
	JGE	store4
loop4:
	VPBROADCASTD	(DX)(AX*4), Y4
	VPMOVSXBW	(R9), Y5
	VPMOVSXBW	(R9)(R8*1), Y6
	VPMOVSXBW	(R9)(R8*2), Y7
	VPMOVSXBW	(R9)(R11*1), Y8
	VPMADDWD	Y4, Y5, Y5
	VPMADDWD	Y4, Y6, Y6
	VPMADDWD	Y4, Y7, Y7
	VPMADDWD	Y4, Y8, Y8
	VPADDD	Y5, Y0, Y0
	VPADDD	Y6, Y1, Y1
	VPADDD	Y7, Y2, Y2
	VPADDD	Y8, Y3, Y3
	ADDQ	$16, R9
	INCQ	AX
	CMPQ	AX, BX
	JLT	loop4
store4:
	VMOVDQU	Y0, (DI)
	VMOVDQU	Y1, 32(DI)
	VMOVDQU	Y2, 64(DI)
	VMOVDQU	Y3, 96(DI)
	KEEP8(Y0)
	KEEP8(Y1)
	KEEP8(Y2)
	KEEP8(Y3)
	ADDQ	$128, DI
	LEAQ	(SI)(R8*4), SI
	SUBQ	$4, CX
	JMP	four
one:
	TESTQ	CX, CX
	JZ	done
	VPXOR	Y0, Y0, Y0
	MOVQ	SI, R9
	XORQ	AX, AX
	CMPQ	AX, BX
	JGE	store1
loop1:
	VPBROADCASTD	(DX)(AX*4), Y4
	VPMOVSXBW	(R9), Y5
	VPMADDWD	Y4, Y5, Y5
	VPADDD	Y5, Y0, Y0
	ADDQ	$16, R9
	INCQ	AX
	CMPQ	AX, BX
	JLT	loop1
store1:
	VMOVDQU	Y0, (DI)
	KEEP8(Y0)
	ADDQ	$32, DI
	ADDQ	R8, SI
	DECQ	CX
	JMP	one
done:
	MOVQ	t_len+56(FP), CX
	NEGQ	CX
	ADDQ	$64, CX			// 64 − len(t): the bytes of blocks not there
	SHRQ	CX, R12			// a count of 64 is 0 mod 64, and R12 is then 0
	MOVQ	R12, ret+80(FP)
	VZEROUPPER
	RET

// cholUpdate4AVX2 runs one pass of up to four vectors per lane, DX =
// max(nr) of them (at least one: with none, every lane is blended out and
// the pass copies from to u). It reads each element of from's upper
// triangle once and writes it to u, so from may be u or a separate factor.
// Pivot p's chain takes vector r = 0 .. DX−1 in turn: (s, c, 1/c) from the
// hypot, then u_pp advances to h in the lanes that carry vector r
// (VBLENDVPD on the mask nr > r, Y12–Y15 for r = 0–3). Each element of row
// p's tail then takes the rotations in order, the new u kept only where
// the lane carries the vector: a lane is blended out, never padded with an
// identity rotation. x is stored in every lane; a lane's vectors past its
// count are scratch.
//
// The pivots are software-pipelined: element p+1 of row p goes first, as
// it yields x_r(p+1), all that pivot p+1's chain reads besides u_{p+1,p+1};
// then pivot p+1's chain, then the rest of row p, whose arithmetic overlaps
// the chain's latency. So two pivots' rotations are live at once, in two
// frame blocks of 384 bytes (R13 row p's, R14 the next chain's), 96 bytes
// per vector: s, c, 1/c. p·32 is kept at 896(SP).
//
// func cholUpdate4AVX2(u, from, x []float64, k int, nr [4]int)
TEXT ·cholUpdate4AVX2(SB), $904-112
	MOVQ	u_base+0(FP), DI	// row p of u, p = 0
	MOVQ	from_base+24(FP), SI	// row p of from
	MOVQ	x_base+48(FP), R8	// x_0
	MOVQ	k+72(FP), R12
	MOVQ	$1, DX			// vectors in the pass: max(1, nr...)
	MOVQ	nr_0+80(FP), AX
	CMPQ	AX, DX
	CMOVQGT	AX, DX
	MOVQ	nr_1+88(FP), AX
	CMPQ	AX, DX
	CMOVQGT	AX, DX
	MOVQ	nr_2+96(FP), AX
	CMPQ	AX, DX
	CMOVQGT	AX, DX
	MOVQ	nr_3+104(FP), AX
	CMPQ	AX, DX
	CMOVQGT	AX, DX
	SHLQ	$5, R12			// k·32: a row of u, a vector of x
	LEAQ	(R8)(R12*1), R9		// x_1
	LEAQ	(R9)(R12*1), R10	// x_2
	LEAQ	(R10)(R12*1), R11	// x_3
	LEAQ	nr+80(FP), AX
	VMOVDQU	(AX), Y11		// lane counts
	VPXOR	Y10, Y10, Y10		// r = 0
	VPCMPEQQ	Y9, Y9, Y9	// −1
	VPCMPGTQ	Y10, Y11, Y12	// nr > 0
	VPSUBQ	Y9, Y10, Y10
	VPCMPGTQ	Y10, Y11, Y13	// nr > 1
	VPSUBQ	Y9, Y10, Y10
	VPCMPGTQ	Y10, Y11, Y14	// nr > 2
	VPSUBQ	Y9, Y10, Y10
	VPCMPGTQ	Y10, Y11, Y15	// nr > 3
	BROADCAST($0x7fffffffffffffff, 768)
	BROADCAST($0x3ff0000000000000, 800)
	BROADCAST($0x7ff0000000000000, 832)
	BROADCAST($0x7ff8000000000001, 864)
	LEAQ	0(SP), R13
	LEAQ	384(SP), R14
	MOVQ	DI, AX
	MOVQ	SI, BX
	XORQ	CX, CX
	MOVQ	CX, 896(SP)
	CHAIN(chain0)			// pivot 0
	XCHGQ	R13, R14
pivot:
	MOVQ	896(SP), CX
	ADDQ	$32, CX			// j = p+1
	CMPQ	CX, R12
	JGE	done
	MOVQ	CX, 896(SP)
	VMOVUPD	(R13), Y5
	VMOVUPD	32(R13), Y6
	VMOVUPD	64(R13), Y7
	ROWELEM(first)
	LEAQ	(DI)(R12*1), AX		// row p+1
	LEAQ	(SI)(R12*1), BX
	CHAIN(chain1)			// pivot p+1, as soon as x_r(p+1) is known
	VMOVUPD	(R13), Y5
	VMOVUPD	32(R13), Y6
	VMOVUPD	64(R13), Y7
	JMP	next
elem:
	ROWELEM(rest)
next:
	ADDQ	$32, CX
	CMPQ	CX, R12
	JLT	elem
	MOVQ	AX, DI
	MOVQ	BX, SI
	XCHGQ	R13, R14
	JMP	pivot
done:
	VZEROUPPER
	RET

// solveUpperT4AVX2: y_p = y_p / u_pp, then y_i = y_i − u_pi·y_p for i > p.
//
// func solveUpperT4AVX2(u, y []float64, k int)
TEXT ·solveUpperT4AVX2(SB), NOSPLIT, $0-56
	MOVQ	u_base+0(FP), DI	// &u(p, p)
	MOVQ	y_base+24(FP), SI	// &y_p
	MOVQ	k+48(FP), R11
	MOVQ	R11, R12
	SHLQ	$5, R12			// row stride
pivot:
	VMOVUPD	(SI), Y0
	VDIVPD	(DI), Y0, Y0		// y_p
	VMOVUPD	Y0, (SI)
	DECQ	R11
	JZ	done
	LEAQ	32(DI), AX		// &u(p, i), i = p+1
	LEAQ	32(SI), BX		// &y_i
	MOVQ	R11, CX
elem:
	VMULPD	(AX), Y0, Y1
	VMOVUPD	(BX), Y2
	VSUBPD	Y1, Y2, Y2
	VMOVUPD	Y2, (BX)
	ADDQ	$32, AX
	ADDQ	$32, BX
	DECQ	CX
	JNZ	elem
	LEAQ	32(DI)(R12*1), DI
	ADDQ	$32, SI
	JMP	pivot
done:
	VZEROUPPER
	RET

// solveUpperPair4AVX2 runs the two back-substitutions in one row loop, one
// register chain each: for i from k−1 down, s = a_i − Σ_{p>i} u_ip·a_p and
// t likewise on b, subtracted in ascending p, then a_i = s/u_ii, b_i = t/u_ii.
//
// func solveUpperPair4AVX2(u, a, b []float64, k int)
TEXT ·solveUpperPair4AVX2(SB), NOSPLIT, $0-80
	MOVQ	u_base+0(FP), R9
	MOVQ	a_base+24(FP), SI
	MOVQ	b_base+48(FP), R8
	MOVQ	k+72(FP), R10		// rows left
	MOVQ	R10, R12
	SHLQ	$5, R12			// row stride
	LEAQ	-1(R10), AX		// i = k−1
	LEAQ	32(R12), R13		// diagonal stride
	MOVQ	AX, BX
	IMULQ	R13, BX
	ADDQ	BX, R9			// &u(i, i)
	SHLQ	$5, AX
	ADDQ	AX, SI			// &a_i
	ADDQ	AX, R8			// &b_i
	XORQ	R11, R11		// elements right of the diagonal
row:
	VMOVUPD	(SI), Y0		// s
	VMOVUPD	(R8), Y1		// t
	MOVQ	R11, CX
	TESTQ	CX, CX
	JZ	div
	LEAQ	32(R9), AX		// &u(i, p), p = i+1
	LEAQ	32(SI), BX		// &a_p
	LEAQ	32(R8), DX		// &b_p
elem:
	VMOVUPD	(AX), Y2
	VMULPD	(BX), Y2, Y3
	VSUBPD	Y3, Y0, Y0
	VMULPD	(DX), Y2, Y4
	VSUBPD	Y4, Y1, Y1
	ADDQ	$32, AX
	ADDQ	$32, BX
	ADDQ	$32, DX
	DECQ	CX
	JNZ	elem
div:
	VMOVUPD	(R9), Y2
	VDIVPD	Y2, Y0, Y0
	VDIVPD	Y2, Y1, Y1
	VMOVUPD	Y0, (SI)
	VMOVUPD	Y1, (R8)
	SUBQ	R13, R9
	SUBQ	$32, SI
	SUBQ	$32, R8
	INCQ	R11
	DECQ	R10
	JNZ	row
	VZEROUPPER
	RET

// packLower4AVX2 copies row i of the four matrices over columns
// [0, min(k, (i|3)+1)) four columns at a time: one load from each matrix,
// a 4 × 4 transpose in registers (as in dot4AVX2), and four stores, one
// per column, lane l holding a_l's element. Where k mod 4 ≠ 0 a row's last
// block is shorter; its columns go one at a time, the four elements
// gathered into one register. No element past a row's end is loaded.
//
// func packLower4AVX2(dst, a0, a1, a2, a3 []float64, k int)
TEXT ·packLower4AVX2(SB), NOSPLIT, $0-128
	MOVQ	dst_base+0(FP), DI
	MOVQ	a0_base+24(FP), R8
	MOVQ	a1_base+48(FP), R9
	MOVQ	a2_base+72(FP), R10
	MOVQ	a3_base+96(FP), R11
	MOVQ	k+120(FP), R12
	XORQ	BX, BX			// i
	XORQ	SI, SI			// element (i, 0): i·k
row:
	CMPQ	BX, R12
	JGE	done
	MOVQ	BX, CX
	ORQ	$3, CX
	INCQ	CX			// (i|3)+1
	CMPQ	CX, R12
	CMOVQGT	R12, CX			// c_i = min(k, (i|3)+1)
	MOVQ	SI, AX			// element (i, j), j = 0
	LEAQ	(SI)(CX*1), DX		// element (i, c_i)
block:
	LEAQ	4(AX), R13
	CMPQ	R13, DX
	JGT	tail
	VMOVUPD	(R8)(AX*8), Y0
	VMOVUPD	(R9)(AX*8), Y1
	VMOVUPD	(R10)(AX*8), Y2
	VMOVUPD	(R11)(AX*8), Y3
	VUNPCKLPD	Y1, Y0, Y4	// a0[j] a1[j] a0[j+2] a1[j+2]
	VUNPCKHPD	Y1, Y0, Y5	// a0[j+1] a1[j+1] a0[j+3] a1[j+3]
	VUNPCKLPD	Y3, Y2, Y6	// a2[j] a3[j] a2[j+2] a3[j+2]
	VUNPCKHPD	Y3, Y2, Y7	// a2[j+1] a3[j+1] a2[j+3] a3[j+3]
	VPERM2F128	$0x20, Y6, Y4, Y0	// element j of the four
	VPERM2F128	$0x20, Y7, Y5, Y1	// j+1
	VPERM2F128	$0x31, Y6, Y4, Y2	// j+2
	VPERM2F128	$0x31, Y7, Y5, Y3	// j+3
	MOVQ	AX, R14
	SHLQ	$5, R14
	VMOVUPD	Y0, (DI)(R14*1)
	VMOVUPD	Y1, 32(DI)(R14*1)
	VMOVUPD	Y2, 64(DI)(R14*1)
	VMOVUPD	Y3, 96(DI)(R14*1)
	MOVQ	R13, AX
	JMP	block
tail:
	CMPQ	AX, DX
	JGE	next
	VMOVSD	(R8)(AX*8), X0
	VMOVHPD	(R9)(AX*8), X0, X0
	VMOVSD	(R10)(AX*8), X1
	VMOVHPD	(R11)(AX*8), X1, X1
	VINSERTF128	$1, X1, Y0, Y0
	MOVQ	AX, R14
	SHLQ	$5, R14
	VMOVUPD	Y0, (DI)(R14*1)
	INCQ	AX
	JMP	tail
next:
	ADDQ	R12, SI
	INCQ	BX
	JMP	row
done:
	VZEROUPPER
	RET

// cholesky4AVX2 is cholesky4Go with one lane per item, two pivots p and
// q = p+1 a pass, so that each element of the trailing triangle is loaded
// and stored once for both. PIVOT settles a pivot d (Y0): Y1 = the lanes
// where d > 0 (false for NaN), Y3 = √d there and d elsewhere (the caller
// stores it), the failing lanes OR-ed into BX, inv = 1/√d in every lane.
// Row q comes first: v_q = l_qp·inv_p (stored at l_qp, mirrored to u_pq),
// l_qq − v_q·u_pq, and pivot q. Then each row i > q in turn: v = l_ip·inv_p
// (stored, mirrored to u_pi), w = (l_iq − v·u_pq)·inv_q (stored, mirrored
// to u_qi), and l_ij = (l_ij − v·u_pj) − w·u_qj for j = p+2 .. i, u_pj and
// u_qj read from rows p and q, where this row or an earlier one mirrored
// them. Every element so takes pivot p's step, then pivot q's, as in the
// one-pivot loop. An odd k ends on a lone pivot with nothing below it.
#define PIVOT(inv) \
	VCMPPD	$0x0e, Y14, Y0, Y1; \
	VMOVMSKPD	Y1, AX; \
	XORQ	$15, AX; \
	ORQ	AX, BX; \
	VSQRTPD	Y0, Y2; \
	VBLENDVPD	Y1, Y2, Y0, Y3; \
	VDIVPD	Y2, Y15, inv

// func cholesky4AVX2(a []float64, k int) (bad int)
TEXT ·cholesky4AVX2(SB), NOSPLIT, $0-40
	MOVQ	a_base+0(FP), DI	// &u(p, p)
	MOVQ	k+24(FP), R11		// pivots left, p onwards
	MOVQ	R11, R12
	SHLQ	$5, R12			// row stride
	XORQ	BX, BX			// failing lanes
	MOVQ	$0x3ff0000000000000, AX
	VMOVQ	AX, X15
	VPBROADCASTQ	X15, Y15	// 1
	VXORPD	Y14, Y14, Y14		// +0
pair:
	VMOVUPD	(DI), Y0		// pivot p
	PIVOT(Y4)
	VMOVUPD	Y3, (DI)
	CMPQ	R11, $1
	JEQ	done
	LEAQ	(DI)(R12*1), R9		// &l(q, p)
	VMULPD	(R9), Y4, Y9		// v_q = u_pq
	VMOVUPD	Y9, (R9)
	VMOVUPD	Y9, 32(DI)
	VMULPD	Y9, Y9, Y6
	VMOVUPD	32(R9), Y0
	VSUBPD	Y6, Y0, Y0		// pivot q
	PIVOT(Y8)
	VMOVUPD	Y3, 32(R9)
	SUBQ	$2, R11			// rows below q
	JZ	done
	MOVQ	R9, SI			// &l(i, p), i = q
	MOVQ	$64, R13		// (i − p)·32, i = p+2
	MOVQ	R11, R10
rowi:
	ADDQ	R12, SI
	VMULPD	(SI), Y4, Y5		// v
	VMOVUPD	Y5, (SI)
	VMOVUPD	Y5, (DI)(R13*1)		// u(p, i)
	VMULPD	Y9, Y5, Y6
	VMOVUPD	32(SI), Y7
	VSUBPD	Y6, Y7, Y7
	VMULPD	Y8, Y7, Y7		// w
	VMOVUPD	Y7, 32(SI)
	VMOVUPD	Y7, (R9)(R13*1)		// u(q, i)
	MOVQ	$64, CX			// (j − p)·32, j = p+2
elem:
	VMULPD	(DI)(CX*1), Y5, Y0
	VMOVUPD	(SI)(CX*1), Y1
	VSUBPD	Y0, Y1, Y1
	VMULPD	(R9)(CX*1), Y7, Y2
	VSUBPD	Y2, Y1, Y1
	VMOVUPD	Y1, (SI)(CX*1)
	ADDQ	$32, CX
	CMPQ	CX, R13
	JLE	elem
	ADDQ	$32, R13
	DECQ	R10
	JNZ	rowi
	LEAQ	64(DI)(R12*2), DI	// &u(p+2, p+2)
	JMP	pair
done:
	MOVQ	BX, bad+32(FP)
	VZEROUPPER
	RET
