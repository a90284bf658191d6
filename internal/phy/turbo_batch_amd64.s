//go:build !purego

#include "textflag.h"

// AVX2 lockstep int16 turbo SISO, 8 lanes (see turbo_batch_asm.go), and
// the glue around it: ingest quantizer, gain sum, hard decisions.
//
// Register convention in both SISO kernels: Y0..Y7 hold the eight
// trellis-state metric vectors (8 int32 lanes each, one lane per code
// block); all arithmetic is int32, mirroring the scalar kernel's Go-int
// math exactly.
// Streams (ls/lp/la/ext) are stride-8 int16: one trellis step = 16 bytes =
// one VPMOVSXWD load. An alpha row is 8 states x 8 lanes of int16 = 128
// bytes, packed from int32 with VPACKSSDW+VPERMQ (never saturates: stored
// metrics are bounded to [-28285, +12285] by the renorm schedule).

// 8 x int32 -16000: the i16MetricMin floor applied by renormalization.
DATA batchFloor32<>+0(SB)/4, $-16000
DATA batchFloor32<>+4(SB)/4, $-16000
DATA batchFloor32<>+8(SB)/4, $-16000
DATA batchFloor32<>+12(SB)/4, $-16000
DATA batchFloor32<>+16(SB)/4, $-16000
DATA batchFloor32<>+20(SB)/4, $-16000
DATA batchFloor32<>+24(SB)/4, $-16000
DATA batchFloor32<>+28(SB)/4, $-16000
GLOBL batchFloor32<>(SB), RODATA|NOPTR, $32

// 8 x int32 +/-4096: the i16ExtSat extrinsic clamp.
DATA batchExtHi32<>+0(SB)/4, $4096
DATA batchExtHi32<>+4(SB)/4, $4096
DATA batchExtHi32<>+8(SB)/4, $4096
DATA batchExtHi32<>+12(SB)/4, $4096
DATA batchExtHi32<>+16(SB)/4, $4096
DATA batchExtHi32<>+20(SB)/4, $4096
DATA batchExtHi32<>+24(SB)/4, $4096
DATA batchExtHi32<>+28(SB)/4, $4096
GLOBL batchExtHi32<>(SB), RODATA|NOPTR, $32

DATA batchExtLo32<>+0(SB)/4, $-4096
DATA batchExtLo32<>+4(SB)/4, $-4096
DATA batchExtLo32<>+8(SB)/4, $-4096
DATA batchExtLo32<>+12(SB)/4, $-4096
DATA batchExtLo32<>+16(SB)/4, $-4096
DATA batchExtLo32<>+20(SB)/4, $-4096
DATA batchExtLo32<>+24(SB)/4, $-4096
DATA batchExtLo32<>+28(SB)/4, $-4096
GLOBL batchExtLo32<>(SB), RODATA|NOPTR, $32

// Ingest quantizer constants (float32 bit patterns, broadcast on load):
// the Q6 scale 64, the +/-2047 saturation point, the sign bit, and 0.5.
DATA ingestConsts<>+0(SB)/4, $0x42800000
DATA ingestConsts<>+4(SB)/4, $0x44ffe000
DATA ingestConsts<>+8(SB)/4, $0xc4ffe000
DATA ingestConsts<>+12(SB)/4, $0x80000000
DATA ingestConsts<>+16(SB)/4, $0x3f000000
GLOBL ingestConsts<>(SB), RODATA|NOPTR, $20

// float64 |x| mask for the gain's |LLR| sum.
DATA absMask64<>+0(SB)/8, $0x7fffffffffffffff
GLOBL absMask64<>(SB), RODATA|NOPTR, $8

// func cpuHasAVX2() bool
TEXT ·cpuHasAVX2(SB), NOSPLIT, $0-1
	MOVL	$1, AX
	XORL	CX, CX
	CPUID
	TESTL	$(1<<27), CX	// OSXSAVE
	JZ	noavx2
	TESTL	$(1<<28), CX	// AVX
	JZ	noavx2
	XORL	CX, CX
	XGETBV
	ANDL	$6, AX		// XMM and YMM state saved by the OS
	CMPL	AX, $6
	JNE	noavx2
	MOVL	$7, AX
	XORL	CX, CX
	CPUID
	TESTL	$(1<<5), BX	// AVX2
	JZ	noavx2
	MOVB	$1, ret+0(FP)
	RET
noavx2:
	MOVB	$0, ret+0(FP)
	RET

// Renormalize the Y0..Y7 bank in place: subtract the per-lane maximum,
// floor at -16000 (exactly normI16's int math). Clobbers Y12, Y13.
#define RENORM_BANK \
	VPMAXSD	Y1, Y0, Y12   \
	VPMAXSD	Y2, Y12, Y12  \
	VPMAXSD	Y3, Y12, Y12  \
	VPMAXSD	Y4, Y12, Y12  \
	VPMAXSD	Y5, Y12, Y12  \
	VPMAXSD	Y6, Y12, Y12  \
	VPMAXSD	Y7, Y12, Y12  \
	VMOVDQU	batchFloor32<>(SB), Y13 \
	VPSUBD	Y12, Y0, Y0   \
	VPMAXSD	Y13, Y0, Y0   \
	VPSUBD	Y12, Y1, Y1   \
	VPMAXSD	Y13, Y1, Y1   \
	VPSUBD	Y12, Y2, Y2   \
	VPMAXSD	Y13, Y2, Y2   \
	VPSUBD	Y12, Y3, Y3   \
	VPMAXSD	Y13, Y3, Y3   \
	VPSUBD	Y12, Y4, Y4   \
	VPMAXSD	Y13, Y4, Y4   \
	VPSUBD	Y12, Y5, Y5   \
	VPMAXSD	Y13, Y5, Y5   \
	VPSUBD	Y12, Y6, Y6   \
	VPMAXSD	Y13, Y6, Y6   \
	VPSUBD	Y12, Y7, Y7   \
	VPMAXSD	Y13, Y7, Y7

// func forwardI16Batch8(ls, lp, la, alpha *int16, k int)
TEXT ·forwardI16Batch8(SB), NOSPLIT, $0-40
	MOVQ	ls+0(FP), SI
	MOVQ	lp+8(FP), DX
	MOVQ	la+16(FP), BX
	MOVQ	alpha+24(FP), DI
	MOVQ	k+32(FP), CX

	// Bank init: state 0 at 0, the rest at the -16000 floor.
	VPXOR	Y0, Y0, Y0
	VMOVDQU	batchFloor32<>(SB), Y1
	VMOVDQA	Y1, Y2
	VMOVDQA	Y1, Y3
	VMOVDQA	Y1, Y4
	VMOVDQA	Y1, Y5
	VMOVDQA	Y1, Y6
	VMOVDQA	Y1, Y7

	XORQ	R9, R9		// t

fwdloop:
	// Store alpha row t = metrics entering step t (pack int32->int16,
	// two states per 32-byte store).
	VPACKSSDW	Y1, Y0, Y12
	VPERMQ	$0xD8, Y12, Y12
	VMOVDQU	Y12, 0(DI)
	VPACKSSDW	Y3, Y2, Y12
	VPERMQ	$0xD8, Y12, Y12
	VMOVDQU	Y12, 32(DI)
	VPACKSSDW	Y5, Y4, Y12
	VPERMQ	$0xD8, Y12, Y12
	VMOVDQU	Y12, 64(DI)
	VPACKSSDW	Y7, Y6, Y12
	VPERMQ	$0xD8, Y12, Y12
	VMOVDQU	Y12, 96(DI)

	// Branch metrics: g0 = (ls+la+lp)>>1, g1 = (ls+la-lp)>>1.
	VPMOVSXWD	(SI), Y8
	VPMOVSXWD	(BX), Y9
	VPADDD	Y9, Y8, Y8	// h = ls + la
	VPMOVSXWD	(DX), Y9	// p
	VPADDD	Y9, Y8, Y10
	VPSRAD	$1, Y10, Y10	// g0
	VPSUBD	Y9, Y8, Y11
	VPSRAD	$1, Y11, Y11	// g1

	// Butterflies (same unrolled LTE trellis as sisoI16):
	//   n0 = max(a0+g0, a1-g0)   n4 = max(a0-g0, a1+g0)
	//   n1 = max(a2-g1, a3+g1)   n5 = max(a2+g1, a3-g1)
	//   n2 = max(a4+g1, a5-g1)   n6 = max(a4-g1, a5+g1)
	//   n3 = max(a6-g0, a7+g0)   n7 = max(a6+g0, a7-g0)
	VPADDD	Y10, Y0, Y12
	VPSUBD	Y10, Y1, Y13
	VPMAXSD	Y13, Y12, Y12	// n0
	VPSUBD	Y10, Y0, Y14
	VPADDD	Y10, Y1, Y15
	VPMAXSD	Y15, Y14, Y14	// n4
	VPSUBD	Y11, Y2, Y0
	VPADDD	Y11, Y3, Y13
	VPMAXSD	Y13, Y0, Y0	// n1
	VPADDD	Y11, Y2, Y1
	VPSUBD	Y11, Y3, Y13
	VPMAXSD	Y13, Y1, Y1	// n5
	VPADDD	Y11, Y4, Y2
	VPSUBD	Y11, Y5, Y13
	VPMAXSD	Y13, Y2, Y2	// n2
	VPSUBD	Y11, Y4, Y3
	VPADDD	Y11, Y5, Y13
	VPMAXSD	Y13, Y3, Y3	// n6
	VPSUBD	Y10, Y6, Y4
	VPADDD	Y10, Y7, Y13
	VPMAXSD	Y13, Y4, Y4	// n3
	VPADDD	Y10, Y6, Y5
	VPSUBD	Y10, Y7, Y13
	VPMAXSD	Y13, Y5, Y5	// n7

	// Reorder the new bank into Y0..Y7
	// (currently n0=Y12 n1=Y0 n2=Y2 n3=Y4 n4=Y14 n5=Y1 n6=Y3 n7=Y5).
	VMOVDQA	Y5, Y7		// n7
	VMOVDQA	Y1, Y5		// n5
	VMOVDQA	Y0, Y1		// n1
	VMOVDQA	Y12, Y0		// n0
	VMOVDQA	Y3, Y6		// n6
	VMOVDQA	Y4, Y3		// n3
	VMOVDQA	Y14, Y4		// n4

	// Renormalize every 4th step (t&3 == 3).
	MOVQ	R9, AX
	ANDQ	$3, AX
	CMPQ	AX, $3
	JNE	fwdnext
	RENORM_BANK
fwdnext:
	ADDQ	$16, SI
	ADDQ	$16, DX
	ADDQ	$16, BX
	ADDQ	$128, DI
	INCQ	R9
	CMPQ	R9, CX
	JLT	fwdloop
	VZEROUPPER
	RET

// func fusedI16Batch8(ls, lp, la, ext, alpha, beta *int16, k int)
TEXT ·fusedI16Batch8(SB), NOSPLIT, $0-56
	MOVQ	ls+0(FP), SI
	MOVQ	lp+8(FP), DX
	MOVQ	la+16(FP), BX
	MOVQ	ext+24(FP), R8
	MOVQ	alpha+32(FP), DI
	MOVQ	beta+40(FP), R10
	MOVQ	k+48(FP), CX

	// Widen the renormalized beta[K] bank into Y0..Y7.
	VPMOVSXWD	0(R10), Y0
	VPMOVSXWD	16(R10), Y1
	VPMOVSXWD	32(R10), Y2
	VPMOVSXWD	48(R10), Y3
	VPMOVSXWD	64(R10), Y4
	VPMOVSXWD	80(R10), Y5
	VPMOVSXWD	96(R10), Y6
	VPMOVSXWD	112(R10), Y7

	// Point the stream cursors at step t = k-1.
	MOVQ	CX, R9
	DECQ	R9
	MOVQ	R9, AX
	SHLQ	$4, AX
	ADDQ	AX, SI
	ADDQ	AX, DX
	ADDQ	AX, BX
	ADDQ	AX, R8
	MOVQ	R9, AX
	SHLQ	$7, AX
	ADDQ	AX, DI

bwdloop:
	// p2 = lp>>1 (the systematic and a-priori halves cancel in the
	// extrinsic's d=0/d=1 difference, exactly as in sisoI16).
	VPMOVSXWD	(DX), Y8
	VPSRAD	$1, Y8, Y9	// p2

	// x0 = max over d=0 branches of alpha[t][r] +/- p2 + beta[t+1][b]:
	//   (r0,+,b0)(r1,+,b4)(r2,-,b5)(r3,-,b1)(r4,-,b2)(r5,-,b6)(r6,+,b7)(r7,+,b3)
	VPMOVSXWD	0(DI), Y12
	VPADDD	Y9, Y12, Y12
	VPADDD	Y0, Y12, Y10	// acc init
	VPMOVSXWD	16(DI), Y12
	VPADDD	Y9, Y12, Y12
	VPADDD	Y4, Y12, Y12
	VPMAXSD	Y12, Y10, Y10
	VPMOVSXWD	32(DI), Y12
	VPSUBD	Y9, Y12, Y12
	VPADDD	Y5, Y12, Y12
	VPMAXSD	Y12, Y10, Y10
	VPMOVSXWD	48(DI), Y12
	VPSUBD	Y9, Y12, Y12
	VPADDD	Y1, Y12, Y12
	VPMAXSD	Y12, Y10, Y10
	VPMOVSXWD	64(DI), Y12
	VPSUBD	Y9, Y12, Y12
	VPADDD	Y2, Y12, Y12
	VPMAXSD	Y12, Y10, Y10
	VPMOVSXWD	80(DI), Y12
	VPSUBD	Y9, Y12, Y12
	VPADDD	Y6, Y12, Y12
	VPMAXSD	Y12, Y10, Y10
	VPMOVSXWD	96(DI), Y12
	VPADDD	Y9, Y12, Y12
	VPADDD	Y7, Y12, Y12
	VPMAXSD	Y12, Y10, Y10
	VPMOVSXWD	112(DI), Y12
	VPADDD	Y9, Y12, Y12
	VPADDD	Y3, Y12, Y12
	VPMAXSD	Y12, Y10, Y10

	// x1 = max over d=1 branches:
	//   (r0,-,b4)(r1,-,b0)(r2,+,b1)(r3,+,b5)(r4,+,b6)(r5,+,b2)(r6,-,b3)(r7,-,b7)
	VPMOVSXWD	0(DI), Y12
	VPSUBD	Y9, Y12, Y12
	VPADDD	Y4, Y12, Y11	// acc init
	VPMOVSXWD	16(DI), Y12
	VPSUBD	Y9, Y12, Y12
	VPADDD	Y0, Y12, Y12
	VPMAXSD	Y12, Y11, Y11
	VPMOVSXWD	32(DI), Y12
	VPADDD	Y9, Y12, Y12
	VPADDD	Y1, Y12, Y12
	VPMAXSD	Y12, Y11, Y11
	VPMOVSXWD	48(DI), Y12
	VPADDD	Y9, Y12, Y12
	VPADDD	Y5, Y12, Y12
	VPMAXSD	Y12, Y11, Y11
	VPMOVSXWD	64(DI), Y12
	VPADDD	Y9, Y12, Y12
	VPADDD	Y6, Y12, Y12
	VPMAXSD	Y12, Y11, Y11
	VPMOVSXWD	80(DI), Y12
	VPADDD	Y9, Y12, Y12
	VPADDD	Y2, Y12, Y12
	VPMAXSD	Y12, Y11, Y11
	VPMOVSXWD	96(DI), Y12
	VPSUBD	Y9, Y12, Y12
	VPADDD	Y3, Y12, Y12
	VPMAXSD	Y12, Y11, Y11
	VPMOVSXWD	112(DI), Y12
	VPSUBD	Y9, Y12, Y12
	VPADDD	Y7, Y12, Y12
	VPMAXSD	Y12, Y11, Y11

	// ext[t] = clamp(x0 - x1, +/-4096), packed back to int16.
	VPSUBD	Y11, Y10, Y12
	VPMINSD	batchExtHi32<>(SB), Y12, Y12
	VPMAXSD	batchExtLo32<>(SB), Y12, Y12
	VPACKSSDW	Y12, Y12, Y12
	VPERMQ	$0xD8, Y12, Y12
	VMOVDQU	X12, (R8)

	// Branch metrics for the beta update.
	VPMOVSXWD	(SI), Y12
	VPMOVSXWD	(BX), Y13
	VPADDD	Y13, Y12, Y12	// h = ls + la
	VPMOVSXWD	(DX), Y13	// p
	VPADDD	Y13, Y12, Y14
	VPSRAD	$1, Y14, Y14	// g0
	VPSUBD	Y13, Y12, Y15
	VPSRAD	$1, Y15, Y15	// g1

	// beta[t] from beta[t+1] (same pairs as sisoI16):
	//   n0 = max(g0+b0, b4-g0)   n1 = max(g0+b4, b0-g0)
	//   n2 = max(g1+b5, b1-g1)   n3 = max(g1+b1, b5-g1)
	//   n4 = max(g1+b2, b6-g1)   n5 = max(g1+b6, b2-g1)
	//   n6 = max(g0+b7, b3-g0)   n7 = max(g0+b3, b7-g0)
	VPADDD	Y0, Y14, Y8
	VPSUBD	Y14, Y4, Y9
	VPMAXSD	Y9, Y8, Y8	// n0
	VPADDD	Y4, Y14, Y9
	VPSUBD	Y14, Y0, Y10
	VPMAXSD	Y10, Y9, Y9	// n1
	VPADDD	Y5, Y15, Y0
	VPSUBD	Y15, Y1, Y10
	VPMAXSD	Y10, Y0, Y0	// n2
	VPADDD	Y1, Y15, Y4
	VPSUBD	Y15, Y5, Y10
	VPMAXSD	Y10, Y4, Y4	// n3
	VPADDD	Y2, Y15, Y1
	VPSUBD	Y15, Y6, Y10
	VPMAXSD	Y10, Y1, Y1	// n4
	VPADDD	Y6, Y15, Y5
	VPSUBD	Y15, Y2, Y10
	VPMAXSD	Y10, Y5, Y5	// n5
	VPADDD	Y7, Y14, Y2
	VPSUBD	Y14, Y3, Y10
	VPMAXSD	Y10, Y2, Y2	// n6
	VPADDD	Y3, Y14, Y6
	VPSUBD	Y14, Y7, Y10
	VPMAXSD	Y10, Y6, Y6	// n7

	// Reorder into Y0..Y7
	// (currently n0=Y8 n1=Y9 n2=Y0 n3=Y4 n4=Y1 n5=Y5 n6=Y2 n7=Y6).
	VMOVDQA	Y6, Y7		// n7
	VMOVDQA	Y2, Y6		// n6
	VMOVDQA	Y0, Y2		// n2
	VMOVDQA	Y8, Y0		// n0
	VMOVDQA	Y4, Y3		// n3
	VMOVDQA	Y1, Y4		// n4
	VMOVDQA	Y9, Y1		// n1

	// Renormalize every 4th step (t&3 == 0).
	TESTQ	$3, R9
	JNE	bwdnext
	RENORM_BANK
bwdnext:
	SUBQ	$16, SI
	SUBQ	$16, DX
	SUBQ	$16, BX
	SUBQ	$16, R8
	SUBQ	$128, DI
	DECQ	R9
	JGE	bwdloop
	VZEROUPPER
	RET

// Quantize lane b's eight floats at source byte offset AX into the int32
// lanes of Y: (v*g)*64 (g*v is v*g: IEEE multiplication commutes),
// clamped to +/-2047 (the clamp operand order keeps a NaN, as Go's min/max
// do), plus 0.5 carrying the clamped sign, truncated — quantI16's float32
// operations. Clobbers BX, Y13, Y14.
#define QUANT_LANE(b, Y) \
	MOVQ	(b*8)(SI), BX \
	VBROADCASTSS	(b*4)(DX), Y14 \
	VMULPS	(BX)(AX*1), Y14, Y \
	VMULPS	Y8, Y, Y \
	VMAXPS	Y, Y10, Y \
	VMINPS	Y, Y9, Y \
	VANDPS	Y11, Y, Y13 \
	VORPS	Y12, Y13, Y13 \
	VADDPS	Y13, Y, Y \
	VCVTTPS2DQ	Y, Y

// Pack two lanes' int32 steps into one vector of int16 pairs: dword t of
// YA becomes (YA[t] low 16 bits, YB[t] low 16 bits). Keeping the low 16
// bits is Go's int16(int32) truncation, which a NaN's 0x80000000 needs.
#define PAIR_LANES(YB, YA) \
	VPSLLD	$16, YB, YB \
	VPBLENDW	$0xAA, YB, YA, YA

// func quantI16x8(dst *int16, src *[8]*float32, gains *[8]float32, k int)
TEXT ·quantI16x8(SB), NOSPLIT, $0-32
	MOVQ	dst+0(FP), DI
	MOVQ	src+8(FP), SI
	MOVQ	gains+16(FP), DX
	MOVQ	k+24(FP), CX
	VBROADCASTSS	ingestConsts<>+0(SB), Y8	// 64
	VBROADCASTSS	ingestConsts<>+4(SB), Y9	// +2047
	VBROADCASTSS	ingestConsts<>+8(SB), Y10	// -2047
	VBROADCASTSS	ingestConsts<>+12(SB), Y11	// sign bit
	VBROADCASTSS	ingestConsts<>+16(SB), Y12	// 0.5
	XORQ	AX, AX		// byte offset of step t in every source stream

quantloop:
	// One 8-step tile: lane b's steps t..t+7 as int32, paired into
	// P01=Y0, P23=Y2, P45=Y4, P67=Y6 (dword t = lanes 2i, 2i+1 at step t).
	QUANT_LANE(0, Y0)
	QUANT_LANE(1, Y1)
	PAIR_LANES(Y1, Y0)
	QUANT_LANE(2, Y2)
	QUANT_LANE(3, Y3)
	PAIR_LANES(Y3, Y2)
	QUANT_LANE(4, Y4)
	QUANT_LANE(5, Y5)
	PAIR_LANES(Y5, Y4)
	QUANT_LANE(6, Y6)
	QUANT_LANE(7, Y7)
	PAIR_LANES(Y7, Y6)

	// 8x8 int16 transpose. Each 128-bit half holds steps t..t+3 (low)
	// and t+4..t+7 (high); steps below are relative to the tile.
	VPUNPCKLDQ	Y2, Y0, Y1	// lanes 0-3, steps 0,1 | 4,5
	VPUNPCKHDQ	Y2, Y0, Y3	// lanes 0-3, steps 2,3 | 6,7
	VPUNPCKLDQ	Y6, Y4, Y5	// lanes 4-7, steps 0,1 | 4,5
	VPUNPCKHDQ	Y6, Y4, Y7	// lanes 4-7, steps 2,3 | 6,7
	VPUNPCKLQDQ	Y5, Y1, Y0	// rows 0 | 4
	VPUNPCKHQDQ	Y5, Y1, Y2	// rows 1 | 5
	VPUNPCKLQDQ	Y7, Y3, Y4	// rows 2 | 6
	VPUNPCKHQDQ	Y7, Y3, Y6	// rows 3 | 7
	VPERM2I128	$0x20, Y2, Y0, Y1	// rows 0, 1
	VPERM2I128	$0x20, Y6, Y4, Y5	// rows 2, 3
	VPERM2I128	$0x31, Y2, Y0, Y3	// rows 4, 5
	VPERM2I128	$0x31, Y6, Y4, Y7	// rows 6, 7
	VMOVDQU	Y1, 0(DI)
	VMOVDQU	Y5, 32(DI)
	VMOVDQU	Y3, 64(DI)
	VMOVDQU	Y7, 96(DI)

	ADDQ	$32, AX
	ADDQ	$128, DI
	SUBQ	$8, CX
	JGT	quantloop
	VZEROUPPER
	RET

// func absSumF32x16(acc *[16]float64, s *float32, n int)
TEXT ·absSumF32x16(SB), NOSPLIT, $0-24
	MOVQ	acc+0(FP), DI
	MOVQ	s+8(FP), SI
	MOVQ	n+16(FP), CX
	VBROADCASTSD	absMask64<>(SB), Y8
	VMOVUPD	0(DI), Y0	// partial sums 0-3
	VMOVUPD	32(DI), Y1	// 4-7
	VMOVUPD	64(DI), Y2	// 8-11
	VMOVUPD	96(DI), Y3	// 12-15

absloop:
	VCVTPS2PD	0(SI), Y4
	VANDPD	Y8, Y4, Y4
	VADDPD	Y4, Y0, Y0
	VCVTPS2PD	16(SI), Y5
	VANDPD	Y8, Y5, Y5
	VADDPD	Y5, Y1, Y1
	VCVTPS2PD	32(SI), Y6
	VANDPD	Y8, Y6, Y6
	VADDPD	Y6, Y2, Y2
	VCVTPS2PD	48(SI), Y7
	VANDPD	Y8, Y7, Y7
	VADDPD	Y7, Y3, Y3
	ADDQ	$64, SI
	SUBQ	$16, CX
	JGT	absloop

	VMOVUPD	Y0, 0(DI)
	VMOVUPD	Y1, 32(DI)
	VMOVUPD	Y2, 64(DI)
	VMOVUPD	Y3, 96(DI)
	VZEROUPPER
	RET

// Sign bits of four steps' a-posteriori sums (ls+ext+apri at byte offset
// off of the three streams), as a 32-bit mask in R: bit 8s+j is step s,
// lane j. The int16 adds cannot overflow (|sum| <= 2047+4096+4096), so
// their signs are the int32 sums' signs.
#define HARD_MASK4(off, R) \
	VMOVDQU	off(SI), Y0 \
	VPADDW	off(DX), Y0, Y0 \
	VPADDW	off(BX), Y0, Y0 \
	VMOVDQU	(off+32)(SI), Y1 \
	VPADDW	(off+32)(DX), Y1, Y1 \
	VPADDW	(off+32)(BX), Y1, Y1 \
	VPACKSSWB	Y1, Y0, Y0 \
	VPERMQ	$0xD8, Y0, Y0 \
	VPMOVMSKB	Y0, R

// func hardI16x8(ls, ext, apri *int16, outs *[8]*byte, n, k int)
TEXT ·hardI16x8(SB), NOSPLIT, $0-48
	MOVQ	ls+0(FP), SI
	MOVQ	ext+8(FP), DX
	MOVQ	apri+16(FP), BX
	MOVQ	outs+24(FP), DI
	MOVQ	n+32(FP), R8
	MOVQ	k+40(FP), CX
	MOVQ	$0x0101010101010101, R11
	XORQ	R9, R9		// t

hardloop:
	// AX bit 8s+j = decision of step t+s, lane j.
	HARD_MASK4(0, AX)
	HARD_MASK4(64, R10)
	SHLQ	$32, R10
	ORQ	R10, AX

	// Lane j's eight decisions are bits j, j+8, ..., j+56: shifted down
	// to bit 0 of each byte they are its 8 output bytes, little-endian.
	XORQ	R12, R12
hardlane:
	MOVQ	AX, R10
	ANDQ	R11, R10
	MOVQ	(DI)(R12*8), R13
	MOVQ	R10, (R13)(R9*1)
	SHRQ	$1, AX
	INCQ	R12
	CMPQ	R12, R8
	JLT	hardlane

	ADDQ	$128, SI
	ADDQ	$128, DX
	ADDQ	$128, BX
	ADDQ	$8, R9
	CMPQ	R9, CX
	JLT	hardloop
	VZEROUPPER
	RET
