//go:build !purego

#include "textflag.h"

// AVX2 state-parallel int16 turbo SISO: one code block, its eight trellis
// states in one XMM register (see turbo_i16_asm.go), and the contiguous
// ingest quantizer and hard-decision pass around it.
//
// A gamma row (16 bytes per trellis step, written by gammaI16x1) holds the
// step's branch metrics in the shapes the recursions load them in:
//   words 0-3: g0, -g1, g1, -g0   (VPBROADCASTQ + VPSIGNW = forward G)
//   words 4-5: p2, p2             (VPBROADCASTD + VPSIGNW = extrinsic +/-P)
//   words 6-7: 0
// with g0 = (ls+la+lp)>>1, g1 = (ls+la-lp)>>1, p2 = lp>>1, as in sisoI16.

// Forward butterfly sources: A = [a0,a2,a4,a6,a0,a2,a4,a6] and
// B = [a1,a3,a5,a7,a1,a3,a5,a7], so n = max(A + G, B - G) with
// G = [g0,-g1,g1,-g0,-g0,g1,-g1,g0].
DATA fwdShufA<>+0(SB)/8, $0x0d0c090805040100
DATA fwdShufA<>+8(SB)/8, $0x0d0c090805040100
GLOBL fwdShufA<>(SB), RODATA|NOPTR, $16

DATA fwdShufB<>+0(SB)/8, $0x0f0e0b0a07060302
DATA fwdShufB<>+8(SB)/8, $0x0f0e0b0a07060302
GLOBL fwdShufB<>(SB), RODATA|NOPTR, $16

// Signs turning the broadcast [g0,-g1,g1,-g0] pair into G.
DATA fwdSign<>+0(SB)/8, $0x0001000100010001
DATA fwdSign<>+8(SB)/8, $0xffffffffffffffff
GLOBL fwdSign<>(SB), RODATA|NOPTR, $16

// The backward recursion keeps beta in lane order [b0,b2,b1,b3,b6,b4,b7,b5]:
// every even lane's branch metric is then g0 and every odd lane's -g1, one
// VPBROADCASTD of gamma words 0-1. n = max(X + Gb, Y - Gb) in that order:
// X = [b0,b1,b4,b5,b7,b6,b3,b2], Y = [b4,b5,b0,b1,b3,b2,b7,b6].
DATA bwdShufX<>+0(SB)/8, $0x0f0e0b0a05040100
DATA bwdShufX<>+8(SB)/8, $0x0302070609080d0c
GLOBL bwdShufX<>(SB), RODATA|NOPTR, $16

DATA bwdShufY<>+0(SB)/8, $0x050401000f0e0b0a
DATA bwdShufY<>+8(SB)/8, $0x09080d0c03020706
GLOBL bwdShufY<>(SB), RODATA|NOPTR, $16

// Extrinsic beta terms in natural state order from the permuted bank: the
// low lane gathers each state's d=0 successor [b0,b4,b5,b1,b2,b6,b7,b3],
// the high lane its d=1 successor [b4,b0,b1,b5,b6,b2,b3,b7].
DATA extShuf<>+0(SB)/8, $0x05040f0e0b0a0100
DATA extShuf<>+8(SB)/8, $0x07060d0c09080302
DATA extShuf<>+16(SB)/8, $0x0f0e050401000b0a
DATA extShuf<>+24(SB)/8, $0x0d0c070603020908
GLOBL extShuf<>(SB), RODATA|NOPTR, $32

// Signs of the parity half-metric: +P = p2*[+,+,-,-,-,-,+,+] in the low
// lane (d=0 branches), -P in the high lane (d=1).
DATA extSign<>+0(SB)/8, $0xffffffff00010001
DATA extSign<>+8(SB)/8, $0x00010001ffffffff
DATA extSign<>+16(SB)/8, $0x00010001ffffffff
DATA extSign<>+24(SB)/8, $0xffffffff00010001
GLOBL extSign<>(SB), RODATA|NOPTR, $32

// int16 ones: VPMADDWD against them adds word pairs into int32.
DATA ones16<>+0(SB)/8, $0x0001000100010001
DATA ones16<>+8(SB)/8, $0x0001000100010001
DATA ones16<>+16(SB)/8, $0x0001000100010001
DATA ones16<>+24(SB)/8, $0x0001000100010001
GLOBL ones16<>(SB), RODATA|NOPTR, $32

// Swap the words of every dword (the last level of the horizontal max).
DATA hmaxSwap<>+0(SB)/8, $0x0504070601000302
DATA hmaxSwap<>+8(SB)/8, $0x0d0c0f0e09080b0a
GLOBL hmaxSwap<>(SB), RODATA|NOPTR, $16

// 8 x int16 -16000: the i16MetricMin floor.
DATA floor16<>+0(SB)/8, $0xc180c180c180c180
DATA floor16<>+8(SB)/8, $0xc180c180c180c180
GLOBL floor16<>(SB), RODATA|NOPTR, $16

// 4 x int32 +/-4096: the i16ExtSat extrinsic clamp.
DATA extHi32<>+0(SB)/8, $0x0000100000001000
DATA extHi32<>+8(SB)/8, $0x0000100000001000
GLOBL extHi32<>(SB), RODATA|NOPTR, $16

DATA extLo32<>+0(SB)/8, $0xfffff000fffff000
DATA extLo32<>+8(SB)/8, $0xfffff000fffff000
GLOBL extLo32<>(SB), RODATA|NOPTR, $16

// Quantizer constants (float32 bit patterns, broadcast on load): the Q6
// scale 64, the +/-2047 saturation point, the sign bit, 0.5, and the int32
// low-word mask.
DATA quantConsts<>+0(SB)/4, $0x42800000
DATA quantConsts<>+4(SB)/4, $0x44ffe000
DATA quantConsts<>+8(SB)/4, $0xc4ffe000
DATA quantConsts<>+12(SB)/4, $0x80000000
DATA quantConsts<>+16(SB)/4, $0x3f000000
DATA quantConsts<>+20(SB)/4, $0x0000ffff
GLOBL quantConsts<>(SB), RODATA|NOPTR, $24

// Renormalize the bank in R as normI16 does: subtract its maximum, then
// floor at -16000. The butterflies never lower a bank's minimum, so the
// difference stays inside int16 (turbo_i16.go); VPSUBSW saturates anyway,
// which lands a difference past -32768 on the floor just as normI16's int
// arithmetic would. Clobbers T1, T2.
#define RENORM(R, T1, T2) \
	VPSHUFD	$0x4e, R, T1 \
	VPMAXSW	T1, R, T1 \
	VPSHUFD	$0xb1, T1, T2 \
	VPMAXSW	T2, T1, T1 \
	VPSHUFB	hmaxSwap<>(SB), T1, T2 \
	VPMAXSW	T2, T1, T1 \
	VPSUBSW	T1, R, R \
	VPMAXSW	floor16<>(SB), R, R

// func gammaI16x1(ls, lp, la, gam *int16, k int)
TEXT ·gammaI16x1(SB), NOSPLIT, $0-40
	MOVQ	ls+0(FP), SI
	MOVQ	lp+8(FP), DX
	MOVQ	la+16(FP), BX
	MOVQ	gam+24(FP), DI
	MOVQ	k+32(FP), CX
	VPXOR	X15, X15, X15

gamloop:
	// Eight steps: h = ls+la, g0 = (h+lp)>>1, g1 = (h-lp)>>1, p2 = lp>>1.
	// |h+lp| <= 2047+4096+2047, so the int16 adds are exact.
	VMOVDQU	(SI), X0
	VPADDW	(BX), X0, X0
	VMOVDQU	(DX), X1
	VPADDW	X1, X0, X2
	VPSRAW	$1, X2, X2	// g0
	VPSUBW	X1, X0, X3
	VPSRAW	$1, X3, X3	// g1
	VPSRAW	$1, X1, X4	// p2
	VPSUBW	X3, X15, X5	// -g1
	VPSUBW	X2, X15, X6	// -g0
	VPUNPCKLWD	X5, X2, X7	// (g0,-g1), steps 0-3
	VPUNPCKHWD	X5, X2, X8	// steps 4-7
	VPUNPCKLWD	X6, X3, X9	// (g1,-g0), steps 0-3
	VPUNPCKHWD	X6, X3, X10	// steps 4-7
	VPUNPCKLWD	X4, X4, X11	// (p2,p2), steps 0-3
	VPUNPCKHWD	X4, X4, X12	// steps 4-7

	VPUNPCKLDQ	X9, X7, X0
	VPUNPCKHDQ	X9, X7, X1
	VPUNPCKLDQ	X15, X11, X2
	VPUNPCKHDQ	X15, X11, X3
	VPUNPCKLQDQ	X2, X0, X4
	VMOVDQU	X4, 0(DI)
	VPUNPCKHQDQ	X2, X0, X4
	VMOVDQU	X4, 16(DI)
	VPUNPCKLQDQ	X3, X1, X4
	VMOVDQU	X4, 32(DI)
	VPUNPCKHQDQ	X3, X1, X4
	VMOVDQU	X4, 48(DI)

	VPUNPCKLDQ	X10, X8, X0
	VPUNPCKHDQ	X10, X8, X1
	VPUNPCKLDQ	X15, X12, X2
	VPUNPCKHDQ	X15, X12, X3
	VPUNPCKLQDQ	X2, X0, X4
	VMOVDQU	X4, 64(DI)
	VPUNPCKHQDQ	X2, X0, X4
	VMOVDQU	X4, 80(DI)
	VPUNPCKLQDQ	X3, X1, X4
	VMOVDQU	X4, 96(DI)
	VPUNPCKHQDQ	X3, X1, X4
	VMOVDQU	X4, 112(DI)

	ADDQ	$16, SI
	ADDQ	$16, DX
	ADDQ	$16, BX
	ADDQ	$128, DI
	SUBQ	$8, CX
	JGT	gamloop
	RET

// One forward step at byte offset off of the gamma (SI) and alpha (DI)
// rows, alpha in X0: store the metrics entering the step, then
// n = max(A + G, B - G). The int16 adds are exact within the stored bounds.
#define FWD_STEP(off) \
	VMOVDQU	X0, off(DI) \
	VPBROADCASTQ	off(SI), X9 \
	VPSIGNW	X15, X9, X9 \
	VPSHUFB	X14, X0, X5 \
	VPSHUFB	X13, X0, X6 \
	VPADDW	X9, X5, X5 \
	VPSUBW	X9, X6, X6 \
	VPMAXSW	X6, X5, X0

// One backward step at byte offset off of the gamma (R9) and beta (R8)
// rows, beta[t+1] in X1 (permuted order): store it as row t for the
// extrinsic pass, then beta[t] = max(X + Gb, Y - Gb).
#define BWD_STEP(off) \
	VMOVDQU	X1, off(R8) \
	VPBROADCASTD	off(R9), X10 \
	VPSHUFB	X12, X1, X7 \
	VPSHUFB	X11, X1, X8 \
	VPADDW	X10, X7, X7 \
	VPSUBW	X10, X8, X8 \
	VPMAXSW	X8, X7, X1

// func recurseI16x1(gam, alpha, beta *int16, bk *[8]int16, k int)
//
// The forward recursion over steps 0..k-1 and the backward one over steps
// k-1..0, four steps of each per round: the two dependency chains are
// independent, so each fills the other's latency.
TEXT ·recurseI16x1(SB), NOSPLIT, $0-40
	MOVQ	gam+0(FP), SI
	MOVQ	alpha+8(FP), DI
	MOVQ	beta+16(FP), R8
	MOVQ	bk+24(FP), AX
	MOVQ	k+32(FP), CX
	VMOVDQU	fwdShufA<>(SB), X14
	VMOVDQU	fwdShufB<>(SB), X13
	VMOVDQU	fwdSign<>(SB), X15
	VMOVDQU	bwdShufX<>(SB), X12
	VMOVDQU	bwdShufY<>(SB), X11

	// Forward: state 0 at 0, the rest at the floor. Backward: beta[K].
	VMOVDQU	floor16<>(SB), X0
	VPXOR	X1, X1, X1
	VPBLENDW	$0x01, X1, X0, X0
	VMOVDQU	(AX), X1

	// Backward cursors at the last group of four steps, t = k-4.
	MOVQ	CX, AX
	SHLQ	$4, AX
	LEAQ	-64(SI)(AX*1), R9
	LEAQ	-64(R8)(AX*1), R8

recloop:
	// Forward steps 4j..4j+3 against backward steps k-1-4j..k-4-4j,
	// then each chain's renormalization (forward t&3 == 3, backward
	// t&3 == 0).
	FWD_STEP(0)
	BWD_STEP(48)
	FWD_STEP(16)
	BWD_STEP(32)
	FWD_STEP(32)
	BWD_STEP(16)
	FWD_STEP(48)
	BWD_STEP(0)
	RENORM(X0, X5, X6)
	RENORM(X1, X7, X8)
	ADDQ	$64, SI
	ADDQ	$64, DI
	SUBQ	$64, R9
	SUBQ	$64, R8
	SUBQ	$4, CX
	JGT	recloop
	RET

// The extrinsic of one step at byte offset off of the gamma (SI), alpha
// (DI) and beta (R8) rows: [E|F] are the d=0 / d=1 successor betas in
// natural order, [A+P|A-P] the alpha row with the parity half-metric
// (exact in int16: |alpha| <= 16380, |p2| <= 1023); their 16 sums exceed
// int16, so VPMADDWD against ones adds them pairwise into int32, and M
// receives the maxima of states s and s+4 — four partial x0 in the low
// lane, four partial x1 in the high.
#define EXT_STEP(off, M) \
	VBROADCASTI128	off(R8), Y5 \
	VPSHUFB	Y15, Y5, Y5 \
	VBROADCASTI128	off(DI), Y6 \
	VPBROADCASTD	(off+8)(SI), Y7 \
	VPSIGNW	Y14, Y7, Y7 \
	VPADDW	Y7, Y6, Y6 \
	VPUNPCKLWD	Y5, Y6, Y7 \
	VPUNPCKHWD	Y5, Y6, Y8 \
	VPMADDWD	Y13, Y7, Y7 \
	VPMADDWD	Y13, Y8, Y8 \
	VPMAXSD	Y8, Y7, M

// func extI16x1(gam, alpha, beta, ext *int16, k int)
TEXT ·extI16x1(SB), NOSPLIT, $0-40
	MOVQ	gam+0(FP), SI
	MOVQ	alpha+8(FP), DI
	MOVQ	beta+16(FP), R8
	MOVQ	ext+24(FP), R9
	MOVQ	k+32(FP), CX
	VMOVDQU	extShuf<>(SB), Y15
	VMOVDQU	extSign<>(SB), Y14
	VMOVDQU	ones16<>(SB), Y13

extloop:
	EXT_STEP(0, Y1)
	EXT_STEP(16, Y2)
	EXT_STEP(32, Y3)
	EXT_STEP(48, Y4)

	// Reduce the four steps' partial maxima: after two levels of
	// unpack+max, dword i of the low lane is x0 of step 4j+i and of the
	// high lane x1 of it; ext = clamp(x0 - x1).
	VPUNPCKLDQ	Y2, Y1, Y5
	VPUNPCKHDQ	Y2, Y1, Y6
	VPMAXSD	Y6, Y5, Y5
	VPUNPCKLDQ	Y4, Y3, Y6
	VPUNPCKHDQ	Y4, Y3, Y7
	VPMAXSD	Y7, Y6, Y6
	VPUNPCKLQDQ	Y6, Y5, Y7
	VPUNPCKHQDQ	Y6, Y5, Y8
	VPMAXSD	Y8, Y7, Y7
	VEXTRACTI128	$1, Y7, X8
	VPSUBD	X8, X7, X7
	VPMINSD	extHi32<>(SB), X7, X7
	VPMAXSD	extLo32<>(SB), X7, X7
	VPACKSSDW	X7, X7, X7
	VMOVQ	X7, (R9)

	ADDQ	$64, SI
	ADDQ	$64, DI
	ADDQ	$64, R8
	ADDQ	$8, R9
	SUBQ	$4, CX
	JGT	extloop
	VZEROUPPER
	RET

// func quantI16x1(dst *int16, src *float32, gain float32, n int)
TEXT ·quantI16x1(SB), NOSPLIT, $0-32
	MOVQ	dst+0(FP), DI
	MOVQ	src+8(FP), SI
	VBROADCASTSS	gain+16(FP), Y14
	MOVQ	n+24(FP), CX
	VBROADCASTSS	quantConsts<>+0(SB), Y8		// 64
	VBROADCASTSS	quantConsts<>+4(SB), Y9		// +2047
	VBROADCASTSS	quantConsts<>+8(SB), Y10	// -2047
	VBROADCASTSS	quantConsts<>+12(SB), Y11	// sign bit
	VBROADCASTSS	quantConsts<>+16(SB), Y12	// 0.5
	VBROADCASTSS	quantConsts<>+20(SB), Y13	// low-word mask

quant1loop:
	// quantI16's float32 operations on eight values (see QUANT_LANE in
	// turbo_batch_amd64.s for the operand order that keeps a NaN), then
	// the int32 -> int16 truncation: mask the low words and pack them
	// unsigned, which cannot saturate.
	VMULPS	(SI), Y14, Y0
	VMULPS	Y8, Y0, Y0
	VMAXPS	Y0, Y10, Y0
	VMINPS	Y0, Y9, Y0
	VANDPS	Y11, Y0, Y1
	VORPS	Y12, Y1, Y1
	VADDPS	Y1, Y0, Y0
	VCVTTPS2DQ	Y0, Y0
	VPAND	Y13, Y0, Y0
	VEXTRACTI128	$1, Y0, X1
	VPACKUSDW	X1, X0, X0
	VMOVDQU	X0, (DI)
	ADDQ	$32, SI
	ADDQ	$16, DI
	SUBQ	$8, CX
	JGT	quant1loop
	VZEROUPPER
	RET

// func hardI16x1(ls, ext, apri *int16, out *byte, k int)
TEXT ·hardI16x1(SB), NOSPLIT, $0-40
	MOVQ	ls+0(FP), SI
	MOVQ	ext+8(FP), DX
	MOVQ	apri+16(FP), BX
	MOVQ	out+24(FP), DI
	MOVQ	k+32(FP), CX

hard1loop:
	// Sign bits of eight a-posteriori sums; the int16 adds cannot
	// overflow (|sum| <= 2047+4096+4096).
	VMOVDQU	(SI), X0
	VPADDW	(DX), X0, X0
	VPADDW	(BX), X0, X0
	VPSRLW	$15, X0, X0
	VPACKUSWB	X0, X0, X0
	VMOVQ	X0, (DI)
	ADDQ	$16, SI
	ADDQ	$16, DX
	ADDQ	$16, BX
	ADDQ	$8, DI
	SUBQ	$8, CX
	JGT	hard1loop
	RET
