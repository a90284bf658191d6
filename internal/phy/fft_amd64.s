//go:build !purego

#include "textflag.h"

// The FFT's load (see fft_asm.go): four load groups per iteration, each
// the 8-point DFT of eight inputs n/8 apart, in float64 with separate
// VADDPD/VSUBPD/VMULPD in FFT.load's order, rounded once by VCVTPD2PS.
//
// Register conventions of fftLoadAVX2: SI = &x[r], the eight streams at
// SI + m·E (E = n/8 complex128s in bytes: R8 = E, R9 = 3E, R10 = 5E,
// R11 = 7E, DX = 0), BX = &base[r], CX = &base[n/8], DI = re plane,
// R12 = im plane, Y14 = √2/2 broadcast, Y15 the raw-load temp. A stream's
// four complex128s x[r..r+3] load as [re, re, re, re] and [im, im, im, im]
// in group order r, r+2, r+1, r+3; the transpose at the end undoes it.

DATA fftSqrtHalf<>+0(SB)/8, $0x3fe6a09e667f3bcd
GLOBL fftSqrtHalf<>(SB), RODATA|NOPTR, $8

// LDX loads stream IDX at r..r+3 as planes: RE = real parts, IM = imaginary
// parts when (UL, UH) = (VUNPCKLPD, VUNPCKHPD), swapped when reversed.
#define LDX(UL, UH, IDX, RE, IM) \
	VMOVUPD	(SI)(IDX), Y15		\
	UL	32(SI)(IDX), Y15, RE	\
	UH	32(SI)(IDX), Y15, IM

// DFT4 is dft4(p0, p1, p2, p3) of streams I0..I3: outputs o0 = Y6:Y7,
// o1 = Y8:Y9, o2 = Y4:Y5, o3 = Y0:Y1 (re:im). Temps Y2, Y3.
#define DFT4(UL, UH, I0, I1, I2, I3) \
	LDX(UL, UH, I0, Y0, Y1)		\
	LDX(UL, UH, I1, Y2, Y3)		\
	VADDPD	Y2, Y0, Y4		\ // q0 = p0 + p1
	VADDPD	Y3, Y1, Y5		\
	VSUBPD	Y2, Y0, Y0		\ // q1 = p0 − p1
	VSUBPD	Y3, Y1, Y1		\
	LDX(UL, UH, I2, Y2, Y3)		\
	LDX(UL, UH, I3, Y6, Y7)		\
	VADDPD	Y6, Y2, Y8		\ // q2 = p2 + p3
	VADDPD	Y7, Y3, Y9		\
	VSUBPD	Y6, Y2, Y2		\ // q3 = p2 − p3
	VSUBPD	Y7, Y3, Y3		\
	VADDPD	Y8, Y4, Y6		\ // o0 = q0 + q2
	VADDPD	Y9, Y5, Y7		\
	VSUBPD	Y8, Y4, Y4		\ // o2 = q0 − q2
	VSUBPD	Y9, Y5, Y5		\
	VADDPD	Y3, Y0, Y8		\ // o1 = q1 − i·q3
	VSUBPD	Y2, Y1, Y9		\
	VSUBPD	Y3, Y0, Y0		\ // o3 = q1 + i·q3
	VADDPD	Y2, Y1, Y1

// HALVES rounds the output pair j, j+4 of four groups (LO, HI, float64) into
// LO's YMM as [j | j+4] float32s.
#define HALVES(LO, HI, XLO, XHI) \
	VCVTPD2PSY	LO, XLO		\
	VCVTPD2PSY	HI, XHI		\
	VINSERTF128	$1, XHI, LO, LO

// ROW stores group r+g's eight outputs, re row RR and im row RI, at
// 8·base[r+g] of the planes; off = 4g is base[r+g]'s offset from BX.
#define ROW(off, RR, RI) \
	MOVLQSX	off(BX), AX		\
	SHLQ	$5, AX			\
	VMOVUPS	RR, (DI)(AX*1)		\
	VMOVUPS	RI, (R12)(AX*1)

// LOADGROUPS runs four load groups: a = dft4(x0, x4, x2, x6), spilled to
// the frame, and b = dft4(x1, x5, x3, x7); stage 3 with twiddles 1,
// (1−i)/√2, −i, (−1−i)/√2; the 4×8 transpose and the row stores.
#define LOADGROUPS(UL, UH) \
	DFT4(UL, UH, DX*1, R8*4, R8*2, R9*2)	\
	VMOVUPD	Y6, 0(SP)		\ // a0
	VMOVUPD	Y7, 32(SP)		\
	VMOVUPD	Y8, 64(SP)		\ // a1
	VMOVUPD	Y9, 96(SP)		\
	VMOVUPD	Y4, 128(SP)		\ // a2
	VMOVUPD	Y5, 160(SP)		\
	VMOVUPD	Y0, 192(SP)		\ // a3
	VMOVUPD	Y1, 224(SP)		\
	DFT4(UL, UH, R8*1, R10*1, R9*1, R11*1)	\
	VADDPD	Y9, Y8, Y2		\ // t1 = ((b1r+b1i)·c, (b1i−b1r)·c)
	VSUBPD	Y8, Y9, Y3		\
	VMULPD	Y14, Y2, Y2		\
	VMULPD	Y14, Y3, Y3		\
	VSUBPD	Y0, Y1, Y8		\ // t3 = ((b3i−b3r)·c, −(b3r+b3i)·c);
	VADDPD	Y1, Y0, Y9		\ // Y9 holds −t3i
	VMULPD	Y14, Y8, Y8		\
	VMULPD	Y14, Y9, Y9		\
	VMOVUPD	0(SP), Y10		\ // o0, o4 = a0 ± b0
	VMOVUPD	32(SP), Y11		\
	VSUBPD	Y6, Y10, Y12		\
	VADDPD	Y6, Y10, Y10		\
	VSUBPD	Y7, Y11, Y13		\
	VADDPD	Y7, Y11, Y11		\
	HALVES(Y10, Y12, X10, X12)	\
	HALVES(Y11, Y13, X11, X13)	\
	VMOVUPD	64(SP), Y12		\ // o1, o5 = a1 ± t1
	VMOVUPD	96(SP), Y13		\
	VSUBPD	Y2, Y12, Y6		\
	VADDPD	Y2, Y12, Y12		\
	VSUBPD	Y3, Y13, Y7		\
	VADDPD	Y3, Y13, Y13		\
	HALVES(Y12, Y6, X12, X6)	\
	HALVES(Y13, Y7, X13, X7)	\
	VMOVUPD	128(SP), Y2		\ // o2, o6 = a2 ± t2, t2 = (b2i, −b2r)
	VMOVUPD	160(SP), Y3		\
	VSUBPD	Y5, Y2, Y6		\
	VADDPD	Y5, Y2, Y2		\
	VADDPD	Y4, Y3, Y7		\
	VSUBPD	Y4, Y3, Y3		\
	HALVES(Y2, Y6, X2, X6)		\
	HALVES(Y3, Y7, X3, X7)		\
	VMOVUPD	192(SP), Y4		\ // o3, o7 = a3 ± t3
	VMOVUPD	224(SP), Y5		\
	VSUBPD	Y8, Y4, Y6		\
	VADDPD	Y8, Y4, Y4		\
	VADDPD	Y9, Y5, Y7		\
	VSUBPD	Y9, Y5, Y5		\
	HALVES(Y4, Y6, X4, X6)		\
	HALVES(Y5, Y7, X5, X7)		\
	VUNPCKLPS	Y12, Y10, Y0	\ // re rows: Y10, Y12, Y2, Y4 hold
	VUNPCKHPS	Y12, Y10, Y1	\ // [o_j | o_j+4] for j = 0..3
	VUNPCKLPS	Y4, Y2, Y6	\
	VUNPCKHPS	Y4, Y2, Y7	\
	VUNPCKLPD	Y6, Y0, Y8	\ // group r
	VUNPCKHPD	Y6, Y0, Y9	\ // group r+2
	VUNPCKLPD	Y7, Y1, Y6	\ // group r+1
	VUNPCKHPD	Y7, Y1, Y7	\ // group r+3
	VUNPCKLPS	Y13, Y11, Y10	\ // im rows: Y11, Y13, Y3, Y5
	VUNPCKHPS	Y13, Y11, Y12	\
	VUNPCKLPS	Y5, Y3, Y2	\
	VUNPCKHPS	Y5, Y3, Y4	\
	VUNPCKLPD	Y2, Y10, Y11	\
	VUNPCKHPD	Y2, Y10, Y13	\
	VUNPCKLPD	Y4, Y12, Y3	\
	VUNPCKHPD	Y4, Y12, Y5	\
	ROW(0, Y8, Y11)			\
	ROW(4, Y6, Y3)			\
	ROW(8, Y9, Y13)			\
	ROW(12, Y7, Y5)			\
	ADDQ	$64, SI			\
	ADDQ	$16, BX

// func fftLoadAVX2(re, im *float32, x *complex128, base *int32, n int, swap bool)
TEXT ·fftLoadAVX2(SB), NOSPLIT, $256-41
	MOVQ	re+0(FP), DI
	MOVQ	im+8(FP), R12
	MOVQ	x+16(FP), SI
	MOVQ	base+24(FP), BX
	MOVQ	n+32(FP), R8
	MOVQ	R8, CX
	SHRQ	$1, CX			// n/8 int32s, in bytes
	ADDQ	BX, CX
	SHLQ	$1, R8			// E = n/8 complex128s, in bytes
	LEAQ	(R8)(R8*2), R9
	LEAQ	(R8)(R8*4), R10
	LEAQ	(R9)(R8*4), R11
	XORQ	DX, DX
	VBROADCASTSD	fftSqrtHalf<>(SB), Y14
	CMPB	swap+40(FP), $0
	JNE	swapped

plain:
	LOADGROUPS(VUNPCKLPD, VUNPCKHPD)
	CMPQ	BX, CX
	JLT	plain
	VZEROUPPER
	RET

swapped:
	LOADGROUPS(VUNPCKHPD, VUNPCKLPD)
	CMPQ	BX, CX
	JLT	swapped
	VZEROUPPER
	RET

// AVX2 radix-2 FFT stages over split float32 planes (see fft_asm.go). Per
// iteration, eight butterflies of one block:
//   tr = wr·br − wi·bi,  ti = wr·bi + wi·br,
//   a' = a + t,          b' = a − t,
// with separate VMULPS/VSUBPS/VADDPS, the order fftStagesGo uses, and one
// prefetch of the bins the result goes to: R14 walks them by R15 bytes.

// func fftStagesAVX2(re, im, tw *float32, n int, pf *complex128, pfStride int)
TEXT ·fftStagesAVX2(SB), NOSPLIT, $0-48
	MOVQ	re+0(FP), DI
	MOVQ	im+8(FP), SI
	MOVQ	tw+16(FP), R8		// the first stage's cosines
	MOVQ	n+24(FP), CX
	MOVQ	pf+32(FP), R14
	MOVQ	pfStride+40(FP), R15
	SHLQ	$2, CX			// n, in bytes
	MOVQ	$32, BX			// h = 8, in bytes

stage:
	CMPQ	BX, CX
	JGE	done
	LEAQ	(R8)(BX*1), R9		// sines: h floats after the cosines
	XORQ	R10, R10		// block start s, bytes

block:
	LEAQ	(DI)(R10*1), R11	// &re[s]
	LEAQ	(SI)(R10*1), R12	// &im[s]
	LEAQ	(R11)(BX*1), R13	// &re[s+h]
	LEAQ	(R12)(BX*1), DX		// &im[s+h]
	XORQ	AX, AX			// k, bytes

bfly:
	PREFETCHT0	(R14)
	ADDQ	R15, R14
	VMOVUPS	(R13)(AX*1), Y2		// br
	VMOVUPS	(DX)(AX*1), Y3		// bi
	VMOVUPS	(R8)(AX*1), Y0		// wr
	VMOVUPS	(R9)(AX*1), Y1		// wi
	VMULPS	Y2, Y0, Y4		// wr·br
	VMULPS	Y3, Y1, Y5		// wi·bi
	VSUBPS	Y5, Y4, Y4		// tr
	VMULPS	Y3, Y0, Y5		// wr·bi
	VMULPS	Y2, Y1, Y6		// wi·br
	VADDPS	Y6, Y5, Y5		// ti
	VMOVUPS	(R11)(AX*1), Y2		// ar
	VMOVUPS	(R12)(AX*1), Y3		// ai
	VADDPS	Y4, Y2, Y0		// ar + tr
	VSUBPS	Y4, Y2, Y2		// ar − tr
	VADDPS	Y5, Y3, Y1		// ai + ti
	VSUBPS	Y5, Y3, Y3		// ai − ti
	VMOVUPS	Y0, (R11)(AX*1)
	VMOVUPS	Y1, (R12)(AX*1)
	VMOVUPS	Y2, (R13)(AX*1)
	VMOVUPS	Y3, (DX)(AX*1)
	ADDQ	$32, AX
	CMPQ	AX, BX
	JLT	bfly

	LEAQ	(R10)(BX*2), R10	// s += 2h
	CMPQ	R10, CX
	JLT	block

	LEAQ	(R8)(BX*2), R8		// the next stage's table: 2h floats on
	SHLQ	$1, BX
	JMP	stage

done:
	VZEROUPPER
	RET

// func fftWidenAVX2(dst *complex128, a, b *float32, n int, s float64)
//
// dst[k] = complex(float64(a[k])·s, float64(b[k])·s) for k < n, n a
// multiple of 4. DI = &dst[k], SI = &a[k], DX = &b[k], CX = &a[n],
// Y15 = s broadcast.
TEXT ·fftWidenAVX2(SB), NOSPLIT, $0-40
	MOVQ	dst+0(FP), DI
	MOVQ	a+8(FP), SI
	MOVQ	b+16(FP), DX
	MOVQ	n+24(FP), CX
	LEAQ	(SI)(CX*4), CX
	VBROADCASTSD	s+32(FP), Y15

widen:
	VCVTPS2PD	(SI), Y0	// a[k..k+3]
	VCVTPS2PD	(DX), Y1	// b[k..k+3]
	VMULPD	Y15, Y0, Y0
	VMULPD	Y15, Y1, Y1
	VUNPCKLPD	Y1, Y0, Y2	// [a0 b0 a2 b2]
	VUNPCKHPD	Y1, Y0, Y3	// [a1 b1 a3 b3]
	VPERM2F128	$0x20, Y3, Y2, Y4
	VPERM2F128	$0x31, Y3, Y2, Y5
	VMOVUPD	Y4, (DI)
	VMOVUPD	Y5, 32(DI)
	ADDQ	$16, SI
	ADDQ	$16, DX
	ADDQ	$64, DI
	CMPQ	SI, CX
	JLT	widen
	VZEROUPPER
	RET
