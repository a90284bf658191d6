//go:build !purego

#include "textflag.h"

// AVX2 radix-2 FFT stages over split float32 planes (see fft_asm.go). Per
// iteration, eight butterflies of one block:
//   tr = wr·br − wi·bi,  ti = wr·bi + wi·br,
//   a' = a + t,          b' = a − t,
// with separate VMULPS/VSUBPS/VADDPS, the order fftStagesGo uses.

// func fftStagesAVX2(re, im, tw *float32, n int)
TEXT ·fftStagesAVX2(SB), NOSPLIT, $0-32
	MOVQ	re+0(FP), DI
	MOVQ	im+8(FP), SI
	MOVQ	tw+16(FP), R8		// the first stage's cosines
	MOVQ	n+24(FP), CX
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
