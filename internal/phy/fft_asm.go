//go:build amd64 && !purego

package phy

// AVX2 path for the FFT's stages with half ≥ 8 (fft_amd64.s): each
// iteration runs eight radix-2 butterflies of one block as YMM vectors of
// the re/im planes and the stage's twiddle table. No FMA: separate
// VMULPS/VSUBPS/VADDPS in fftStagesGo's order keep the two bit-identical
// (only the sign and payload of a NaN may differ, as x86 propagates the
// first operand's NaN and the compiler orders commutative operands freely).
//
// Build with -tags purego (or on non-amd64) to drop this path; fftAsm is
// also false at runtime when the CPU or OS lacks AVX2/YMM support.

// fftAsm reports whether the AVX2 FFT stages are usable on this CPU (the
// probe is shared with the batch decoder and the front-end).
var fftAsm = cpuHasAVX2()

// fftStagesAVX2 runs the stages with half h = 8, 16, …, n/2 (n ≥ 16) over
// the planes re[0:n], im[0:n] with the per-stage twiddle table tw laid out
// as FFT.tw.
//
//go:noescape
func fftStagesAVX2(re, im, tw *float32, n int)
