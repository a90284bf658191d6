//go:build amd64 && !purego

package phy

// AVX2 paths for the FFT (fft_amd64.s): the load (bit reversal and the
// stages with half 1, 2 and 4, in float64, rounded once), every later
// stage as eight radix-2 butterflies of one block per iteration over YMM
// vectors of the re/im planes and the stage's twiddle table, and the
// widening of the planes into complex128 bins. No FMA: separate
// VMULPD/VADDPD/VSUBPD and VMULPS/VSUBPS/VADDPS in the order of the pure-Go
// twins (FFT.load, fftStagesGo, widenGo) keep the two bit-identical (only
// the sign and payload of a NaN may differ, as x86 propagates the first
// operand's NaN and the compiler orders commutative operands freely).
//
// Build with -tags purego (or on non-amd64) to drop these paths; fftAsm is
// also false at runtime when the CPU or OS lacks AVX2/YMM support.

// fftAsm reports whether the AVX2 FFT paths are usable on this CPU (the
// probe is shared with the batch decoder and the front-end).
var fftAsm = cpuHasAVX2()

// fftLoadAVX2 is FFT.load over the whole of x (n ≥ 32), four load groups
// per iteration, reading x with re and im swapped when swap is set.
//
//go:noescape
func fftLoadAVX2(re, im *float32, x *complex128, base *int32, n int, swap bool)

// fftStagesAVX2 runs the stages with half h = 8, 16, …, n/2 (n ≥ 16) over
// the planes re[0:n], im[0:n] with the per-stage twiddle table tw laid out
// as FFT.tw. Each of its n/16·(log₂n − 3) iterations prefetches the cache
// line at pf and advances pf by pfStride bytes; the prefetches are hints
// and change no result.
//
//go:noescape
func fftStagesAVX2(re, im, tw *float32, n int, pf *complex128, pfStride int)

// fftWidenAVX2 is widenGo over the first n entries (n a positive multiple
// of 4).
//
//go:noescape
func fftWidenAVX2(dst *complex128, a, b *float32, n int, s float64)
