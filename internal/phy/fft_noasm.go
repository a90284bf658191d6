//go:build !amd64 || purego

package phy

// fftAsm is false without the amd64 AVX2 path; the compiler removes the
// vector branches, leaving the pure-Go twins (FFT.load, fftStagesGo,
// widenGo).
const fftAsm = false

// The AVX2 kernels are unreachable in this build (fftAsm is a false
// constant); these keep their callers compiling.

func fftLoadAVX2(re, im *float32, x *complex128, base *int32, n int, swap bool) {
	panic("phy: AVX2 FFT path unavailable in this build")
}

func fftStagesAVX2(re, im, tw *float32, n int, pf *complex128, pfStride int) {
	panic("phy: AVX2 FFT path unavailable in this build")
}

func fftWidenAVX2(dst *complex128, a, b *float32, n int, s float64) {
	panic("phy: AVX2 FFT path unavailable in this build")
}
