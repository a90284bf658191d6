//go:build !amd64 || purego

package phy

// fftAsm is false without the amd64 AVX2 path; the compiler removes the
// vector branch, leaving the pure-Go stages (fftStagesGo).
const fftAsm = false

// fftStagesAVX2 is unreachable in this build (fftAsm is a false constant);
// it keeps FFT.transform compiling.
func fftStagesAVX2(re, im, tw *float32, n int) {
	panic("phy: AVX2 FFT path unavailable in this build")
}
