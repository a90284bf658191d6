//go:build !amd64 || purego

package phy

// batchAsm is false without the amd64 AVX2 path; the compiler removes the
// AVX2 branches entirely, leaving the pure-Go lockstep kernel and ingest.
const batchAsm = false

// BatchAVX2 reports whether the batched kernel runs its AVX2 path at width
// 8 on this build and CPU (false means the pure-Go lockstep fallback).
func BatchAVX2() bool { return batchAsm }

// The AVX2 entry points are unreachable in this build (batchAsm is a false
// constant); the stubs keep the call sites compiling.

func sisoI16BatchAVX2(ls, lp, la, ext, alpha, bt, nbt []int16, k int) {
	panic("phy: AVX2 batch path unavailable in this build")
}

func ingestI16AVX2(ls1, lp1, lp2 []int16, k, n int, d0, d1, d2 [][]float32, g *[maxBatchWidth]float32) {
	panic("phy: AVX2 batch path unavailable in this build")
}

func hardI16AVX2(outs [][]byte, ls1, ext1, apri []int16, k int) {
	panic("phy: AVX2 batch path unavailable in this build")
}

func absSumF32x16(acc *[gainSums]float64, s *float32, n int) {
	panic("phy: AVX2 batch path unavailable in this build")
}
