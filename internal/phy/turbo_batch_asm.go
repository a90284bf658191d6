//go:build amd64 && !purego

package phy

// AVX2 lockstep path for the batched int16 kernel, fixed at 8 lanes: each
// trellis state's metric vector is one YMM register of 8 int32 lanes
// (widened from the int16 SoA working set on load, packed back on store).
// Doing the arithmetic in 32-bit lanes makes bit-exactness against the
// scalar kernel trivial — the scalar kernel computes in Go int and only
// stores int16, so the AVX2 path performs literally the same integer
// operations; no saturating-arithmetic edge cases to reason about. The
// documented metric bounds (turbo_i16.go) guarantee every packed store is
// in int16 range, so VPACKSSDW never actually saturates.
//
// The glue around the SISO passes runs at the same width: the ingest
// quantizes 8-step tiles of all eight lanes and transposes them into the
// SoA rows (quantI16x8), the gain's |LLR| sum runs four float64 lanes at a
// time on every kernel (absSumF32x16), and the per-iteration hard decisions
// take the sign bits of 64 sums at a time (hardI16x8).
//
// Build with -tags purego (or on non-amd64) to drop this path and pin the
// pure-Go lockstep fallback; batchAsm is also false at runtime when the CPU
// or OS lacks AVX2/YMM support.

// batchAsm reports whether the AVX2 lockstep path is usable on this CPU
// (AVX2 plus OS-enabled YMM state, probed once at init).
var batchAsm = cpuHasAVX2()

// BatchAVX2 reports whether the batched kernel runs its AVX2 path at width
// 8 on this build and CPU (false means the pure-Go lockstep fallback).
func BatchAVX2() bool { return batchAsm }

// cpuHasAVX2 probes CPUID/XGETBV for AVX2 with OS-saved YMM state.
func cpuHasAVX2() bool

// forwardI16Batch8 runs the forward recursion of one SISO pass over k data
// steps for 8 lanes: ls/lp/la are the stride-8 int16 SoA streams, and row t
// of alpha (8 states × 8 lanes of int16) receives the metrics entering
// step t. The metric bank lives in registers for the whole pass.
//
//go:noescape
func forwardI16Batch8(ls, lp, la, alpha *int16, k int)

// fusedI16Batch8 runs the fused backward recursion + extrinsic computation
// for 8 lanes: beta points at the 8×8 int16 bank holding the renormalized
// beta[K] metrics (from tailBetaBatch), alpha at the forward metrics stored
// by forwardI16Batch8, and ext receives the clamped extrinsic output.
//
//go:noescape
func fusedI16Batch8(ls, lp, la, ext, alpha, beta *int16, k int)

// quantI16x8 is quantI16 over data steps [0, k) (k > 0, k%8 == 0) of eight
// lanes: lane b's stream starts at src[b] and is scaled by gains[b], and
// step t of all eight lanes lands in the 16-byte row dst[8t:8t+8].
//
//go:noescape
func quantI16x8(dst *int16, src *[8]*float32, gains *[8]float32, k int)

// absSumF32x16 is absSum over s[0:n] (n > 0, n%16 == 0).
//
//go:noescape
func absSumF32x16(acc *[gainSums]float64, s *float32, n int)

// hardI16x8 writes the hard decisions of steps [0, k) (k > 0, k%8 == 0)
// for lanes [0, n) of the stride-8 streams to outs[j][0:k].
//
//go:noescape
func hardI16x8(ls, ext, apri *int16, outs *[8]*byte, n, k int)

// sisoI16BatchAVX2 is sisoI16Batch for the fixed width-8 AVX2 path: asm
// forward and fused-backward passes around the shared Go tail recursion.
func sisoI16BatchAVX2(ls, lp, la, ext, alpha, bt, nbt []int16, k int) {
	forwardI16Batch8(&ls[0], &lp[0], &la[0], &alpha[0], k)
	beta := tailBetaBatch(ls, lp, bt, nbt, k, 8, 8)
	renormBatch(beta, 8, 8)
	fusedI16Batch8(&ls[0], &lp[0], &la[0], &ext[0], &alpha[0], &beta[0], k)
}

// ingestI16AVX2 quantizes data steps [0, k) of lanes [0, n) at gains g
// into the stride-8 streams ls1, lp1, lp2, one quantI16x8 pass per stream.
// Lanes n..7 read a live lane's stream at their gain, which the caller
// leaves 0, and so come out zero.
func ingestI16AVX2(ls1, lp1, lp2 []int16, k, n int, d0, d1, d2 [][]float32, g *[maxBatchWidth]float32) {
	dst := [3][]int16{ls1, lp1, lp2}
	for s, d := range [3][][]float32{d0, d1, d2} {
		var src [8]*float32
		for b := range src {
			src[b] = &d[b%n][0]
		}
		quantI16x8(&dst[s][0], &src, (*[8]float32)(g[:8]), k)
	}
}

// hardI16AVX2 writes the hard decisions of the first len(outs) lanes of
// the stride-8 streams, K = k steps, to outs.
func hardI16AVX2(outs [][]byte, ls1, ext1, apri []int16, k int) {
	var op [8]*byte
	for j, o := range outs {
		op[j] = &o[0]
	}
	hardI16x8(&ls1[0], &ext1[0], &apri[0], &op, len(outs), k)
}
