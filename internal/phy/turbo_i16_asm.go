//go:build amd64 && !purego

package phy

// AVX2 state-parallel twin of sisoI16 (turbo_i16_amd64.s): where the
// lockstep kernel puts eight code blocks side by side, this one puts one
// block's eight trellis states side by side in an XMM register, so its cost
// does not depend on how many blocks a span happens to hold. Each recursion
// step is two in-lane shuffles of the metric vector, an add and a subtract
// of the step's ±g0/±g1 pattern and a max, all in int16 — exact within the
// bounds of turbo_i16.go's header, with the renormalization's subtraction
// saturating before the floor. The extrinsic's 16 sums of alpha, ±p/2 and
// beta exceed int16 and are added in int32. A decode costs ≈ 8 ns per bit
// and iteration at K 6144 whatever the span (BenchmarkBatchVsScalarI16).

// gammaI16x1 writes the branch-metric row of each step [0, k) (k%8 == 0)
// of the contiguous streams ls, lp, la to gam (layout in
// turbo_i16_amd64.s).
//
//go:noescape
func gammaI16x1(ls, lp, la, gam *int16, k int)

// recurseI16x1 runs both recursions over k steps (k%4 == 0) of the gamma
// rows: row t of alpha receives the forward metrics entering step t, row t
// of beta the backward metrics leaving it (beta[t+1], in betaLanes order),
// starting from bk, the renormalized beta[K] in that order.
//
//go:noescape
func recurseI16x1(gam, alpha, beta *int16, bk *[turboStates]int16, k int)

// extI16x1 writes the clamped extrinsic of steps [0, k) (k%4 == 0) to ext
// from the gamma, alpha and beta rows.
//
//go:noescape
func extI16x1(gam, alpha, beta, ext *int16, k int)

// quantI16x1 is quantI16 at gain over src[0:n] (n > 0, n%8 == 0) into
// dst[0:n].
//
//go:noescape
func quantI16x1(dst *int16, src *float32, gain float32, n int)

// hardI16x1 writes the hard decisions of steps [0, k) (k > 0, k%8 == 0) of
// the contiguous streams to out[0:k].
//
//go:noescape
func hardI16x1(ls, ext, apri *int16, out *byte, k int)

// betaLanes is the backward recursion's lane order: lane i of its metric
// vector holds state betaLanes[i], which puts every g0 butterfly in an even
// lane and every g1 butterfly in an odd one.
var betaLanes = [turboStates]int{0, 2, 1, 3, 6, 4, 7, 5}

// sisoI16AVX2 is sisoI16 over the same arguments, plus gam and beta, two
// K×8 int16 scratch arrays for the steps' branch metrics and backward
// metrics; ext and alpha come out identical. Where sisoI16 fuses the
// backward recursion with the extrinsic, this runs the two recursions side
// by side — neither depends on the other, and each alone is latency-bound —
// and the extrinsic after both. The three tail steps stay the shared Go
// code.
func sisoI16AVX2(ls, lp, la, ext, alpha, gam, beta []int16, k int) {
	_, _, _, _ = ls[k-1], lp[k-1], la[k-1], ext[k-1]
	_, _, _ = alpha[k*turboStates-1], gam[k*turboStates-1], beta[k*turboStates-1]
	gammaI16x1(&ls[0], &lp[0], &la[0], &gam[0], k)
	bt := tailBetaI16(ls, lp, k)
	var bk [turboStates]int16
	for i, s := range betaLanes {
		bk[i] = int16(bt[s])
	}
	recurseI16x1(&gam[0], &alpha[0], &beta[0], &bk, k)
	extI16x1(&gam[0], &alpha[0], &beta[0], &ext[0], k)
}
