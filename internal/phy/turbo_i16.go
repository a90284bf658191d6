package phy

import "math"

// Quantized fixed-point max-log-MAP SISO: the turbo kernel of TurboDecoder
// and, eight code blocks in lockstep, of BatchDecoderI16. On AVX2 hosts
// TurboDecoder runs its state-parallel twin, sisoI16AVX2
// (turbo_i16_asm.go), which holds one block's eight state metrics in one
// vector and produces the same extrinsics and forward rows; sisoI16 stays
// the pure-Go build's kernel and the oracle of both vector kernels.
//
// Arithmetic model: each code block's LLRs are scaled by a per-block
// power-of-two gain (below), quantized to Q6 fixed point (64 units per LLR
// unit) and saturated at ingest; extrinsic information is clamped to ±64
// LLR; path metrics live in int16 with the trellis butterflies fully
// unrolled over the fixed LTE 8-state RSC structure (no table lookups, no
// bounds checks in the inner loop) and renormalized by the running maximum
// every fourth trellis step. The backward recursion is fused with the
// extrinsic computation so beta metrics never touch memory — only the
// forward metrics are stored, as int16, halving the metric working set of
// the float32 reference decoder (turbo_float_test.go). These are exactly
// the tricks fixed-point SIMD turbo decoders use; here they buy the same
// things in pure Go — fewer loads, smaller cache footprint, branch-free
// maxes.
//
// Ingest gain: max-log-MAP is invariant to a positive scaling of its
// inputs, but a fixed-point kernel is not — scaled too high, a block's LLRs
// pile up at the saturation point and the reliability differences the
// decoder feeds on flatten out (64-QAM LLRs a few dB above the operating
// point average 50–70); scaled too low, the integer halvings of the branch
// metrics start to bias the weakest bits of a high-rate block. The ingest
// therefore scales a block's three streams by g = 2^-⌈log2(mean|LLR| / T)⌉
// whenever the block's mean magnitude exceeds T = i16GainTarget, which
// lands the scaled mean in (T/2, T]; blocks already below T keep g = 1. A
// power of two keeps the scaling exact in float32, so c·llr and llr
// quantize to identical int16 streams for any power-of-two c while the gain
// is active (TestI16GainScaleInvariance), and the one function is shared by
// the scalar and lockstep kernels, which therefore stay bit-identical.
//
// Ingest boundary: gain, quantize and demultiplex, with no data-dependent
// branch anywhere. The gain's float64 sum of |LLR| runs over s0[known:], s1,
// s2 in that order, element i of each stream into partial sum i mod 16, and
// the 16 partial sums fold in one fixed tree (j += j+8, then +4, +2, +1); on
// AVX2 hosts absSumF32x16 performs the same adds four float64 lanes at a
// time, so every kernel and build computes the same sum. quantI16 clamps
// (v·g)·64 to ±i16LLRSat, adds 0.5 carrying the clamped value's sign and
// truncates — round half away from zero in the same float32 operations a
// sign branch would take. The scalar kernel runs ingestI16 over the whole
// block (on AVX2 hosts quantI16x1, eight contiguous values at a time); the
// lockstep kernel runs it in 128-step tiles across its lanes, or
// at width 8 on AVX2 hosts quantI16x8, which quantizes an 8-step tile of all
// eight lanes and stores it with one 8×8 int16 transpose. Filler pins and
// tails (ingestTailI16) stay scalar Go on every path. FuzzIngestI16 pins all
// of it against the per-element reference in ingest_test.go.
//
// Where T and the saturation point sit was measured, not assumed (paired
// against float32 on the same payloads and noise, 1500–2500 blocks per
// point, the scaled mean forced to a target): with saturation at ±16 no
// target serves every block — 16-QAM and QPSK blocks at their operating
// point lose BLER once the scaled mean passes 6 (MCS 14 / 2 PRB: 0.44 at 8,
// 0.52 at 11, float32 0.42), 64-QAM blocks past 11, while MCS 28 / 25 PRB
// at op+3 dB needs at least 11 (0.135 at 6, 0.123 at 11, 0.118 at 16–22,
// float32 0.113). The format has the headroom to move the saturation
// instead (trading 4000 units of metric floor for it, see the range
// derivation below): at ±32 (i16LLRSat 2047) the
// low-order modulations hold parity up to a scaled mean of 11, 64-QAM up to
// 22, and MCS 28 from 8 upward, so T = 16 — window (8, 16] for scaled
// blocks, nothing above 16 for unscaled ones — sits on the float32 curve
// everywhere measured: MCS 28 / 25 PRB at op+3 / op+4 dB within 0.01 BLER
// and 3 % mean iterations of float32 (TestI16BLERParityHighSNR), and over
// MCS 0–28 × {2, 6, 15} PRB at the operating point 270 blocks of 18 000
// fail int16 only against 245 float32 only.
//
// Numerical ranges (all in Q6 units, unchanged by the gain — it only moves
// where in the range a block sits): channel LLRs saturate at ±2047
// (±32.0), a-priori/extrinsic at ±4096 (±64.0), so branch metrics satisfy
// |g| ≤ (2047+4096+2047)/2 = 4095. Renormalization every 4 steps leaves
// metrics in [i16MetricMin, 0] = [−16000, 0]; the forward rows are stored
// after at most 3 further steps, and the lockstep kernel's int16 metric
// banks hold a 4th step for the moment between computing it and
// renormalizing it, so everything stored stays within [−32380, +16380] —
// inside int16. That is what bounds the saturation point and the floor
// together: with the floor at −20000 the channel saturation could not pass
// ±1144. The three un-renormalized tail steps carry no a-priori term and
// drift by at most 3·2047.
//
// The lower end is tighter than that: every butterfly output is the larger
// of two candidates a_x ± g, a_y ∓ g, so at least their mean, and the
// smallest metric of a bank never falls between renormalizations. Metrics
// therefore stay within [−16000, +16380], and a renormalization's a − max
// within [−32380, 0] — inside int16, so the state-parallel twin's int16
// subtraction is exact; it saturates all the same, which keeps it exact
// under the looser bound above as well.

const (
	// i16FracBits is the Q-format: 64 quantization units per LLR unit.
	i16FracBits = 6
	i16One      = 1 << i16FracBits
	// i16LLRSat saturates quantized channel LLRs (≈ ±32 LLR), the widest
	// the int16 metric range allows (see the header).
	i16LLRSat = 2047
	// i16ExtSat clamps extrinsic/a-priori values (≈ ±64 LLR).
	i16ExtSat = 4096
	// i16MetricMin is the metric floor standing in for −inf. A state this
	// far (250 LLR) behind the best one never wins a max again, so clamping
	// changes no decision; what the value is bounded by is int16 (see the
	// header), and the AVX2 kernel carries the same constant
	// (batchFloor32 in turbo_batch_amd64.s).
	i16MetricMin = -16000
	// i16GainTarget is T of the ingest gain: blocks whose mean |LLR|
	// exceeds it are scaled down by a power of two into (T/2, T] (see the
	// header for the measurements behind 16).
	i16GainTarget = 16
	// i16NormStride renormalizes metrics every 4 trellis steps; a metric
	// is never more than 4 steps of at most 4095 each away from its last
	// renormalization, which keeps every stored value inside int16.
	i16NormStride = 4
)

// i16Buffers is the working storage of the int16 kernel, allocated once at
// decoder construction for the largest block; a decode of block size K uses
// the leading part of each.
type i16Buffers struct {
	ls1, lp1 []int16 // systematic & parity, natural order (K+3 used)
	ls2, lp2 []int16 // systematic (interleaved) & parity (K+3 used)
	apri     []int16 // a-priori input to the running constituent (K used)
	ext1     []int16 // extrinsic from decoder 1, natural order
	ext2     []int16 // extrinsic from decoder 2, interleaved order
	alpha    []int16 // K×8 forward metrics (sisoI16 keeps beta in registers)
	gam      []int16 // K×8 branch-metric rows of sisoI16AVX2, nil without AVX2
	beta     []int16 // K×8 backward-metric rows of sisoI16AVX2, nil without AVX2
}

func newI16Buffers() *i16Buffers {
	const k = MaxBlockSize
	steps := k + turboTail
	b := &i16Buffers{
		ls1:   make([]int16, steps),
		lp1:   make([]int16, steps),
		ls2:   make([]int16, steps),
		lp2:   make([]int16, steps),
		apri:  make([]int16, k),
		ext1:  make([]int16, k),
		ext2:  make([]int16, k),
		alpha: make([]int16, k*turboStates),
	}
	if batchAsm {
		b.gam = make([]int16, k*turboStates)
		b.beta = make([]int16, k*turboStates)
	}
	return b
}

// quantI16 converts the LLR v at ingest gain g to saturated Q6 fixed point,
// rounding half away from zero: clamp, add 0.5 with the sign of the clamped
// value, truncate. A NaN passes the clamp and truncates to 0. quantI16x8
// (turbo_batch_amd64.s) performs the same float32 operations eight at a
// time.
func quantI16(v, g float32) int16 {
	c := min(max(v*g*i16One, -i16LLRSat), i16LLRSat)
	return int16(c + math.Float32frombits(math.Float32bits(c)&(1<<31)|f32Half))
}

// f32Half is the float32 bit pattern of 0.5.
const f32Half = 0x3f000000

// gainSums is the number of partial sums llrGain accumulates |LLR| in.
const gainSums = 16

// llrGain returns the ingest gain for the channel observations of one code
// block — its three streams, known bits left out by the caller: 1 when
// their mean magnitude is at most i16GainTarget, otherwise the power of two
// that brings it into (T/2, T]. The sum runs in one fixed order (see the
// header), so it is exactly linear in a power-of-two scaling of the input.
func llrGain(s0, s1, s2 []float32) float32 {
	n := len(s0) + len(s1) + len(s2)
	if n == 0 {
		return 1
	}
	var acc [gainSums]float64
	for _, s := range [3][]float32{s0, s1, s2} {
		absSum(&acc, s)
	}
	for h := gainSums / 2; h > 0; h /= 2 {
		for j := 0; j < h; j++ {
			acc[j] += acc[j+h]
		}
	}
	r := acc[0] / (float64(n) * i16GainTarget)
	if !(r > 1) { // also catches NaN input
		return 1
	}
	frac, exp := math.Frexp(r) // r = frac·2^exp, frac ∈ [0.5, 1)
	if frac == 0.5 {
		exp-- // exact power of two: ⌈log2 r⌉ = exp−1
	}
	return float32(math.Ldexp(1, -exp))
}

// absSum adds |s[i]| to acc[i mod gainSums] in index order. On AVX2 hosts
// the leading multiple of gainSums goes through absSumF32x16, which
// performs the same adds.
func absSum(acc *[gainSums]float64, s []float32) {
	i := 0
	if batchAsm && len(s) >= gainSums {
		i = len(s) &^ (gainSums - 1)
		absSumF32x16(acc, &s[0], i)
	}
	for ; i < len(s); i++ {
		acc[i%gainSums] += math.Abs(float64(s[i]))
	}
}

// ingestI16 quantizes data steps [t0, t1) of one code block at gain g into
// lane b of the stride-w constituent arrays: d0, d1, d2 are the block's
// three float32 streams, each length K+4 in the encoder's layout, and land
// in ls1, lp1, lp2. w=1, b=0 is the scalar kernel's layout, w=Width the
// lockstep kernel's. ingestTailI16 completes the lane.
func ingestI16(ls1, lp1, lp2 []int16, w, b, t0, t1 int, d0, d1, d2 []float32, g float32) {
	for t := t0; t < t1; t++ {
		ls1[t*w+b] = quantI16(d0[t], g)
		lp1[t*w+b] = quantI16(d1[t], g)
		lp2[t*w+b] = quantI16(d2[t], g)
	}
}

// ingestTailI16 completes lane b's ingest once its K data steps are in:
// the known leading systematic values — known zero bits (LTE filler), not
// channel observations, which llrGain is given without them — are pinned
// to the saturation point whatever the caller stored there, and the tails
// are quantized and demultiplexed. The interleaved systematic data
// ls2[:K·w] is the caller's to build from ls1.
func ingestTailI16(ls1, lp1, ls2, lp2 []int16, w, b, k int, d0, d1, d2 []float32, known int, g float32) {
	for t := 0; t < known; t++ {
		ls1[t*w+b] = i16LLRSat
	}
	q := func(v float32) int16 { return quantI16(v, g) }
	// Tails: inverse of the encoder multiplexing.
	t0, t1, t2 := d0[k:], d1[k:], d2[k:]
	ls1[(k+0)*w+b], lp1[(k+0)*w+b] = q(t0[0]), q(t1[0])
	ls1[(k+1)*w+b], lp1[(k+1)*w+b] = q(t2[0]), q(t0[1])
	ls1[(k+2)*w+b], lp1[(k+2)*w+b] = q(t1[1]), q(t2[1])
	ls2[(k+0)*w+b], lp2[(k+0)*w+b] = q(t0[2]), q(t1[2])
	ls2[(k+1)*w+b], lp2[(k+1)*w+b] = q(t2[2]), q(t0[3])
	ls2[(k+2)*w+b], lp2[(k+2)*w+b] = q(t1[3]), q(t2[3])
}

// ingest is the scalar kernel's whole ingest boundary: one code block at
// width 1, including the interleaved systematic stream. vec quantizes the
// data steps with quantI16x1, the same operations eight at a time.
func (b *i16Buffers) ingest(q *QPPInterleaver, d0, d1, d2 []float32, known int, vec bool) {
	k := q.K
	g := llrGain(d0[known:], d1, d2)
	if vec {
		quantI16x1(&b.ls1[0], &d0[0], g, k)
		quantI16x1(&b.lp1[0], &d1[0], g, k)
		quantI16x1(&b.lp2[0], &d2[0], g, k)
	} else {
		ingestI16(b.ls1, b.lp1, b.lp2, 1, 0, 0, k, d0, d1, d2, g)
	}
	ingestTailI16(b.ls1, b.lp1, b.ls2, b.lp2, 1, 0, k, d0, d1, d2, known, g)
	for i := 0; i < k; i++ {
		b.ls2[i] = b.ls1[q.Perm(i)]
	}
}

// sisoI16 runs one quantized max-log-MAP pass over a terminated constituent
// trellis: ls/lp are Q6 systematic/parity LLRs with tails appended (len
// K+3), la the a-priori for the K data steps, ext the extrinsic output,
// alpha a K×8 int16 scratch. The butterflies are unrolled over the fixed
// LTE trellis (g0 = (ls+la+lp)/2, g1 = (ls+la−lp)/2; the d=1 branch metrics
// are their negations). TestUnrolledTrellisMatchesTables pins the unrolled
// structure against the generated trellis tables.
func sisoI16(ls, lp, la, ext []int16, alpha []int16, k int) {
	// Forward recursion, keeping the 8 state metrics in locals; row t of
	// alpha stores the metrics *entering* step t.
	a0, a1, a2, a3, a4, a5, a6, a7 := 0,
		i16MetricMin, i16MetricMin, i16MetricMin,
		i16MetricMin, i16MetricMin, i16MetricMin, i16MetricMin
	for t := 0; t < k; t++ {
		row := alpha[t*turboStates : t*turboStates+turboStates : t*turboStates+turboStates]
		row[0], row[1], row[2], row[3] = int16(a0), int16(a1), int16(a2), int16(a3)
		row[4], row[5], row[6], row[7] = int16(a4), int16(a5), int16(a6), int16(a7)
		h := int(ls[t]) + int(la[t])
		p := int(lp[t])
		g0 := (h + p) >> 1
		g1 := (h - p) >> 1
		n0 := a0 + g0
		if v := a1 - g0; v > n0 {
			n0 = v
		}
		n1 := a2 - g1
		if v := a3 + g1; v > n1 {
			n1 = v
		}
		n2 := a4 + g1
		if v := a5 - g1; v > n2 {
			n2 = v
		}
		n3 := a6 - g0
		if v := a7 + g0; v > n3 {
			n3 = v
		}
		n4 := a0 - g0
		if v := a1 + g0; v > n4 {
			n4 = v
		}
		n5 := a2 + g1
		if v := a3 - g1; v > n5 {
			n5 = v
		}
		n6 := a4 - g1
		if v := a5 + g1; v > n6 {
			n6 = v
		}
		n7 := a6 + g0
		if v := a7 - g0; v > n7 {
			n7 = v
		}
		a0, a1, a2, a3, a4, a5, a6, a7 = n0, n1, n2, n3, n4, n5, n6, n7
		if t&(i16NormStride-1) == i16NormStride-1 {
			a0, a1, a2, a3, a4, a5, a6, a7 = normI16(a0, a1, a2, a3, a4, a5, a6, a7)
		}
	}

	bt := tailBetaI16(ls, lp, k)
	b0, b1, b2, b3, b4, b5, b6, b7 := bt[0], bt[1], bt[2], bt[3], bt[4], bt[5], bt[6], bt[7]

	// Fused backward recursion + extrinsic: at step t the registers hold
	// beta[t+1]; the extrinsic needs only alpha[t], beta[t+1] and ±lp/2 (the
	// systematic and a-priori halves cancel in the d=0/d=1 difference).
	for t := k - 1; t >= 0; t-- {
		row := alpha[t*turboStates : t*turboStates+turboStates : t*turboStates+turboStates]
		r0, r1, r2, r3 := int(row[0]), int(row[1]), int(row[2]), int(row[3])
		r4, r5, r6, r7 := int(row[4]), int(row[5]), int(row[6]), int(row[7])
		p2 := int(lp[t]) >> 1
		// d=0 branches: (state, ±p, successor).
		x0 := r0 + p2 + b0
		if v := r1 + p2 + b4; v > x0 {
			x0 = v
		}
		if v := r2 - p2 + b5; v > x0 {
			x0 = v
		}
		if v := r3 - p2 + b1; v > x0 {
			x0 = v
		}
		if v := r4 - p2 + b2; v > x0 {
			x0 = v
		}
		if v := r5 - p2 + b6; v > x0 {
			x0 = v
		}
		if v := r6 + p2 + b7; v > x0 {
			x0 = v
		}
		if v := r7 + p2 + b3; v > x0 {
			x0 = v
		}
		// d=1 branches.
		x1 := r0 - p2 + b4
		if v := r1 - p2 + b0; v > x1 {
			x1 = v
		}
		if v := r2 + p2 + b1; v > x1 {
			x1 = v
		}
		if v := r3 + p2 + b5; v > x1 {
			x1 = v
		}
		if v := r4 + p2 + b6; v > x1 {
			x1 = v
		}
		if v := r5 + p2 + b2; v > x1 {
			x1 = v
		}
		if v := r6 - p2 + b3; v > x1 {
			x1 = v
		}
		if v := r7 - p2 + b7; v > x1 {
			x1 = v
		}
		e := x0 - x1
		if e > i16ExtSat {
			e = i16ExtSat
		} else if e < -i16ExtSat {
			e = -i16ExtSat
		}
		ext[t] = int16(e)

		// beta[t] from beta[t+1].
		h := int(ls[t]) + int(la[t])
		p := int(lp[t])
		g0 := (h + p) >> 1
		g1 := (h - p) >> 1
		n0 := g0 + b0
		if v := -g0 + b4; v > n0 {
			n0 = v
		}
		n1 := g0 + b4
		if v := -g0 + b0; v > n1 {
			n1 = v
		}
		n2 := g1 + b5
		if v := -g1 + b1; v > n2 {
			n2 = v
		}
		n3 := g1 + b1
		if v := -g1 + b5; v > n3 {
			n3 = v
		}
		n4 := g1 + b2
		if v := -g1 + b6; v > n4 {
			n4 = v
		}
		n5 := g1 + b6
		if v := -g1 + b2; v > n5 {
			n5 = v
		}
		n6 := g0 + b7
		if v := -g0 + b3; v > n6 {
			n6 = v
		}
		n7 := g0 + b3
		if v := -g0 + b7; v > n7 {
			n7 = v
		}
		b0, b1, b2, b3, b4, b5, b6, b7 = n0, n1, n2, n3, n4, n5, n6, n7
		if t&(i16NormStride-1) == 0 {
			b0, b1, b2, b3, b4, b5, b6, b7 = normI16(b0, b1, b2, b3, b4, b5, b6, b7)
		}
	}
}

// tailBetaI16 runs the backward recursion over the tail steps [K, K+3) of
// ls/lp — a single terminating branch per state, table-driven, only 3
// steps, not hot — and returns beta[K] renormalized.
func tailBetaI16(ls, lp []int16, k int) [turboStates]int {
	var bt [turboStates]int
	for s := 1; s < turboStates; s++ {
		bt[s] = i16MetricMin
	}
	for t := k + turboTail - 1; t >= k; t-- {
		h := int(ls[t])
		p := int(lp[t])
		g0 := (h + p) >> 1
		g1 := (h - p) >> 1
		var nb [turboStates]int
		for s := 0; s < turboStates; s++ {
			var g int
			switch tailGamma[s] {
			case 0:
				g = g0
			case 1:
				g = g1
			case 2:
				g = -g1
			default:
				g = -g0
			}
			nb[s] = g + bt[tailNext[s]]
		}
		bt = nb
	}
	bt[0], bt[1], bt[2], bt[3], bt[4], bt[5], bt[6], bt[7] = normI16(bt[0], bt[1], bt[2], bt[3], bt[4], bt[5], bt[6], bt[7])
	return bt
}

// normI16 renormalizes eight path metrics: subtract the maximum (so the
// best state sits at 0) and clamp the floor at i16MetricMin, preserving
// max-log decisions exactly while bounding the stored range.
func normI16(a0, a1, a2, a3, a4, a5, a6, a7 int) (int, int, int, int, int, int, int, int) {
	m := a0
	if a1 > m {
		m = a1
	}
	if a2 > m {
		m = a2
	}
	if a3 > m {
		m = a3
	}
	if a4 > m {
		m = a4
	}
	if a5 > m {
		m = a5
	}
	if a6 > m {
		m = a6
	}
	if a7 > m {
		m = a7
	}
	a0 -= m
	a1 -= m
	a2 -= m
	a3 -= m
	a4 -= m
	a5 -= m
	a6 -= m
	a7 -= m
	if a0 < i16MetricMin {
		a0 = i16MetricMin
	}
	if a1 < i16MetricMin {
		a1 = i16MetricMin
	}
	if a2 < i16MetricMin {
		a2 = i16MetricMin
	}
	if a3 < i16MetricMin {
		a3 = i16MetricMin
	}
	if a4 < i16MetricMin {
		a4 = i16MetricMin
	}
	if a5 < i16MetricMin {
		a5 = i16MetricMin
	}
	if a6 < i16MetricMin {
		a6 = i16MetricMin
	}
	if a7 < i16MetricMin {
		a7 = i16MetricMin
	}
	return a0, a1, a2, a3, a4, a5, a6, a7
}
