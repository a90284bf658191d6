package phy

import "fmt"

// Batched lockstep int16 max-log-MAP kernel.
//
// BatchDecoderI16 decodes up to `width` code blocks of one size — any legal
// K, read off the blocks of each Decode call — in lockstep through one SISO
// pipeline. Where the scalar int16 kernel (turbo_i16.go)
// keeps the eight path metrics of ONE block in registers and walks the
// trellis step by step, the batched kernel lays every per-step quantity out
// as structure-of-arrays — lane b of trellis step t lives at index t*W+b,
// state s of the metric bank at s*W+b — so the butterfly, branch-metric and
// renormalization inner loops become dense strided passes over contiguous
// int16 lanes. Two things make that faster than running the scalar kernel
// per block even without SIMD:
//
//   - The scalar recursions are latency-bound: step t+1's eight metrics
//     depend on step t's, so the CPU idles on a short add+max dependency
//     chain. With B independent lanes interleaved in the inner loop the
//     chains overlap and the core's integer ports stay full.
//   - Per-step overhead (loop control, renorm stride check, address
//     arithmetic, alpha-row bookkeeping) is paid once per step instead of
//     once per step per block.
//
// The same layout is exactly what a SIMD implementation wants — eight int16
// lanes are one 128-bit vector, and the renormalization becomes a vertical
// max across eight vectors — so an AVX2 assembly drop-in behind a build tag
// can replace the inner passes without touching the surrounding structure
// (the pure-Go pass below is the mandatory scalar fallback and the oracle).
//
// Arithmetic is bit-identical to the scalar kernel: the same per-block gain
// and Q6 quantization at ingest (llrGain and quantI16, shared; the AVX2
// ingest performs the same operations), the same unrolled LTE
// butterflies, the same renorm-every-4-steps schedule, all in exact integer
// ops, so lane b's output equals what TurboDecoder{KernelInt16} produces
// for the same streams — property- and fuzz-tested in turbo_batch_test.go.
//
// Early termination is per lane: after every full iteration each active
// lane's hard decisions are checked (a CRC in production); a passing lane
// retires from the batch by column compaction — the last active lane's
// columns are copied over the retiring lane's — so the remaining lanes keep
// running dense lockstep iterations and a retired block never perturbs its
// neighbours.
//
// A BatchDecoderI16 is owned by one goroutine at a time (a
// TransportProcessor's turbo decoder keeps one). Its working set is allocated once
// at construction for the largest block (240·K bytes ≈ 1.5 MB at width 8)
// and a smaller K uses the leading K steps of every array, so Decode
// performs no heap allocation and a decoder's footprint does not depend on
// the block sizes it has seen; the interleaver is a process-wide plan.
type BatchDecoderI16 struct {
	q     *QPPInterleaver // the running Decode's interleaver
	width int

	// MaxIterations bounds full decoder iterations (default 8), matching
	// TurboDecoder.MaxIterations.
	MaxIterations int

	// SoA working set, stride = width, K = MaxBlockSize. Streams are
	// (K+3)×W, apri/ext are K×W, alpha is K×8×W, the metric banks are 8×W.
	ls1, lp1 []int16
	ls2, lp2 []int16
	apri     []int16
	ext1     []int16
	ext2     []int16
	alpha    []int16
	cur      []int16
	bt       []int16
	nbt      []int16

	lanes []int    // lane slot → caller block index (compaction mapping)
	outs  [][]byte // lane slot → output block (rebuilt each iteration)
}

// maxBatchWidth bounds the lockstep width: Decode's failure mask is a
// uint64.
const maxBatchWidth = 64

// NewBatchDecoderI16 returns a lockstep decoder with room for width lanes
// (2..maxBatchWidth).
func NewBatchDecoderI16(width int) (*BatchDecoderI16, error) {
	if width < 2 || width > maxBatchWidth {
		return nil, fmt.Errorf("phy: batch width %d (want 2..%d): %w", width, maxBatchWidth, ErrBadParameter)
	}
	const k = MaxBlockSize
	steps := k + turboTail
	w := width
	return &BatchDecoderI16{
		width:         w,
		MaxIterations: DefaultTurboIterations,
		ls1:           make([]int16, steps*w),
		lp1:           make([]int16, steps*w),
		ls2:           make([]int16, steps*w),
		lp2:           make([]int16, steps*w),
		apri:          make([]int16, k*w),
		ext1:          make([]int16, k*w),
		ext2:          make([]int16, k*w),
		alpha:         make([]int16, k*turboStates*w),
		cur:           make([]int16, turboStates*w),
		bt:            make([]int16, turboStates*w),
		nbt:           make([]int16, turboStates*w),
		lanes:         make([]int, w),
		outs:          make([][]byte, w),
	}, nil
}

// Width returns the lane capacity.
func (bd *BatchDecoderI16) Width() int { return bd.width }

// Decode turbo-decodes len(blocks) ≤ Width code blocks in lockstep:
// blocks[i] (all of one length K, a legal turbo block size) receives the
// hard decisions for the LLR streams ld0[i], ld1[i], ld2[i] (each length
// K+4, the encoder's layout — the same contract as TurboDecoder.Decode).
// Ragged batches (fewer blocks than the width) are fine; lanes beyond
// len(blocks) carry no block (the AVX2 path ingests zeros into them and
// runs them as dead columns).
// known, when non-nil, gives for each lane the number of leading systematic
// values that are known zero bits pinned by the caller (LTE filler; see
// ingestTailI16).
//
// check, when non-nil, is the per-lane success predicate (a CRC), evaluated
// on each lane's hard decisions after every full iteration; a passing lane
// retires early.
//
// Decode returns the total iterations consumed (summed over lanes) and a
// bitmask of lanes that exhausted the iteration budget with check still
// failing. Successful lanes are bit-identical to decoding the same streams
// with a scalar KernelInt16 TurboDecoder under the same check.
func (bd *BatchDecoderI16) Decode(blocks [][]byte, ld0, ld1, ld2 [][]float32, known []int, check func([]byte) bool) (int, uint64, error) {
	n := len(blocks)
	if n == 0 {
		return 0, 0, nil
	}
	if n > bd.width {
		return 0, 0, fmt.Errorf("phy: %d blocks exceed batch width %d: %w", n, bd.width, ErrBadParameter)
	}
	if len(ld0) != n || len(ld1) != n || len(ld2) != n || (known != nil && len(known) != n) {
		return 0, 0, fmt.Errorf("phy: %d blocks but %d/%d/%d LLR streams: %w",
			n, len(ld0), len(ld1), len(ld2), ErrBadParameter)
	}
	q, err := NewQPPInterleaver(len(blocks[0]))
	if err != nil {
		return 0, 0, err
	}
	k := q.K
	bd.q = q
	for b := 0; b < n; b++ {
		if len(blocks[b]) != k {
			return 0, 0, fmt.Errorf("phy: batch lane %d output length %d != K=%d: %w", b, len(blocks[b]), k, ErrBadParameter)
		}
		if len(ld0[b]) != k+4 || len(ld1[b]) != k+4 || len(ld2[b]) != k+4 {
			return 0, 0, fmt.Errorf("phy: batch lane %d input streams must each be K+4=%d: %w", b, k+4, ErrBadParameter)
		}
	}

	bd.ingest(n, ld0, ld1, ld2, known)
	w := bd.width
	clear(bd.apri[:k*w])
	for b := 0; b < n; b++ {
		bd.lanes[b] = b
	}

	// The AVX2 path is fixed at 8 lanes (one YMM of widened int32 per
	// trellis state) and always processes the full vector; retired or
	// ragged lanes ride along as dead columns, which costs nothing extra
	// and cannot perturb live lanes (all lane arithmetic is independent).
	useAVX2 := batchAsm && w == 8
	itersTotal := 0
	var failed uint64
	for it := 0; it < bd.MaxIterations && n > 0; it++ {
		if useAVX2 {
			sisoI16BatchAVX2(bd.ls1, bd.lp1, bd.apri, bd.ext1, bd.alpha, bd.bt, bd.nbt, k)
		} else {
			sisoI16Batch(bd.ls1, bd.lp1, bd.apri, bd.ext1, bd.alpha, bd.cur, bd.bt, bd.nbt, k, w, n)
		}
		if w == 8 {
			// Fixed-size row moves: two 8-byte stores instead of a
			// memmove call per trellis bit.
			for i := 0; i < k; i++ {
				pi := bd.q.Perm(i)
				*(*[8]int16)(bd.apri[i*8 : i*8+8]) = *(*[8]int16)(bd.ext1[pi*8 : pi*8+8])
			}
		} else {
			for i := 0; i < k; i++ {
				pi := bd.q.Perm(i)
				copy(bd.apri[i*w:i*w+n], bd.ext1[pi*w:pi*w+n])
			}
		}
		if useAVX2 {
			sisoI16BatchAVX2(bd.ls2, bd.lp2, bd.apri, bd.ext2, bd.alpha, bd.bt, bd.nbt, k)
		} else {
			sisoI16Batch(bd.ls2, bd.lp2, bd.apri, bd.ext2, bd.alpha, bd.cur, bd.bt, bd.nbt, k, w, n)
		}
		if w == 8 {
			for i := 0; i < k; i++ {
				pi := bd.q.Perm(i)
				*(*[8]int16)(bd.apri[pi*8 : pi*8+8]) = *(*[8]int16)(bd.ext2[i*8 : i*8+8])
			}
		} else {
			for i := 0; i < k; i++ {
				pi := bd.q.Perm(i)
				copy(bd.apri[pi*w:pi*w+n], bd.ext2[i*w:i*w+n])
			}
		}
		itersTotal += n

		// Hard decisions — the sign bit of the a-posteriori sum — step-major
		// so the three metric streams are read sequentially (lane-major
		// would walk each cache line once per lane). outs caches the
		// lane→output mapping for the inner loop.
		outs := bd.outs[:n]
		for j := 0; j < n; j++ {
			outs[j] = blocks[bd.lanes[j]]
		}
		if useAVX2 {
			hardI16AVX2(outs, bd.ls1, bd.ext1, bd.apri, k)
		} else {
			for i := 0; i < k; i++ {
				ls1 := bd.ls1[i*w : i*w+n : i*w+n]
				ext1 := bd.ext1[i*w : i*w+n : i*w+n]
				apri := bd.apri[i*w : i*w+n : i*w+n]
				for j := range ls1 {
					outs[j][i] = byte(uint32(int32(ls1[j])+int32(ext1[j])+int32(apri[j])) >> 31)
				}
			}
		}
		// Per-lane early termination. Descending over the lane slots keeps
		// compaction sound: the lane moved into slot j comes from a higher
		// slot already decided this iteration.
		if check != nil {
			last := it == bd.MaxIterations-1
			for j := n - 1; j >= 0; j-- {
				if check(outs[j]) {
					n = bd.compact(j, n)
				} else if last {
					failed |= 1 << uint(bd.lanes[j])
				}
			}
		}
	}
	return itersTotal, failed, nil
}

// ingestTile is the step height of the pure-Go lockstep ingest's tiles:
// 128 steps of the three stride-w streams (6 KiB at width 8) stay
// L1-resident while every lane writes its column into them.
const ingestTile = 128

// ingest quantizes the lanes' float32 streams into the SoA working set
// through the int16 kernels' ingest boundary (turbo_i16.go): every lane's
// gain, then the data steps — the AVX2 tile kernel at width 8, 128-step
// tiles of ingestI16 across the lanes otherwise — then each lane's filler
// pins and tails.
func (bd *BatchDecoderI16) ingest(n int, ld0, ld1, ld2 [][]float32, known []int) {
	k, w := bd.q.K, bd.width
	var kn [maxBatchWidth]int
	if known != nil {
		copy(kn[:n], known)
	}
	var g [maxBatchWidth]float32
	for b := 0; b < n; b++ {
		g[b] = llrGain(ld0[b][kn[b]:], ld1[b], ld2[b])
	}
	if batchAsm && w == 8 {
		ingestI16AVX2(bd.ls1, bd.lp1, bd.lp2, k, n, ld0, ld1, ld2, &g)
	} else {
		for t0 := 0; t0 < k; t0 += ingestTile {
			t1 := min(t0+ingestTile, k)
			for b := 0; b < n; b++ {
				ingestI16(bd.ls1, bd.lp1, bd.lp2, w, b, t0, t1, ld0[b], ld1[b], ld2[b], g[b])
			}
		}
	}
	for b := 0; b < n; b++ {
		ingestTailI16(bd.ls1, bd.lp1, bd.ls2, bd.lp2, w, b, k, ld0[b], ld1[b], ld2[b], kn[b], g[b])
	}
	// Interleaved systematic stream, built row-wise once all lanes are
	// quantized (per-lane gathers would re-walk ls1 randomly per lane).
	if w == 8 {
		for i := 0; i < k; i++ {
			pi := bd.q.Perm(i)
			*(*[8]int16)(bd.ls2[i*8 : i*8+8]) = *(*[8]int16)(bd.ls1[pi*8 : pi*8+8])
		}
	} else {
		for i := 0; i < k; i++ {
			pi := bd.q.Perm(i)
			copy(bd.ls2[i*w:i*w+n], bd.ls1[pi*w:pi*w+n])
		}
	}
}

// compact retires lane slot j (of n active) by copying the last active
// lane's columns over it in every array that carries state across
// iterations. ext/alpha/metric banks are recomputed each half-iteration and
// need no move. Returns the new active count.
func (bd *BatchDecoderI16) compact(j, n int) int {
	m := n - 1
	if j != m {
		w := bd.width
		k := bd.q.K
		steps := (k + turboTail) * w
		moveLane(bd.ls1[:steps], j, m, w)
		moveLane(bd.lp1[:steps], j, m, w)
		moveLane(bd.ls2[:steps], j, m, w)
		moveLane(bd.lp2[:steps], j, m, w)
		moveLane(bd.apri[:k*w], j, m, w)
		bd.lanes[j] = bd.lanes[m]
	}
	return m
}

// moveLane copies column src over column dst in a stride-w SoA array.
func moveLane(a []int16, dst, src, w int) {
	for o := 0; o+w <= len(a); o += w {
		a[o+dst] = a[o+src]
	}
}

// sisoI16Batch runs one quantized max-log-MAP pass over n lanes of a
// terminated constituent trellis in lockstep. ls/lp/la/ext are SoA with
// stride w (trellis step t, lane b at t*w+b); alpha is the K×8×W forward
// metric store; cur/bt/nbt are the 8×W metric banks. The arithmetic per
// lane is exactly sisoI16's (turbo_i16.go) — same butterflies, same renorm
// schedule, exact integer ops — so each lane's extrinsic output is
// bit-identical to a scalar pass over that lane alone.
func sisoI16Batch(ls, lp, la, ext, alpha, cur, bt, nbt []int16, k, w, n int) {
	// Forward recursion: the 8×W bank `cur` holds the metrics entering the
	// current step; row t of alpha stores a snapshot per step.
	for b := 0; b < n; b++ {
		cur[b] = 0
	}
	for s := 1; s < turboStates; s++ {
		row := cur[s*w : s*w+n]
		for b := range row {
			row[b] = i16MetricMin
		}
	}
	c0 := cur[0*w : 0*w+w : 0*w+w]
	c1 := cur[1*w : 1*w+w : 1*w+w]
	c2 := cur[2*w : 2*w+w : 2*w+w]
	c3 := cur[3*w : 3*w+w : 3*w+w]
	c4 := cur[4*w : 4*w+w : 4*w+w]
	c5 := cur[5*w : 5*w+w : 5*w+w]
	c6 := cur[6*w : 6*w+w : 6*w+w]
	c7 := cur[7*w : 7*w+w : 7*w+w]
	for t := 0; t < k; t++ {
		copy(alpha[t*turboStates*w:(t+1)*turboStates*w], cur)
		lst := ls[t*w : t*w+n : t*w+n]
		lpt := lp[t*w : t*w+n : t*w+n]
		lat := la[t*w : t*w+n : t*w+n]
		for b := range lst {
			h := int(lst[b]) + int(lat[b])
			p := int(lpt[b])
			g0 := (h + p) >> 1
			g1 := (h - p) >> 1
			a0, a1 := int(c0[b]), int(c1[b])
			a2, a3 := int(c2[b]), int(c3[b])
			a4, a5 := int(c4[b]), int(c5[b])
			a6, a7 := int(c6[b]), int(c7[b])
			c0[b] = int16(max(a0+g0, a1-g0))
			c1[b] = int16(max(a2-g1, a3+g1))
			c2[b] = int16(max(a4+g1, a5-g1))
			c3[b] = int16(max(a6-g0, a7+g0))
			c4[b] = int16(max(a0-g0, a1+g0))
			c5[b] = int16(max(a2+g1, a3-g1))
			c6[b] = int16(max(a4-g1, a5+g1))
			c7[b] = int16(max(a6+g0, a7-g0))
		}
		if t&(i16NormStride-1) == i16NormStride-1 {
			renormBatch(cur, w, n)
		}
	}

	bt = tailBetaBatch(ls, lp, bt, nbt, k, w, n)
	renormBatch(bt, w, n)

	// Fused backward recursion + extrinsic: bt holds beta[t+1] entering
	// step t; the extrinsic needs alpha[t], beta[t+1] and ±lp/2 only.
	b0s := bt[0*w : 0*w+w : 0*w+w]
	b1s := bt[1*w : 1*w+w : 1*w+w]
	b2s := bt[2*w : 2*w+w : 2*w+w]
	b3s := bt[3*w : 3*w+w : 3*w+w]
	b4s := bt[4*w : 4*w+w : 4*w+w]
	b5s := bt[5*w : 5*w+w : 5*w+w]
	b6s := bt[6*w : 6*w+w : 6*w+w]
	b7s := bt[7*w : 7*w+w : 7*w+w]
	for t := k - 1; t >= 0; t-- {
		arow := alpha[t*turboStates*w : (t+1)*turboStates*w]
		a0s := arow[0*w : 0*w+w : 0*w+w]
		a1s := arow[1*w : 1*w+w : 1*w+w]
		a2s := arow[2*w : 2*w+w : 2*w+w]
		a3s := arow[3*w : 3*w+w : 3*w+w]
		a4s := arow[4*w : 4*w+w : 4*w+w]
		a5s := arow[5*w : 5*w+w : 5*w+w]
		a6s := arow[6*w : 6*w+w : 6*w+w]
		a7s := arow[7*w : 7*w+w : 7*w+w]
		lst := ls[t*w : t*w+n : t*w+n]
		lpt := lp[t*w : t*w+n : t*w+n]
		lat := la[t*w : t*w+n : t*w+n]
		extt := ext[t*w : t*w+n : t*w+n]
		for b := range lst {
			r0, r1 := int(a0s[b]), int(a1s[b])
			r2, r3 := int(a2s[b]), int(a3s[b])
			r4, r5 := int(a4s[b]), int(a5s[b])
			r6, r7 := int(a6s[b]), int(a7s[b])
			b0, b1 := int(b0s[b]), int(b1s[b])
			b2, b3 := int(b2s[b]), int(b3s[b])
			b4, b5 := int(b4s[b]), int(b5s[b])
			b6, b7 := int(b6s[b]), int(b7s[b])
			p2 := int(lpt[b]) >> 1
			// d=0 branches.
			x0 := max(r0+p2+b0, r1+p2+b4)
			x0 = max(x0, r2-p2+b5)
			x0 = max(x0, r3-p2+b1)
			x0 = max(x0, r4-p2+b2)
			x0 = max(x0, r5-p2+b6)
			x0 = max(x0, r6+p2+b7)
			x0 = max(x0, r7+p2+b3)
			// d=1 branches.
			x1 := max(r0-p2+b4, r1-p2+b0)
			x1 = max(x1, r2+p2+b1)
			x1 = max(x1, r3+p2+b5)
			x1 = max(x1, r4+p2+b6)
			x1 = max(x1, r5+p2+b2)
			x1 = max(x1, r6-p2+b3)
			x1 = max(x1, r7-p2+b7)
			e := x0 - x1
			if e > i16ExtSat {
				e = i16ExtSat
			} else if e < -i16ExtSat {
				e = -i16ExtSat
			}
			extt[b] = int16(e)

			// beta[t] from beta[t+1].
			h := int(lst[b]) + int(lat[b])
			p := int(lpt[b])
			g0 := (h + p) >> 1
			g1 := (h - p) >> 1
			b0s[b] = int16(max(g0+b0, -g0+b4))
			b1s[b] = int16(max(g0+b4, -g0+b0))
			b2s[b] = int16(max(g1+b5, -g1+b1))
			b3s[b] = int16(max(g1+b1, -g1+b5))
			b4s[b] = int16(max(g1+b2, -g1+b6))
			b5s[b] = int16(max(g1+b6, -g1+b2))
			b6s[b] = int16(max(g0+b7, -g0+b3))
			b7s[b] = int16(max(g0+b3, -g0+b7))
		}
		if t&(i16NormStride-1) == 0 {
			renormBatch(bt, w, n)
		}
	}
}

// tailBetaBatch runs the backward recursion over the tail (single
// terminating branch per state, table-driven — only 3 steps, not hot) for n
// lanes, ping-ponging between the bt and nbt banks. It returns the bank
// holding beta[K], un-renormalized.
func tailBetaBatch(ls, lp, bt, nbt []int16, k, w, n int) []int16 {
	steps := k + turboTail
	for b := 0; b < n; b++ {
		bt[b] = 0
	}
	for s := 1; s < turboStates; s++ {
		row := bt[s*w : s*w+n]
		for b := range row {
			row[b] = i16MetricMin
		}
	}
	for t := steps - 1; t >= k; t-- {
		lst := ls[t*w : t*w+n : t*w+n]
		lpt := lp[t*w : t*w+n : t*w+n]
		for s := 0; s < turboStates; s++ {
			src := bt[int(tailNext[s])*w : int(tailNext[s])*w+n]
			dst := nbt[s*w : s*w+n]
			tg := tailGamma[s]
			for b := range dst {
				h := int(lst[b])
				p := int(lpt[b])
				var g int
				switch tg {
				case 0:
					g = (h + p) >> 1
				case 1:
					g = (h - p) >> 1
				case 2:
					g = -((h - p) >> 1)
				default:
					g = -((h + p) >> 1)
				}
				dst[b] = int16(g + int(src[b]))
			}
		}
		bt, nbt = nbt, bt
	}
	return bt
}

// renormBatch renormalizes an 8×W metric bank lane by lane: subtract each
// lane's maximum and clamp the floor at i16MetricMin — the lockstep sibling
// of normI16, preserving max-log decisions exactly.
func renormBatch(bank []int16, w, n int) {
	c0 := bank[0*w : 0*w+w : 0*w+w]
	c1 := bank[1*w : 1*w+w : 1*w+w]
	c2 := bank[2*w : 2*w+w : 2*w+w]
	c3 := bank[3*w : 3*w+w : 3*w+w]
	c4 := bank[4*w : 4*w+w : 4*w+w]
	c5 := bank[5*w : 5*w+w : 5*w+w]
	c6 := bank[6*w : 6*w+w : 6*w+w]
	c7 := bank[7*w : 7*w+w : 7*w+w]
	for b := 0; b < n; b++ {
		a0, a1 := int(c0[b]), int(c1[b])
		a2, a3 := int(c2[b]), int(c3[b])
		a4, a5 := int(c4[b]), int(c5[b])
		a6, a7 := int(c6[b]), int(c7[b])
		m := max(a0, a1)
		m = max(m, a2)
		m = max(m, a3)
		m = max(m, a4)
		m = max(m, a5)
		m = max(m, a6)
		m = max(m, a7)
		c0[b] = int16(max(a0-m, i16MetricMin))
		c1[b] = int16(max(a1-m, i16MetricMin))
		c2[b] = int16(max(a2-m, i16MetricMin))
		c3[b] = int16(max(a3-m, i16MetricMin))
		c4[b] = int16(max(a4-m, i16MetricMin))
		c5[b] = int16(max(a5-m, i16MetricMin))
		c6[b] = int16(max(a6-m, i16MetricMin))
		c7[b] = int16(max(a7-m, i16MetricMin))
	}
}
