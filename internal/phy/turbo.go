package phy

import (
	"fmt"
)

// LTE rate-1/3 turbo code (36.212 §5.1.3.2): a parallel concatenation of two
// identical 8-state recursive systematic convolutional (RSC) encoders with
// transfer function G(D) = [1, g1(D)/g0(D)], g0 = 1+D²+D³, g1 = 1+D+D³,
// joined by the QPP interleaver. Each constituent is trellis-terminated with
// 3 tail steps, giving 3K+12 output bits per K-bit block.
//
// The decoder is an iterative max-log-MAP (BCJR) pair exchanging extrinsic
// information, with optional CRC-based early termination. Turbo decoding is
// the dominant cost in uplink subframe processing — typically well over half
// the budget at high MCS — which is exactly the property PRAN's resource
// pooling exploits, so this implementation favours a tight, allocation-free
// inner loop over absolute generality.

const (
	turboStates = 8
	turboTail   = 3 // termination steps per constituent encoder
	// TailBits is the total number of multiplexed tail bits (12).
	TailBits = 4 * turboTail

	// DefaultTurboIterations is the default MaxIterations budget of every
	// decoder constructor (TurboDecoder, BatchDecoderI16). The degradation
	// ladder's iteration caps are expressed relative to this.
	DefaultTurboIterations = 8

	negInf = float32(-1e30)
)

// rscNext[s][a] is the next register state after shifting in feedback value
// a; rscParityIn[s][d] is the parity output for *input bit* d at state s;
// rscFeedback[s] is the feedback term r2⊕r3, so a = d ⊕ rscFeedback[s].
var (
	rscNext     [turboStates][2]uint8
	rscParityIn [turboStates][2]uint8
	rscFeedback [turboStates]uint8
)

// Flattened trellis tables for the decoder's hot loops:
//
//	nextD0/nextD1: successor state for input bit 0/1
//	gammaIdx0/1:   branch-metric index (d<<1 | parity) for input bit 0/1
//	predState/predGamma: the two (predecessor, metric-index) pairs per state
//	tailNext/tailGamma:  the single terminating branch per state
var (
	nextD0, nextD1       [turboStates]uint8
	gammaIdx0, gammaIdx1 [turboStates]uint8
	predState            [turboStates][2]uint8
	predGamma            [turboStates][2]uint8
	tailNext             [turboStates]uint8
	tailGamma            [turboStates]uint8
)

func init() {
	for s := 0; s < turboStates; s++ {
		r1 := uint8(s>>2) & 1 // newest register bit
		r2 := uint8(s>>1) & 1
		r3 := uint8(s) & 1
		fb := r2 ^ r3 // g0 = 1+D²+D³ feedback taps
		rscFeedback[s] = fb
		for a := uint8(0); a <= 1; a++ {
			rscNext[s][a] = a<<2 | r1<<1 | r2
		}
		for d := uint8(0); d <= 1; d++ {
			a := d ^ fb
			rscParityIn[s][d] = a ^ r1 ^ r3 // g1 = 1+D+D³: a, D=r1, D³=r3
		}
	}
	var fill [turboStates]int
	for s := 0; s < turboStates; s++ {
		fb := rscFeedback[s]
		nextD0[s] = rscNext[s][fb]   // d=0 → a=fb
		nextD1[s] = rscNext[s][1^fb] // d=1 → a=1^fb
		gammaIdx0[s] = rscParityIn[s][0]
		gammaIdx1[s] = 2 | rscParityIn[s][1]
		// Tail step drives a=0: input bit d=fb, gamma index d<<1|parity.
		d := fb
		tailNext[s] = rscNext[s][0]
		tailGamma[s] = d<<1 | rscParityIn[s][d]
	}
	for s := 0; s < turboStates; s++ {
		for _, dg := range []struct{ ns, gi uint8 }{
			{nextD0[s], gammaIdx0[s]},
			{nextD1[s], gammaIdx1[s]},
		} {
			i := fill[dg.ns]
			predState[dg.ns][i] = uint8(s)
			predGamma[dg.ns][i] = dg.gi
			fill[dg.ns]++
		}
	}
	for s, n := range fill {
		if n != 2 {
			panic(fmt.Sprintf("phy: trellis state %d has %d predecessors", s, n))
		}
	}
}

// TurboEncoder encodes blocks of any legal size K (the length of the
// input), with scratch sized for the largest. Create one per
// pipeline and reuse; Encode does not allocate.
type TurboEncoder struct {
	interl []byte // scratch: interleaved systematic bits
}

// NewTurboEncoder returns an encoder.
func NewTurboEncoder() *TurboEncoder {
	return &TurboEncoder{interl: make([]byte, MaxBlockSize)}
}

// Encode encodes the K input bits (K a legal turbo block size per
// IsValidBlockSize) into three streams d0 (systematic), d1 (parity 1), d2
// (parity 2), each of length K+4, following a fixed tail multiplexing
// compatible with the decoder. input is not modified.
func (e *TurboEncoder) Encode(d0, d1, d2, input []byte) error {
	k := len(input)
	q, err := NewQPPInterleaver(k)
	if err != nil {
		return err
	}
	if len(d0) != k+4 || len(d1) != k+4 || len(d2) != k+4 {
		return fmt.Errorf("phy: turbo output streams must each be K+4=%d bits: %w", k+4, ErrBadParameter)
	}
	var x1, z1, x2, z2 [turboTail]byte
	runRSC(input, d1[:k], &x1, &z1)
	copy(d0, input[:k])
	interl := e.interl[:k]
	if err := q.Interleave(interl, input); err != nil {
		return err
	}
	runRSC(interl, d2[:k], &x2, &z2)
	// Tail multiplexing (fixed layout shared with the decoder):
	d0[k+0], d0[k+1], d0[k+2], d0[k+3] = x1[0], z1[1], x2[0], z2[1]
	d1[k+0], d1[k+1], d1[k+2], d1[k+3] = z1[0], x1[2], z2[0], x2[2]
	d2[k+0], d2[k+1], d2[k+2], d2[k+3] = x1[1], z1[2], x2[1], z2[2]
	return nil
}

// runRSC drives one RSC constituent over input, writing parity bits and the
// termination tail (3 systematic + 3 parity bits driving the trellis to
// state 0).
func runRSC(input, parity []byte, xt, zt *[turboTail]byte) {
	var s uint8
	for i, d := range input {
		d &= 1
		parity[i] = rscParityIn[s][d]
		s = rscNext[s][d^rscFeedback[s]]
	}
	for t := 0; t < turboTail; t++ {
		d := rscFeedback[s] // forces feedback value a = 0
		xt[t] = d
		zt[t] = rscParityIn[s][d]
		s = rscNext[s][0]
	}
}

// TurboDecoder decodes blocks of any legal size K using iterative
// max-log-MAP: the block size is the length of the output, the interleaver
// a process-wide plan, and all working memory is allocated at construction
// for the largest block, so a decoder's footprint does not depend on what
// it has decoded. Decode performs no heap allocation, keeping the data-plane
// hot path GC-quiet. A TurboDecoder is not safe for concurrent use; the data
// plane keeps one per worker.
type TurboDecoder struct {
	kernel DecodeKernel
	// Soft inputs split per constituent, each K+3 trellis steps at most.
	// The float32 buffers exist only for KernelFloat32; KernelInt16 keeps
	// its quantized working set in i16 instead (never both).
	ls1, lp1 []float32 // systematic & parity, natural order
	ls2, lp2 []float32 // systematic (interleaved) & parity
	apri     []float32 // a-priori input to the running constituent
	ext1     []float32 // extrinsic from decoder 1 (natural order)
	ext2     []float32 // extrinsic from decoder 2 (interleaved order)
	alpha    []float32 // (steps+1)×8 forward metrics
	beta     []float32 // (steps+1)×8 backward metrics
	i16      *i16Buffers
	hard     []byte

	// MaxIterations bounds full decoder iterations (default 8).
	MaxIterations int
	// EarlyCheck, when non-nil, receives the current hard decisions after
	// each full iteration; returning true stops decoding early (typically a
	// CRC check). The slice is reused across calls and must not be retained.
	EarlyCheck func(bits []byte) bool

	iterationsUsed int
}

// NewTurboDecoder returns a decoder using the default kernel (KernelInt16).
func NewTurboDecoder() *TurboDecoder { return newTurboDecoder(KernelInt16) }

// NewTurboDecoderKernel returns a decoder running the given SISO kernel.
// Only the selected kernel's working buffers are allocated; the kernel is
// fixed for the decoder's lifetime.
func NewTurboDecoderKernel(kernel DecodeKernel) (*TurboDecoder, error) {
	if err := kernel.Validate(); err != nil {
		return nil, err
	}
	return newTurboDecoder(kernel), nil
}

func newTurboDecoder(kernel DecodeKernel) *TurboDecoder {
	const k = MaxBlockSize
	d := &TurboDecoder{
		kernel:        kernel,
		hard:          make([]byte, k),
		MaxIterations: DefaultTurboIterations,
	}
	steps := k + turboTail
	switch kernel {
	case KernelInt16:
		d.i16 = newI16Buffers()
	default:
		d.ls1 = make([]float32, steps)
		d.lp1 = make([]float32, steps)
		d.ls2 = make([]float32, steps)
		d.lp2 = make([]float32, steps)
		d.apri = make([]float32, k)
		d.ext1 = make([]float32, k)
		d.ext2 = make([]float32, k)
		d.alpha = make([]float32, (steps+1)*turboStates)
		d.beta = make([]float32, (steps+1)*turboStates)
	}
	return d
}

// Kernel returns the SISO kernel this decoder was constructed with.
func (d *TurboDecoder) Kernel() DecodeKernel { return d.kernel }

// IterationsUsed reports how many full iterations the last Decode consumed;
// the cluster cost model uses it to attribute per-block compute.
func (d *TurboDecoder) IterationsUsed() int { return d.iterationsUsed }

// Decode consumes the three LLR streams ld0, ld1, ld2 (each length K+4,
// matching the encoder's output layout; positive ⇒ bit 0) and writes the
// decoded bits into out, whose length K must be a legal turbo block size.
// It returns the number of full iterations used. Decode does not itself
// verify a CRC; install EarlyCheck or verify the output.
func (d *TurboDecoder) Decode(out []byte, ld0, ld1, ld2 []float32) (int, error) {
	return d.decode(out, ld0, ld1, ld2, 0)
}

// decode is Decode for a block whose first known systematic values are
// known zero bits (LTE filler) that the caller has pinned to fillerLLR: the
// int16 kernel keeps them out of its ingest gain (llrGain), the float32
// kernel takes the pins as they are.
func (d *TurboDecoder) decode(out []byte, ld0, ld1, ld2 []float32, known int) (int, error) {
	k := len(out)
	q, err := NewQPPInterleaver(k)
	if err != nil {
		return 0, err
	}
	if len(ld0) != k+4 || len(ld1) != k+4 || len(ld2) != k+4 {
		return 0, fmt.Errorf("phy: decode input streams must each be K+4=%d: %w", k+4, ErrBadParameter)
	}
	hard := d.hard[:k]
	if d.kernel == KernelInt16 {
		return d.decodeI16(q, hard, out, ld0, ld1, ld2, known)
	}
	// Demultiplex data and tails into per-constituent streams.
	copy(d.ls1[:k], ld0[:k])
	copy(d.lp1[:k], ld1[:k])
	for i := 0; i < k; i++ {
		d.ls2[i] = ld0[q.Perm(i)]
	}
	copy(d.lp2[:k], ld2[:k])
	// Tails: inverse of the encoder multiplexing.
	d.ls1[k+0], d.lp1[k+0] = ld0[k+0], ld1[k+0]
	d.ls1[k+1], d.lp1[k+1] = ld2[k+0], ld0[k+1]
	d.ls1[k+2], d.lp1[k+2] = ld1[k+1], ld2[k+1]
	d.ls2[k+0], d.lp2[k+0] = ld0[k+2], ld1[k+2]
	d.ls2[k+1], d.lp2[k+1] = ld2[k+2], ld0[k+3]
	d.ls2[k+2], d.lp2[k+2] = ld1[k+3], ld2[k+3]

	clear(d.apri[:k])
	d.iterationsUsed = 0
	for it := 0; it < d.MaxIterations; it++ {
		// Decoder 1 (natural order). apri currently holds deinterleaved
		// extrinsic from decoder 2 (zero on the first pass).
		d.siso(k, d.ls1, d.lp1, d.apri, d.ext1)
		// Interleave ext1 → a-priori for decoder 2.
		for i := 0; i < k; i++ {
			d.apri[i] = d.ext1[q.Perm(i)]
		}
		d.siso(k, d.ls2, d.lp2, d.apri, d.ext2)
		// Deinterleave ext2 back to natural order for the next round.
		for i := 0; i < k; i++ {
			d.apri[q.Perm(i)] = d.ext2[i]
		}
		d.iterationsUsed = it + 1
		// A-posteriori in natural order: channel + both extrinsics.
		for i := 0; i < k; i++ {
			if d.ls1[i]+d.ext1[i]+d.apri[i] >= 0 {
				hard[i] = 0
			} else {
				hard[i] = 1
			}
		}
		if d.EarlyCheck != nil && d.EarlyCheck(hard) {
			break
		}
	}
	copy(out, hard)
	return d.iterationsUsed, nil
}

// siso runs one max-log-MAP pass over a terminated constituent trellis of k
// data steps. ls/lp are systematic/parity LLRs with tail steps appended (K+3
// values); la is the a-priori LLR for the K data steps; ext the extrinsic.
//
// The recursions are destination-oriented over precomputed two-predecessor
// tables, with the four possible branch metrics (±systematic ±parity)
// computed once per step — the layout that makes this the fastest pure-Go
// inner loop we measured (see BenchmarkTurboDecodeK6144).
func (d *TurboDecoder) siso(k int, ls, lp, la, ext []float32) {
	steps := k + turboTail
	alpha, beta := d.alpha, d.beta

	// gammas[d<<1|parity] for the current step.
	var g [4]float32

	// Forward recursion. alpha[0] = {0, -inf...}: encoder starts in state 0.
	alpha[0] = 0
	for s := 1; s < turboStates; s++ {
		alpha[s] = negInf
	}
	for t := 0; t < k; t++ {
		half := (ls[t] + la[t]) * 0.5
		halfP := lp[t] * 0.5
		g[0] = half + halfP
		g[1] = half - halfP
		g[2] = -half + halfP
		g[3] = -half - halfP
		row := alpha[t*turboStates : t*turboStates+turboStates : t*turboStates+turboStates]
		next := alpha[(t+1)*turboStates : (t+1)*turboStates+turboStates : (t+1)*turboStates+turboStates]
		for ns := 0; ns < turboStates; ns++ {
			m0 := row[predState[ns][0]] + g[predGamma[ns][0]]
			m1 := row[predState[ns][1]] + g[predGamma[ns][1]]
			if m1 > m0 {
				m0 = m1
			}
			next[ns] = m0
		}
	}
	// Tail steps: single terminating branch per state, source-oriented.
	for t := k; t < steps; t++ {
		half := ls[t] * 0.5
		halfP := lp[t] * 0.5
		g[0] = half + halfP
		g[1] = half - halfP
		g[2] = -half + halfP
		g[3] = -half - halfP
		row := alpha[t*turboStates : (t+1)*turboStates]
		next := alpha[(t+1)*turboStates : (t+2)*turboStates]
		for s := range next {
			next[s] = negInf
		}
		for s := 0; s < turboStates; s++ {
			m := row[s] + g[tailGamma[s]]
			if ns := tailNext[s]; m > next[ns] {
				next[ns] = m
			}
		}
	}

	// Backward recursion. Terminated trellis ⇒ beta[steps] = {0, -inf...}.
	base := steps * turboStates
	beta[base] = 0
	for s := 1; s < turboStates; s++ {
		beta[base+s] = negInf
	}
	for t := steps - 1; t >= k; t-- {
		half := ls[t] * 0.5
		halfP := lp[t] * 0.5
		g[0] = half + halfP
		g[1] = half - halfP
		g[2] = -half + halfP
		g[3] = -half - halfP
		row := beta[t*turboStates : (t+1)*turboStates]
		next := beta[(t+1)*turboStates : (t+2)*turboStates]
		for s := 0; s < turboStates; s++ {
			row[s] = g[tailGamma[s]] + next[tailNext[s]]
		}
	}
	for t := k - 1; t >= 0; t-- {
		half := (ls[t] + la[t]) * 0.5
		halfP := lp[t] * 0.5
		g[0] = half + halfP
		g[1] = half - halfP
		g[2] = -half + halfP
		g[3] = -half - halfP
		row := beta[t*turboStates : t*turboStates+turboStates : t*turboStates+turboStates]
		next := beta[(t+1)*turboStates : (t+1)*turboStates+turboStates : (t+1)*turboStates+turboStates]
		for s := 0; s < turboStates; s++ {
			m0 := g[gammaIdx0[s]] + next[nextD0[s]]
			m1 := g[gammaIdx1[s]] + next[nextD1[s]]
			if m1 > m0 {
				m0 = m1
			}
			row[s] = m0
		}
	}

	// LLR and extrinsic for the K data steps.
	for t := 0; t < k; t++ {
		arow := alpha[t*turboStates : t*turboStates+turboStates : t*turboStates+turboStates]
		brow := beta[(t+1)*turboStates : (t+1)*turboStates+turboStates : (t+1)*turboStates+turboStates]
		half := (ls[t] + la[t]) * 0.5
		halfP := lp[t] * 0.5
		g[0] = half + halfP
		g[1] = half - halfP
		g[2] = -half + halfP
		g[3] = -half - halfP
		m0, m1 := negInf, negInf
		for s := 0; s < turboStates; s++ {
			am := arow[s]
			if v := am + g[gammaIdx0[s]] + brow[nextD0[s]]; v > m0 {
				m0 = v
			}
			if v := am + g[gammaIdx1[s]] + brow[nextD1[s]]; v > m1 {
				m1 = v
			}
		}
		ext[t] = (m0 - m1) - ls[t] - la[t]
	}
}
