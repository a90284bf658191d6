package phy

import "fmt"

// The float32 max-log-MAP turbo decoder: the accuracy reference the int16
// kernel (turbo_i16.go) is held to — BLER parity (TestTurboI16BLERParity,
// TestI16BLERParityHighSNR), high-SNR agreement, the f32 lines of the
// golden decode digests — and BenchmarkFullDecode's float32 column. Float32
// metrics, table-driven trellis recursions, one block at a time.

// negInf stands in for a metric of −∞.
const negInf = float32(-1e30)

// Flattened trellis tables for the reference decoder's loops (the int16
// kernel hard-codes the same patterns; TestUnrolledTrellisMatchesTables):
//
//	nextD0/nextD1: successor state for input bit 0/1
//	gammaIdx0/1:   branch-metric index (d<<1 | parity) for input bit 0/1
//	predState/predGamma: the two (predecessor, metric-index) pairs per state
var (
	nextD0, nextD1       [turboStates]uint8
	gammaIdx0, gammaIdx1 [turboStates]uint8
	predState            [turboStates][2]uint8
	predGamma            [turboStates][2]uint8
)

func init() {
	var fill [turboStates]int
	for s := 0; s < turboStates; s++ {
		fb := rscFeedback[s]
		nextD0[s] = rscNext[s][fb]   // d=0 → a=fb
		nextD1[s] = rscNext[s][1^fb] // d=1 → a=1^fb
		gammaIdx0[s] = rscParityIn[s][0]
		gammaIdx1[s] = 2 | rscParityIn[s][1]
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

// floatDecoder is the float32 counterpart of TurboDecoder, with the same
// iteration structure, early stop and working-set discipline.
type floatDecoder struct {
	// Soft inputs split per constituent, each K+3 trellis steps at most.
	ls1, lp1 []float32 // systematic & parity, natural order
	ls2, lp2 []float32 // systematic (interleaved) & parity
	apri     []float32 // a-priori input to the running constituent
	ext1     []float32 // extrinsic from decoder 1 (natural order)
	ext2     []float32 // extrinsic from decoder 2 (interleaved order)
	alpha    []float32 // (steps+1)×8 forward metrics
	beta     []float32 // (steps+1)×8 backward metrics
	hard     []byte

	MaxIterations int
	EarlyCheck    func(bits []byte) bool
}

func newFloatDecoder() *floatDecoder {
	const k = MaxBlockSize
	steps := k + turboTail
	return &floatDecoder{
		ls1:           make([]float32, steps),
		lp1:           make([]float32, steps),
		ls2:           make([]float32, steps),
		lp2:           make([]float32, steps),
		apri:          make([]float32, k),
		ext1:          make([]float32, k),
		ext2:          make([]float32, k),
		alpha:         make([]float32, (steps+1)*turboStates),
		beta:          make([]float32, (steps+1)*turboStates),
		hard:          make([]byte, k),
		MaxIterations: DefaultTurboIterations,
	}
}

// Decode is TurboDecoder.Decode in float32.
func (d *floatDecoder) Decode(out []byte, ld0, ld1, ld2 []float32) (int, error) {
	return d.decode(out, ld0, ld1, ld2, 0)
}

// decode is TurboDecoder.decode in float32; the filler pins (known) are
// taken as they are.
func (d *floatDecoder) decode(out []byte, ld0, ld1, ld2 []float32, known int) (int, error) {
	k := len(out)
	q, err := NewQPPInterleaver(k)
	if err != nil {
		return 0, err
	}
	if len(ld0) != k+4 || len(ld1) != k+4 || len(ld2) != k+4 {
		return 0, fmt.Errorf("phy: decode input streams must each be K+4=%d: %w", k+4, ErrBadParameter)
	}
	hard := d.hard[:k]
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
	iters := 0
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
		iters = it + 1
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
	return iters, nil
}

// siso runs one max-log-MAP pass over a terminated constituent trellis of k
// data steps. ls/lp are systematic/parity LLRs with tail steps appended (K+3
// values); la is the a-priori LLR for the K data steps; ext the extrinsic.
//
// The recursions are destination-oriented over precomputed two-predecessor
// tables, with the four possible branch metrics (±systematic ±parity)
// computed once per step — the layout that makes this the fastest pure-Go
// inner loop we measured (see BenchmarkTurboDecodeK6144).
func (d *floatDecoder) siso(k int, ls, lp, la, ext []float32) {
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
