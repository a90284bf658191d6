package phy

import "fmt"

// spanDecoder turbo-decodes the code blocks of one transport block in spans
// of the lockstep width: a span of two or more blocks goes through one
// BatchDecoderI16 pass, a lone block (every block at width 1, the odd block
// out of a ragged span, a single-block transport block) through the scalar
// TurboDecoder. On an AVX2 host the scalar decoder is not the faster of the
// two: BenchmarkBatchVsScalarI16 (K 6144, 4 iterations, 2-vCPU Xeon) reads
// 1.7–2.1 ms for a one-lane pass of the width-8 decoder (w8lanes1) against
// 1.9–3.4 ms scalar; under the purego tag the one-lane pass is the slower,
// 5.9 against 3.1 ms. Both produce bit-identical output, and LTE code
// blocks are independent after de-rate-matching — no state crosses block
// boundaries until desegmentation — so block j's bits land in blocks[j]
// whatever the width.
//
// A spanDecoder has no block size: a call's K is read off its blocks and the
// working sets are sized for the largest, so one decoder (≈ 1.7 MB on the
// default path) serves every shape its owner meets. It belongs to one
// TransportProcessor, which builds it on its first Decode, and like the
// processor it is owned by one goroutine at a time.
type spanDecoder struct {
	width int
	dec   *TurboDecoder
	bd    *BatchDecoderI16 // nil unless width ≥ 2

	// spans[n] counts the spans of the most recent decode that decoded n
	// code blocks together.
	spans [maxProfileWidth + 1]int
}

// newSpanDecoder builds the decoders of a profile: its Kernel and lockstep
// Width are read, the front-end fields are the processor's business.
func newSpanDecoder(p DecodeProfile) (*spanDecoder, error) {
	sd := &spanDecoder{width: p.Width(), dec: newTurboDecoder(p.Kernel)}
	if sd.width > 1 {
		bd, err := NewBatchDecoderI16(sd.width)
		if err != nil {
			return nil, err
		}
		sd.bd = bd
	}
	return sd, nil
}

// setMaxIterations bounds the scalar and lockstep decoders' full turbo
// iterations; n ≤ 0 restores the default budget.
func (sd *spanDecoder) setMaxIterations(n int) {
	if n <= 0 {
		n = DefaultTurboIterations
	}
	sd.dec.MaxIterations = n
	if sd.bd != nil {
		sd.bd.MaxIterations = n
	}
}

// decode turbo-decodes every code block: blocks[i] (all of one length K, a
// legal turbo block size) receives the hard decisions for the LLR streams
// ld0[i], ld1[i], ld2[i] (each length K+4, the encoder's layout). check,
// when non-nil, is the per-block success predicate (a CRC) each lane and the
// scalar decoder stop early on; a block that still fails it after the
// iteration budget fails the transport block, and the spans after its own
// are not decoded — a transport block with a failed code block can never
// pass the TB CRC. decode returns the total iterations consumed and
// ok=false if any decoded block failed check.
//
// known, when non-nil, gives for each block the number of leading
// systematic values that are LTE filler — known zeros the caller (or
// prepare) pins to fillerLLR — which the int16 kernel keeps out of the
// block's ingest gain (see llrGain).
//
// prepare, when non-nil, is a per-block preparation hook, called for each
// block of a span before the span decodes: the fused decode front-end, which
// fills the block's soft streams. It must not fail; any validation belongs
// to the caller before the call. prepare runs for every block even after a
// failure ends the decoding, because its side effect is soft-buffer
// accumulation — HARQ state the next retransmission combines against, which
// must match the staged pipeline's, whose front-end sweeps always complete
// before turbo decoding starts.
func (sd *spanDecoder) decode(blocks [][]byte, ld0, ld1, ld2 [][]float32, known []int, check func([]byte) bool, prepare func(int)) (int, bool, error) {
	c := len(blocks)
	if len(ld0) != c || len(ld1) != c || len(ld2) != c {
		return 0, false, fmt.Errorf("phy: %d blocks but %d/%d/%d LLR streams: %w",
			c, len(ld0), len(ld1), len(ld2), ErrBadParameter)
	}
	if known != nil && len(known) != c {
		return 0, false, fmt.Errorf("phy: %d blocks but %d known-bit counts: %w", c, len(known), ErrBadParameter)
	}
	sd.dec.EarlyCheck = check
	sd.spans = [maxProfileWidth + 1]int{}
	iters, ok := 0, true
	for base := 0; base < c; base += sd.width {
		end := min(base+sd.width, c)
		if prepare != nil {
			for i := base; i < end; i++ {
				prepare(i)
			}
		}
		if !ok {
			continue
		}
		n := end - base
		if n >= 2 {
			var kn []int
			if known != nil {
				kn = known[base:end]
			}
			it, failed, err := sd.bd.Decode(blocks[base:end], ld0[base:end], ld1[base:end], ld2[base:end], kn, check)
			if err != nil {
				return iters, false, err
			}
			iters += it
			ok = failed == 0
		} else {
			kn := 0
			if known != nil {
				kn = known[base]
			}
			it, err := sd.dec.decode(blocks[base], ld0[base], ld1[base], ld2[base], kn)
			if err != nil {
				return iters, false, err
			}
			iters += it
			ok = check == nil || check(blocks[base])
		}
		sd.spans[n]++
	}
	return iters, ok, nil
}
