package phy

import "fmt"

// loneLaneMinK is the smallest turbo block size at which a lone code block
// (a span of one) decodes faster as a one-lane pass of the width-8 AVX2
// lockstep decoder than through the scalar decoder. The K sweep of
// BenchmarkBatchVsScalarI16 (K<k>/lanes1 against K<k>/scalar, 4
// iterations, two runs of 3 on a 2-vCPU Xeon) pins it: at K 208 the two are
// level within the host's noise (one-lane 71–78 µs, scalar 56–122 µs); from
// K 1056 the one-lane pass wins (313–486 against 351–610 µs; K 2112
// 585–934 against 707–1238 µs; K 6144 1.63–1.92 against 2.15–3.18 ms).
const loneLaneMinK = 1056

// spanDecoder turbo-decodes the code blocks of a decode — one or more
// transport blocks of one block size K — in spans of the lockstep width.
// Spans follow the transport blocks: one that fits a span never straddles
// two, and one wider than a span is split into full spans and a ragged rest
// exactly as it would be alone, so every transport block's outcome is the
// one it has decoded alone. A span of two or more live blocks goes through
// one BatchDecoderI16 pass. A lone block goes through that decoder too when
// its width-8 AVX2 path is available and K ≥ loneLaneMinK, and through the
// scalar TurboDecoder otherwise: every block at width 1, a block of small K,
// and any lone block of the pure-Go build, where the one-lane pass is the
// slower (K 2112: 2.2–2.3 against 0.6–0.8 ms; K 6144: 3.4–3.7 against
// 2.0–3.3 ms). Both produce
// bit-identical output, and LTE code blocks are independent after
// de-rate-matching — no state crosses block boundaries until
// desegmentation — so block j's bits land in its output whatever the span.
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

	// The running span's live blocks, gathered for the lockstep decoder:
	// live[j] is lane j's index in the decode's codeBlocks.
	live          []int
	out           [][]byte
	ld0, ld1, ld2 [][]float32
	known         []int
	check         []func([]byte) bool

	// spans[n] counts the spans of the most recent decode that decoded n
	// code blocks together.
	spans [maxProfileWidth + 1]int
}

// codeBlocks is a decode's code blocks, transport block after transport
// block: per block its decoded-bit output, its soft streams (the block's
// d0|d1|d2 region of a soft buffer, see streams), its leading LTE filler
// count, its early-stop predicate and its transport block; per transport
// block the end of its blocks and, after the decode, its turbo iterations
// and whether every decoded block passed its predicate.
type codeBlocks struct {
	out   [][]byte
	soft  [][]float32
	known []int
	check []func([]byte) bool
	tb    []int

	end   []int
	iters []int
	ok    []bool
}

// newCodeBlocks returns a codeBlocks with room for lanes code blocks of up
// to tbs transport blocks.
func newCodeBlocks(lanes, tbs int) codeBlocks {
	return codeBlocks{
		out:   make([][]byte, 0, lanes),
		soft:  make([][]float32, 0, lanes),
		known: make([]int, 0, lanes),
		check: make([]func([]byte) bool, 0, lanes),
		tb:    make([]int, 0, lanes),
		end:   make([]int, 0, tbs),
		iters: make([]int, 0, tbs),
		ok:    make([]bool, 0, tbs),
	}
}

// reset empties cb, dropping its references to the blocks' memory.
func (cb *codeBlocks) reset() {
	clear(cb.out)
	clear(cb.soft)
	cb.out, cb.soft = cb.out[:0], cb.soft[:0]
	cb.known, cb.check, cb.tb = cb.known[:0], cb.check[:0], cb.tb[:0]
	cb.end, cb.iters, cb.ok = cb.end[:0], cb.iters[:0], cb.ok[:0]
}

// streams returns block i's three K+4 soft streams, the encoder's d0, d1
// and d2.
func (cb *codeBlocks) streams(i int) (ld0, ld1, ld2 []float32) {
	d := len(cb.out[i]) + 4
	s := cb.soft[i]
	return s[:d:d], s[d : 2*d : 2*d], s[2*d : 3*d : 3*d]
}

// newSpanDecoder builds the decoders of a profile: its Kernel and lockstep
// Width are read, the front-end fields are the processor's business.
func newSpanDecoder(p DecodeProfile) (*spanDecoder, error) {
	w := p.Width()
	sd := &spanDecoder{
		width: w,
		dec:   newTurboDecoder(p.Kernel),
		live:  make([]int, 0, w),
		out:   make([][]byte, 0, w),
		ld0:   make([][]float32, 0, w),
		ld1:   make([][]float32, 0, w),
		ld2:   make([][]float32, 0, w),
		known: make([]int, 0, w),
		check: make([]func([]byte) bool, 0, w),
	}
	if w > 1 {
		bd, err := NewBatchDecoderI16(w)
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

// decode turbo-decodes every code block of cb: out[i] (all of one length K,
// a legal turbo block size) receives the hard decisions for the LLR streams
// in soft[i] (three of length K+4, the encoder's layout), check[i]
// is the block's success predicate (a CRC) its lane stops early on, and
// known[i] the leading systematic values that are LTE filler — known zeros
// pinned to fillerLLR — which the int16 kernel keeps out of the block's
// ingest gain (see llrGain). A block that still fails its predicate after
// the iteration budget fails its transport block (ok[t] = false), whose
// blocks in later spans are then not decoded: a transport block with a
// failed code block can never pass the TB CRC. iters[t] sums the iterations
// of transport block t's blocks.
//
// prepare, when non-nil, is a per-block preparation hook, called for each
// block of a span before the span decodes: the fused decode front-end, which
// fills the block's soft streams. It must not fail; any validation belongs
// to the caller before the call. prepare runs for every block even after a
// failure ends its transport block's decoding, because its side effect is
// soft-buffer accumulation — HARQ state the next retransmission combines
// against, which must match the staged pipeline's, whose front-end sweeps
// always complete before turbo decoding starts.
func (sd *spanDecoder) decode(cb *codeBlocks, prepare func(int)) error {
	c := len(cb.out)
	if len(cb.soft) != c || len(cb.known) != c || len(cb.check) != c || len(cb.tb) != c {
		return fmt.Errorf("phy: %d blocks but %d soft regions, %d known-bit counts: %w",
			c, len(cb.soft), len(cb.known), ErrBadParameter)
	}
	for i, s := range cb.soft {
		if len(s) != 3*(len(cb.out[i])+4) {
			return fmt.Errorf("phy: block %d of %d bits has %d soft values: %w", i, len(cb.out[i]), len(s), ErrBadParameter)
		}
	}
	sd.spans = [maxProfileWidth + 1]int{}
	for base := 0; base < c; {
		end := sd.spanEnd(cb, base)
		if prepare != nil {
			for i := base; i < end; i++ {
				prepare(i)
			}
		}
		sd.live = sd.live[:0]
		for i := base; i < end; i++ {
			if cb.ok[cb.tb[i]] {
				sd.live = append(sd.live, i)
			}
		}
		base = end
		if len(sd.live) == 0 {
			continue
		}
		if err := sd.decodeSpan(cb); err != nil {
			return err
		}
		sd.spans[len(sd.live)]++
	}
	return nil
}

// spanEnd returns the end of the span that starts at block base: the rest
// of a transport block too wide for one span, at most a span of it, or else
// base's transport block and every following one that still fits whole.
func (sd *spanDecoder) spanEnd(cb *codeBlocks, base int) int {
	end := cb.end[cb.tb[base]]
	if end-base > sd.width {
		return base + sd.width
	}
	for end < len(cb.out) && cb.end[cb.tb[end]]-base <= sd.width {
		end = cb.end[cb.tb[end]]
	}
	return end
}

// decodeSpan decodes the live blocks of one span and books their
// iterations and failures to their transport blocks.
func (sd *spanDecoder) decodeSpan(cb *codeBlocks) error {
	if i := sd.live[0]; len(sd.live) == 1 && !(batchAsm && sd.width == 8 && len(cb.out[i]) >= loneLaneMinK) {
		sd.dec.EarlyCheck = cb.check[i]
		ld0, ld1, ld2 := cb.streams(i)
		it, err := sd.dec.decode(cb.out[i], ld0, ld1, ld2, cb.known[i])
		sd.dec.EarlyCheck = nil
		if err != nil {
			return err
		}
		t := cb.tb[i]
		cb.iters[t] += it
		cb.ok[t] = cb.ok[t] && cb.check[i](cb.out[i])
		return nil
	}
	sd.out, sd.known, sd.check = sd.out[:0], sd.known[:0], sd.check[:0]
	sd.ld0, sd.ld1, sd.ld2 = sd.ld0[:0], sd.ld1[:0], sd.ld2[:0]
	for _, i := range sd.live {
		ld0, ld1, ld2 := cb.streams(i)
		sd.out = append(sd.out, cb.out[i])
		sd.ld0 = append(sd.ld0, ld0)
		sd.ld1 = append(sd.ld1, ld1)
		sd.ld2 = append(sd.ld2, ld2)
		sd.known = append(sd.known, cb.known[i])
		sd.check = append(sd.check, cb.check[i])
	}
	failed, err := sd.bd.decode(sd.out, sd.ld0, sd.ld1, sd.ld2, sd.known, sd.check)
	clear(sd.out)
	clear(sd.ld0)
	clear(sd.ld1)
	clear(sd.ld2)
	if err != nil {
		return err
	}
	for j, i := range sd.live {
		t := cb.tb[i]
		cb.iters[t] += sd.bd.iters[j]
		if failed&(1<<uint(j)) != 0 {
			cb.ok[t] = false
		}
	}
	return nil
}
