package phy

import "fmt"

// spanCrossover is the narrowest span the width-8 lockstep decoder takes
// on AVX2 hosts; narrower spans decode block by block through the scalar
// TurboDecoder, whose state-parallel SISO costs the same per block whatever
// the span holds. The K × width sweep of BenchmarkBatchVsScalarI16 (µs for
// n blocks at 4 iterations: scalar one after another / lockstep in one
// pass; 2-vCPU Xeon) puts it at 5 for every K measured — level at K 208,
// 5–8 % in the lockstep pass's favour from K 1056:
//
//	K     n=1      2        3        4        5        6         8
//	208   7/34     14/34    21/34    28/35    34/34    43/34     56/34
//	1056  35/154   67/161   100/155  136/162  167/156  199/158   270/157
//	2112  67/309   133/306  200/307  266/308  333/311  410/311   533/311
//	3136  98/449   197/450  293/451  395/455  493/458  591/458   790/470
//	6144  193/889  378/896  572/898  763/891  960/909  1141/925  1541/914
//
// The pure-Go build keeps the rule the sweep of its own kernels set: only a
// lone block goes through the scalar decoder (K 2112: 2.2–2.3 ms one-lane
// lockstep against 0.6–0.8 ms scalar; K 6144: 3.4–3.7 against 2.0–3.3 ms).
const spanCrossover = 5

// spanDecoder turbo-decodes the code blocks of a decode — one or more
// transport blocks of one block size K — in spans of up to MaxJointBlocks,
// the lockstep width.
// Spans follow the transport blocks: one that fits a span never straddles
// two, and one wider than a span is split into full spans and a ragged rest
// exactly as it would be alone, so every transport block's outcome is the
// one it has decoded alone. A span of spanCrossover or more live blocks
// (two or more on the pure-Go build) goes through one BatchDecoderI16 pass;
// a narrower one decodes its live blocks one after another through the
// scalar TurboDecoder — every one of them, as the lockstep pass does, so a
// transport block's iterations do not depend on which way its span went.
// Both produce bit-identical output, and LTE code blocks are independent
// after de-rate-matching — no state crosses block boundaries until
// desegmentation — so block j's bits land in its output whatever the span.
//
// A spanDecoder has no block size: a call's K is read off its blocks and the
// working sets are sized for the largest, so one decoder (≈ 1.5 MB) serves
// every shape its owner meets. Its scalar decoder works in the lockstep
// decoder's arrays (scalarBuffers): the two never run at once, so a
// processor that meets spans of both kinds touches one working set. It
// belongs to one TransportProcessor, which builds it on its first Decode,
// and like the processor it is owned by one goroutine at a time.
type spanDecoder struct {
	dec *TurboDecoder
	bd  *BatchDecoderI16

	// The running span's live blocks, gathered for the lockstep decoder:
	// live[j] is lane j's index in the decode's codeBlocks.
	live          []int
	out           [][]byte
	ld0, ld1, ld2 [][]float32
	known         []int
	check         []func([]byte) bool

	// spans[n] counts the spans of the most recent decode that decoded n
	// code blocks together: a span decoded block by block counts as that
	// many spans of one.
	spans [MaxJointBlocks + 1]int
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

// newSpanDecoder builds the lockstep decoder, the scalar decoder over its
// arrays and the span scratch.
func newSpanDecoder() *spanDecoder {
	const w = MaxJointBlocks
	bd := newBatchDecoderI16(w)
	return &spanDecoder{
		dec:   newTurboDecoder(bd.scalarBuffers()),
		bd:    bd,
		live:  make([]int, 0, w),
		out:   make([][]byte, 0, w),
		ld0:   make([][]float32, 0, w),
		ld1:   make([][]float32, 0, w),
		ld2:   make([][]float32, 0, w),
		known: make([]int, 0, w),
		check: make([]func([]byte) bool, 0, w),
	}
}

// setMaxIterations bounds the scalar and lockstep decoders' full turbo
// iterations; n ≤ 0 restores the default budget.
func (sd *spanDecoder) setMaxIterations(n int) {
	if n <= 0 {
		n = DefaultTurboIterations
	}
	sd.dec.MaxIterations = n
	sd.bd.MaxIterations = n
}

// decode turbo-decodes every code block of cb: out[i] (all of one length K,
// a legal turbo block size) receives the hard decisions for the LLR streams
// in soft[i] (three of length K+4, the encoder's layout), check[i]
// is the block's success predicate (a CRC) its lane stops early on, and
// known[i] the leading systematic values that are LTE filler — known zeros
// pinned to fillerLLR — which the ingest keeps out of the block's gain (see
// llrGain). A block that still fails its predicate after the iteration
// budget fails its transport block (ok[t] = false), whose
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
// against, which must match the staged reference's (frontend_test.go),
// whose front-end sweeps always complete before turbo decoding starts; a
// nil prepare decodes streams the caller has already filled.
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
	sd.spans = [MaxJointBlocks + 1]int{}
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
	}
	return nil
}

// spanEnd returns the end of the span that starts at block base: the rest
// of a transport block too wide for one span, at most a span of it, or else
// base's transport block and every following one that still fits whole.
func (sd *spanDecoder) spanEnd(cb *codeBlocks, base int) int {
	end := cb.end[cb.tb[base]]
	if end-base > MaxJointBlocks {
		return base + MaxJointBlocks
	}
	for end < len(cb.out) && cb.end[cb.tb[end]]-base <= MaxJointBlocks {
		end = cb.end[cb.tb[end]]
	}
	return end
}

// decodeSpan decodes the live blocks of one span, books their iterations
// and failures to their transport blocks and counts the span in spans.
func (sd *spanDecoder) decodeSpan(cb *codeBlocks) error {
	if n := len(sd.live); n == 1 || batchAsm && n < spanCrossover {
		for _, i := range sd.live {
			t := cb.tb[i]
			sd.dec.EarlyCheck = cb.check[i]
			ld0, ld1, ld2 := cb.streams(i)
			it, err := sd.dec.decode(cb.out[i], ld0, ld1, ld2, cb.known[i])
			sd.dec.EarlyCheck = nil
			if err != nil {
				return err
			}
			cb.iters[t] += it
			cb.ok[t] = cb.ok[t] && cb.check[i](cb.out[i])
			sd.spans[1]++
		}
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
	sd.spans[len(sd.live)]++
	for j, i := range sd.live {
		t := cb.tb[i]
		cb.iters[t] += sd.bd.iters[j]
		if failed&(1<<uint(j)) != 0 {
			cb.ok[t] = false
		}
	}
	return nil
}
