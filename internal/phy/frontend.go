package phy

import "time"

// frontEndBlock runs the decode front-end — demodulate, descramble, soft
// de-rate-match with HARQ combining — for code block i of the loaded
// transport block (frontEndLane), whose d0|d1|d2 soft streams are blk, in
// one fused pass, just before the block's turbo decode. It runs the
// two-phase tile pipeline (frontend_tile.go): per tile of up to feTileSyms
// symbols, phase 1 expands the block's keystream bits into plane-major
// sign words and demodulates the tile into a structure-of-arrays LLR strip
// with the descrambling XOR folded in (AVX2 assembly where available,
// bit-identical pure-Go tile kernels otherwise), and phase 2 scatters the
// finished strip through the rate matcher's compacted inverse permutation
// into the block's soft streams. Accumulation order per position is
// identical to the staged Demodulate → DescrambleLLR → SoftDematch sweeps
// that the tests keep as the reference, and every float expression matches
// them, so the soft buffer contents are bit-identical to that three-sweep
// reference (frontend_test.go). The
// block's front-end time is added to Timings.FrontEnd.
func (p *TransportProcessor) frontEndBlock(i int, blk []float32) {
	start := time.Now()
	rm := p.rm
	mod := p.sh.mcs.Modulation()
	qm := mod.BitsPerSymbol()
	off := p.sh.blockOff(i)
	e := p.sh.blockE(i)
	// blk is laid out d0|d1|d2 — exactly the flat indexing of the rate
	// matcher's scatter table, so one indexed add replaces the staged
	// per-stream switch.
	key := p.feKey
	rx := p.feRX
	invN0 := p.feInvN0
	j := rm.rvStart[p.feRV]

	// Tile working set, stack-allocated (the AVX2 kernels are
	// go:noescape): 6 planes × feTileSyms for the widest modulation.
	var strip [6 * feTileSyms]float32
	var sgn [6 * feTileSyms]uint32

	// A block's bit range [off, off+e) may start and end mid-symbol; the
	// tile loop covers the symbols and feScatter consumes only the bits the
	// block owns, so boundary symbols are demodulated (cheaply, into the
	// strip) but scattered partially.
	end := off + e
	symEnd := (end - 1) / qm
	bit := off
	for s0 := off / qm; s0 <= symEnd; s0 += feTileSyms {
		n := symEnd - s0 + 1
		if n > feTileSyms {
			n = feTileSyms
		}
		feExpandSigns(sgn[:], key, s0, n, qm, feTileSyms, p.feVec)
		feTileDemod(mod, strip[:], sgn[:], rx[s0:s0+n], n, feTileSyms, invN0, p.feVec)
		hi := (s0 + n) * qm
		if hi > end {
			hi = end
		}
		j = feScatter(blk, rm.scat, strip[:], feTileSyms, qm, bit-s0*qm, hi-s0*qm, j)
		bit = hi
	}
	if i == 0 {
		// Pin filler bits (known zeros at the head of block 0).
		for f := 0; f < p.sh.seg.F; f++ {
			blk[f] = fillerLLR
		}
	}
	p.Timings.FrontEnd += time.Since(start)
}
