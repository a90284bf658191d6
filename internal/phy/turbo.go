package phy

import (
	"encoding/binary"
	"fmt"
)

// LTE rate-1/3 turbo code (36.212 §5.1.3.2): a parallel concatenation of two
// identical 8-state recursive systematic convolutional (RSC) encoders with
// transfer function G(D) = [1, g1(D)/g0(D)], g0 = 1+D²+D³, g1 = 1+D+D³,
// joined by the QPP interleaver. Each constituent is trellis-terminated with
// 3 tail steps, giving 3K+12 output bits per K-bit block.
//
// The decoder is an iterative max-log-MAP (BCJR) pair exchanging extrinsic
// information, with optional CRC-based early termination, in the int16
// fixed-point arithmetic of turbo_i16.go. Turbo decoding is
// the dominant cost in uplink subframe processing — typically well over half
// the budget at high MCS — which is exactly the property PRAN's resource
// pooling exploits, so this implementation favours a tight, allocation-free
// inner loop over absolute generality.

const (
	turboStates = 8
	turboTail   = 3 // termination steps per constituent encoder

	// DefaultTurboIterations is the default MaxIterations budget of every
	// decoder constructor (TurboDecoder, BatchDecoderI16). The degradation
	// ladder's iteration caps are expressed relative to this.
	DefaultTurboIterations = 8
)

// rscNext[s][a] is the next register state after shifting in feedback value
// a; rscParityIn[s][d] is the parity output for *input bit* d at state s;
// rscFeedback[s] is the feedback term r2⊕r3, so a = d ⊕ rscFeedback[s].
var (
	rscNext     [turboStates][2]uint8
	rscParityIn [turboStates][2]uint8
	rscFeedback [turboStates]uint8
)

// tailNext/tailGamma are the single terminating branch per state: the
// successor and the branch-metric index (d<<1 | parity) of the tail step,
// which drives the feedback value to 0.
var tailNext, tailGamma [turboStates]uint8

// rscByteNext[s][b] and rscByteParity[s][b] are eight RSC steps from state
// s over the input bits of b, MSB first: the state after them, and their
// parity bits as eight one-bit bytes, little-endian (byte j for input bit
// j).
var (
	rscByteNext   [turboStates][256]uint8
	rscByteParity [turboStates][256]uint64
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
		// Tail step drives a=0: input bit d=fb.
		tailNext[s] = rscNext[s][0]
		tailGamma[s] = fb<<1 | rscParityIn[s][fb]
	}
	for s := uint8(0); s < turboStates; s++ {
		for b := 0; b < 256; b++ {
			st := s
			for j := 0; j < 8; j++ {
				d := uint8(b>>(7-j)) & 1
				rscByteParity[s][b] |= uint64(rscParityIn[st][d]) << (8 * j)
				st = rscNext[st][d^rscFeedback[st]]
			}
			rscByteNext[s][b] = st
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
// state 0). It steps eight input bits at a time through the rscByte tables
// (a legal K is a multiple of 8), the rest one at a time.
func runRSC(input, parity []byte, xt, zt *[turboTail]byte) {
	var s uint8
	i := 0
	for ; i+8 <= len(input); i += 8 {
		b := packBits(input[i:])
		binary.LittleEndian.PutUint64(parity[i:], rscByteParity[s][b])
		s = rscByteNext[s][b]
	}
	for ; i < len(input); i++ {
		d := input[i] & 1
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

// TurboDecoder decodes blocks of any legal size K with the int16 max-log-MAP
// kernel (turbo_i16.go; on AVX2 hosts its bit-identical state-parallel twin,
// turbo_i16_asm.go): the block size is the length of the output, the
// interleaver a process-wide plan, and all working memory is allocated at
// construction for the largest block, so a decoder's footprint does not
// depend on what it has decoded. Decode performs no heap allocation, keeping
// the data-plane hot path GC-quiet. A TurboDecoder is not safe for
// concurrent use; the data plane keeps one per worker.
type TurboDecoder struct {
	i16  *i16Buffers
	hard []byte
	// vec runs the AVX2 ingest, SISO and hard decisions; the reference
	// pipelines clear it to decode through the pure-Go sisoI16.
	vec bool

	// MaxIterations bounds full decoder iterations (default 8).
	MaxIterations int
	// EarlyCheck, when non-nil, receives the current hard decisions after
	// each full iteration; returning true stops decoding early (typically a
	// CRC check). The slice is reused across calls and must not be retained.
	EarlyCheck func(bits []byte) bool

	iterationsUsed int
}

// NewTurboDecoder returns a decoder.
func NewTurboDecoder() *TurboDecoder { return newTurboDecoder(newI16Buffers()) }

// newTurboDecoder returns a decoder working in b.
func newTurboDecoder(b *i16Buffers) *TurboDecoder {
	return &TurboDecoder{
		i16:           b,
		hard:          make([]byte, MaxBlockSize),
		vec:           batchAsm,
		MaxIterations: DefaultTurboIterations,
	}
}

// Decode consumes the three LLR streams ld0, ld1, ld2 (each length K+4,
// matching the encoder's output layout; positive ⇒ bit 0) and writes the
// decoded bits into out, whose length K must be a legal turbo block size.
// It returns the number of full iterations used. Decode does not itself
// verify a CRC; install EarlyCheck or verify the output.
func (d *TurboDecoder) Decode(out []byte, ld0, ld1, ld2 []float32) (int, error) {
	return d.decode(out, ld0, ld1, ld2, 0)
}

// decode is Decode for a block whose first known systematic values are
// known zero bits (LTE filler) that the caller has pinned to fillerLLR; the
// ingest keeps them out of its gain (llrGain). Each iteration runs both
// constituents (sisoI16, or sisoI16AVX2 under vec) and checks the sign bits
// of the a-posteriori sum.
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
	b := d.i16
	b.ingest(q, ld0, ld1, ld2, known, d.vec)
	perm, inv := q.perm[:k], q.inverse[:k]
	apri, ext1, ext2 := b.apri[:k], b.ext1[:k], b.ext2[:k]
	clear(apri)
	d.iterationsUsed = 0
	for it := 0; it < d.MaxIterations; it++ {
		if d.vec {
			sisoI16AVX2(b.ls1, b.lp1, b.apri, b.ext1, b.alpha, b.gam, b.beta, k)
		} else {
			sisoI16(b.ls1, b.lp1, b.apri, b.ext1, b.alpha, k)
		}
		for i, p := range perm {
			apri[i] = ext1[p]
		}
		if d.vec {
			sisoI16AVX2(b.ls2, b.lp2, b.apri, b.ext2, b.alpha, b.gam, b.beta, k)
		} else {
			sisoI16(b.ls2, b.lp2, b.apri, b.ext2, b.alpha, k)
		}
		// De-interleave as a gather through the inverse permutation:
		// sequential stores, where scattering ext2 through perm is not.
		for j, p := range inv {
			apri[j] = ext2[p]
		}
		d.iterationsUsed = it + 1
		// Hard decisions: the sign bit of the a-posteriori sum.
		if d.vec {
			hardI16x1(&b.ls1[0], &ext1[0], &apri[0], &hard[0], k)
		} else {
			ls1 := b.ls1[:k]
			for i := range hard {
				hard[i] = byte(uint32(int32(ls1[i])+int32(ext1[i])+int32(apri[i])) >> 31)
			}
		}
		if d.EarlyCheck != nil && d.EarlyCheck(hard) {
			break
		}
	}
	copy(out, hard)
	return d.iterationsUsed, nil
}
