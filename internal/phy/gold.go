package phy

// Gold-sequence scrambling per 3GPP TS 36.211 §7.2. LTE scrambles coded bits
// with a length-31 Gold sequence whose initialization encodes the cell ID,
// the RNTI, and the subframe number, decorrelating transmissions from
// neighbouring cells. The scrambler is its own inverse (XOR), so the same
// type serves both directions; for soft demodulation the descrambler flips
// LLR signs instead of bits.
//
// The generator is word-oriented: both length-31 LFSRs advance 32 positions
// per step using shift/XOR recurrences over the packed register, so the
// standard Nc = 1600-bit warm-up is 50 word steps and keystream production
// runs at 32 bits per iteration. The bit-at-a-time API remains (and is the
// oracle the word path is tested against).

const goldNc = 1600 // standard warm-up discard

// GoldSequence generates the 36.211 pseudo-random sequence c(n) for a given
// cinit. The zero value is not usable; construct with NewGoldSequence. Bit
// and word reads interleave freely: NextWord is exactly 32 consecutive Next
// calls.
type GoldSequence struct {
	x1, x2 uint32
}

// NewGoldSequence returns a generator initialized with cinit and advanced
// past the Nc = 1600 warm-up interval, ready to emit c(0), c(1), ...
func NewGoldSequence(cinit uint32) *GoldSequence {
	g := warmedGold(cinit)
	return &g
}

// warmedGold is the value-returning constructor the scrambler embeds so
// reinitialization does not allocate. 1600 = 50 × 32, so the warm-up is
// exactly 50 word advances.
func warmedGold(cinit uint32) GoldSequence {
	g := GoldSequence{x1: 1, x2: cinit & 0x7FFFFFFF}
	for i := 0; i < goldNc/32; i++ {
		g.NextWord()
	}
	return g
}

// step advances both LFSRs one position and returns the output bit.
func (g *GoldSequence) step() byte {
	out := byte((g.x1 ^ g.x2) & 1)
	// x1(n+31) = (x1(n+3) + x1(n)) mod 2
	x1fb := ((g.x1 >> 3) ^ g.x1) & 1
	g.x1 = (g.x1 >> 1) | (x1fb << 30)
	// x2(n+31) = (x2(n+3) + x2(n+2) + x2(n+1) + x2(n)) mod 2
	x2fb := ((g.x2 >> 3) ^ (g.x2 >> 2) ^ (g.x2 >> 1) ^ g.x2) & 1
	g.x2 = (g.x2 >> 1) | (x2fb << 30)
	return out
}

// Next returns the next sequence bit (0 or 1).
func (g *GoldSequence) Next() byte { return g.step() }

// NextWord returns the next 32 sequence bits packed LSB-first (bit i of the
// result is c(n+i)) and advances the generator 32 positions. The register
// holds x(n..n+30) in bits 0..30; each recurrence application extends the
// known prefix by feedback-distance bits (28 = 31−3, the smallest tap gap),
// so two applications cover the 63 bits needed for both the output word and
// the post-advance state.
func (g *GoldSequence) NextWord() uint32 {
	// x1(m+31) = x1(m+3) ^ x1(m): extend bits 31..58, then 59..62.
	v1 := uint64(g.x1)
	v1 |= (((v1 >> 3) ^ v1) & 0x0FFFFFFF) << 31
	v1 |= (((v1 >> 31) ^ (v1 >> 28)) & 0xF) << 59
	// x2(m+31) = x2(m+3) ^ x2(m+2) ^ x2(m+1) ^ x2(m): same two-stage extend.
	v2 := uint64(g.x2)
	v2 |= (((v2 >> 3) ^ (v2 >> 2) ^ (v2 >> 1) ^ v2) & 0x0FFFFFFF) << 31
	v2 |= (((v2 >> 31) ^ (v2 >> 30) ^ (v2 >> 29) ^ (v2 >> 28)) & 0xF) << 59
	g.x1 = uint32(v1>>32) & 0x7FFFFFFF
	g.x2 = uint32(v2>>32) & 0x7FFFFFFF
	return uint32(v1) ^ uint32(v2)
}

// ScramblerInit derives cinit per 36.211 §6.3.1 for PDSCH/PUSCH:
// cinit = rnti·2^14 + q·2^13 + floor(ns/2)·2^9 + cellID, with codeword q=0.
func ScramblerInit(rnti uint16, cellID uint16, subframe uint8) uint32 {
	return uint32(rnti)<<14 | uint32(subframe&0xF)<<9 | uint32(cellID)&0x1FF
}

// Scrambler XORs a bit stream with a Gold sequence. The keystream is kept
// packed 32 bits per word, the generator state persists between calls, and
// growing the requested length extends the keystream incrementally from
// where the last call stopped — only Reinit with a *new* cinit regenerates
// (and even that is just the 50-word warm-up). The word buffer is reused
// across calls and across Reinit, so steady-state scrambling does not
// allocate — one Scrambler per transport processor serves every subframe.
type Scrambler struct {
	cinit uint32
	gen   GoldSequence // positioned at sequence offset `valid`
	words []uint32     // keystream bits, packed LSB-first
	valid int          // keystream bits currently valid for cinit (multiple of 32)
}

// NewScrambler returns a scrambler for the given initialization value.
func NewScrambler(cinit uint32) *Scrambler {
	return &Scrambler{cinit: cinit, gen: warmedGold(cinit)}
}

// Reinit switches the scrambler to a new initialization value, retaining
// the keystream buffer. Subsequent calls regenerate lazily; Reinit to the
// current cinit keeps the cached keystream valid.
func (s *Scrambler) Reinit(cinit uint32) {
	if s.cinit != cinit {
		s.cinit = cinit
		s.gen = warmedGold(cinit)
		s.valid = 0
	}
}

// ensureKey extends the keystream to cover n bits plus one guard word.
// Growth is incremental: the persisted generator state continues from bit
// `valid` instead of re-running the warm-up and the already-generated
// prefix. The guard word past the last requested bit lets the fused
// front-end assemble any 6-bit symbol window with a single two-word load
// (key[i] | key[i+1]<<32) without an end-of-stream branch.
func (s *Scrambler) ensureKey(n int) {
	if s.valid >= n+32 {
		return
	}
	need := (n+31)/32 + 1
	if cap(s.words) < need {
		grown := make([]uint32, need)
		copy(grown, s.words)
		s.words = grown
	} else {
		s.words = s.words[:need]
	}
	for w := s.valid / 32; w < need; w++ {
		s.words[w] = s.gen.NextWord()
	}
	s.valid = need * 32
}

// KeyWords returns the keystream covering at least n bits, packed LSB-first
// (bit i of the stream is word i/32, bit i%32). The returned slice aliases
// the scrambler's buffer and is valid until the next Reinit with a new
// cinit; the fused decode front-end reads it directly.
func (s *Scrambler) KeyWords(n int) []uint32 {
	s.ensureKey(n)
	return s.words
}

// Scramble XORs bits in place with the keystream starting at position 0.
func (s *Scrambler) Scramble(bits []byte) {
	s.ensureKey(len(bits))
	for i := range bits {
		bits[i] ^= byte(s.words[i>>5]>>(uint(i)&31)) & 1
	}
}
