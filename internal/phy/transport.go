package phy

import (
	"encoding/binary"
	"fmt"
	"math"
	"slices"
	"time"
)

// TransportProcessor runs the full LTE shared-channel bit chain for
// transport blocks of any (MCS, PRB-count) configuration up to the PRB count
// it was built for:
//
//	encode: payload → TB CRC → segmentation → turbo encode → rate match →
//	        scramble → modulate
//	decode: LLR demodulate → descramble → soft de-rate-match (with HARQ
//	        combining) → turbo decode (CRC early stop) → desegment → TB CRC
//
// A processor owns scratch only. The plans of a turbo block size K — QPP
// interleaver, rate-match index tables — are process-wide and read-only
// (NewQPPInterleaver, NewRateMatcher), and what a (MCS, PRB) configuration
// fixes is derived per call (tbShape). Scratch is sized once for the owner's
// largest transport block (MaxMCS at the construction PRB count) and a call
// uses the leading part of it: the encode side at construction, the decode
// side and the turbo decoder's working set by the first Decode, so an
// encode-only owner (the RRH emulator, the downlink path) never carries
// them. A processor's memory and the cost of its first Encode or Decode of
// a never-seen shape do not depend on what it has processed, and processing
// performs no heap allocation — the property that keeps Go's GC out of the
// PHY deadline path (DESIGN.md §2).
//
// A TransportProcessor is not safe for concurrent use and starts no
// goroutines: every stage of Decode, turbo decoding included, runs on the
// calling goroutine. The data plane keeps one per pool worker. See
// docs/concurrency.md for the end-to-end threading model.
type TransportProcessor struct {
	top  tbShape // the largest shape: MaxMCS at the construction PRB count
	prof DecodeProfile

	enc     *TurboEncoder
	dec     *spanDecoder // the turbo decoder, built by the first Decode
	maxIter int          // turbo iteration bound applied to the decoder per Decode (0 = default)
	scr     *Scrambler

	// The running call's configuration and its K's rate-match plan.
	sh tbShape
	rm *RateMatcher

	// Fused front-end per-call state, written before the per-block
	// front-ends run (see frontEndBlock).
	fe      func(int) // p.frontEndBlock, bound once so installing it never allocates
	feRX    []complex128
	feKey   []uint32
	feSB    *SoftBuffer
	feRV    int
	feInvN0 float64
	feVec   bool // AVX2 tile demodulation (fixed at construction)

	// Working storage, sized for the largest transport block.
	tbBits   []byte // payload + TB CRC (B bits)
	blockBuf []byte // one code block (K bits)
	d0       []byte // turbo output streams (K+4)
	d1       []byte
	d2       []byte
	coded    []byte       // rate-matched coded bits (E)
	symbols  []complex128 // modulated symbols
	// Decode side, built by the first Decode (initDecode).
	llr     []float32   // demodulated LLRs (E); staged front-end only
	softBuf *SoftBuffer // default soft buffer when the caller passes nil
	blocks  [][]byte    // per-block decoded bit slices of the running call
	blockbk []byte      // backing array for blocks
	known   []int       // per code block, the leading filler bits: {F, 0, 0, …}
	joined  []byte      // reassembled B bits

	// Timings records the stage breakdown of the most recent Encode/Decode.
	Timings StageTimings
}

// tbShape is what a transport block's (MCS, PRB) configuration fixes: cheap
// enough (arithmetic and one binary search) that every call derives its own.
type tbShape struct {
	mcs  MCS
	nprb int
	tbs  int // payload bits
	e    int // total coded bits
	seg  Segmentation
}

func shapeOf(mcs MCS, nprb int) (tbShape, error) {
	tbs, err := mcs.TransportBlockSize(nprb)
	if err != nil {
		return tbShape{}, err
	}
	seg, err := Segment(tbs + 24)
	if err != nil {
		return tbShape{}, err
	}
	return tbShape{mcs: mcs, nprb: nprb, tbs: tbs, e: mcs.CodedBits(nprb), seg: seg}, nil
}

// numSymbols returns the number of constellation symbols per TB.
func (s tbShape) numSymbols() int { return s.e / s.mcs.Modulation().BitsPerSymbol() }

// blockE returns the coded-bit share of block i.
func (s tbShape) blockE(i int) int {
	if i < s.e%s.seg.C {
		return s.e/s.seg.C + 1
	}
	return s.e / s.seg.C
}

// checkSoftBuffer reports whether a caller's soft buffer is laid out for
// this shape.
func (s tbShape) checkSoftBuffer(sb *SoftBuffer) error {
	if sb.Blocks() != s.seg.C || sb.StreamLen() != s.seg.K+4 {
		return fmt.Errorf("phy: soft buffer shape %d×%d, want %d×%d: %w",
			sb.Blocks(), sb.StreamLen(), s.seg.C, s.seg.K+4, ErrBadParameter)
	}
	return nil
}

// blockOff returns the starting coded-bit offset of block i.
func (s tbShape) blockOff(i int) int {
	return i*(s.e/s.seg.C) + min(i, s.e%s.seg.C)
}

// StageTimings is the per-stage wall-clock breakdown of one subframe's
// processing, used by experiment E2 and by the cluster cost-model
// calibration.
type StageTimings struct {
	Modulate    time.Duration // encode: modulation (+scrambling)
	EncodeChain time.Duration // encode: CRC+segmentation+turbo+rate match
	Demodulate  time.Duration // decode: LLR computation (staged front-end)
	Descramble  time.Duration // (staged front-end)
	Dematch     time.Duration // soft de-rate-matching (staged front-end)
	// FrontEnd is the fused single-pass demod+descramble+dematch time; it
	// replaces the three staged fields above when the processor runs
	// FrontEndFused. The per-block front-ends run as the turbo decoder's
	// prepare hook, timed block by block and subtracted from the decode
	// region.
	FrontEnd    time.Duration
	TurboDecode time.Duration
	CRCCheck    time.Duration // desegmentation + CRC verification
	// TurboIterations is the total turbo iterations across code blocks.
	TurboIterations int
	// Spans counts the turbo stage's spans by width: Spans[n] is the number
	// of spans that decoded n code blocks together, n = 1 being a scalar
	// decode. Spans narrower than the profile's lockstep width are ragged.
	Spans [maxProfileWidth + 1]int
}

// Total returns the decode-side total (the HARQ-deadline-relevant part).
func (t StageTimings) Total() time.Duration {
	return t.Demodulate + t.Descramble + t.Dematch + t.FrontEnd + t.TurboDecode + t.CRCCheck
}

// SoftBuffer holds per-code-block accumulated LLRs across HARQ
// retransmissions of one transport block. All streams share one contiguous
// backing array laid out in the migration wire order — block-major, each
// block's d0|d1|d2 streams back to back — so Reset is a single clear and
// serialization is a single linear pass.
type SoftBuffer struct {
	back          []float32   // contiguous backing, wire order
	ld0, ld1, ld2 [][]float32 // per-block stream views into back
}

// NewSoftBuffer allocates a soft buffer for the transport blocks of the
// given configuration — C code blocks of three K+4 streams, from the
// segmentation alone — for callers (the HARQ manager) that hold soft state
// without ever owning a processor.
func NewSoftBuffer(mcs MCS, nprb int) (*SoftBuffer, error) {
	sb := &SoftBuffer{}
	if err := sb.Reshape(mcs, nprb); err != nil {
		return nil, err
	}
	return sb, nil
}

// Reshape lays sb out for the transport blocks of the given configuration
// and zeroes it — the buffer NewSoftBuffer would return, in sb's own storage
// when that is large enough (a HARQ process whose allocation changes shape
// keeps one backing array). On error sb is untouched.
func (sb *SoftBuffer) Reshape(mcs MCS, nprb int) error {
	sh, err := shapeOf(mcs, nprb)
	if err != nil {
		return err
	}
	sb.reshape(sh.seg.C, sh.seg.K+4)
	return nil
}

// reshape lays the buffer out as c code blocks of three d-long streams, all
// zero, reusing the backing array and the view slices when they are large
// enough.
func (sb *SoftBuffer) reshape(c, d int) {
	if n := c * 3 * d; cap(sb.back) < n {
		sb.back = make([]float32, n)
	} else {
		sb.back = sb.back[:n]
		clear(sb.back)
	}
	sb.ld0, sb.ld1, sb.ld2 = sb.ld0[:0], sb.ld1[:0], sb.ld2[:0]
	for i := 0; i < c; i++ {
		base := i * 3 * d
		sb.ld0 = append(sb.ld0, sb.back[base:base+d:base+d])
		sb.ld1 = append(sb.ld1, sb.back[base+d:base+2*d:base+2*d])
		sb.ld2 = append(sb.ld2, sb.back[base+2*d:base+3*d:base+3*d])
	}
}

// Reset zeroes the accumulated LLRs for a fresh transport block.
func (sb *SoftBuffer) Reset() {
	clear(sb.back)
}

// Blocks returns the number of code blocks the buffer covers.
func (sb *SoftBuffer) Blocks() int { return len(sb.ld0) }

// StreamLen returns the per-stream length (K+4), or 0 for an empty buffer.
func (sb *SoftBuffer) StreamLen() int {
	if len(sb.ld0) == 0 {
		return 0
	}
	return len(sb.ld0[0])
}

// MarshalAppend serializes the accumulated LLRs (little-endian float32,
// streams d0|d1|d2 per block) onto dst — the migration wire format PRAN
// ships when a cell moves between servers. The backing array is laid out in
// wire order, so this is one linear pass; the byte format is unchanged from
// the nested per-stream marshaller it replaced (round-trip- and
// golden-tested).
func (sb *SoftBuffer) MarshalAppend(dst []byte) []byte {
	dst = slices.Grow(dst, len(sb.back)*4)
	for _, v := range sb.back {
		dst = binary.LittleEndian.AppendUint32(dst, math.Float32bits(v))
	}
	return dst
}

// MarshalledSize returns the byte length MarshalAppend produces.
func (sb *SoftBuffer) MarshalledSize() int {
	return len(sb.back) * 4
}

// Unmarshal restores LLRs serialized by MarshalAppend into this buffer
// (which must have the same shape) and returns the bytes consumed.
func (sb *SoftBuffer) Unmarshal(src []byte) (int, error) {
	need := sb.MarshalledSize()
	if len(src) < need {
		return 0, fmt.Errorf("phy: soft buffer needs %d bytes, have %d: %w", need, len(src), ErrTooShort)
	}
	for j := range sb.back {
		sb.back[j] = math.Float32frombits(binary.LittleEndian.Uint32(src[j*4:]))
	}
	return need, nil
}

// NewTransportProcessor builds a processor for transport blocks of up to
// maxPRB resource blocks that runs the given decode profile.
func NewTransportProcessor(maxPRB int, prof DecodeProfile) (*TransportProcessor, error) {
	if err := prof.Validate(); err != nil {
		return nil, err
	}
	// MaxMCS has the largest payload and, being 64-QAM, the most coded bits.
	top, err := shapeOf(MaxMCS, maxPRB)
	if err != nil {
		return nil, err
	}
	p := &TransportProcessor{
		top:      top,
		prof:     prof,
		feVec:    FrontEndAVX2() && !prof.NoVectorFrontEnd,
		enc:      NewTurboEncoder(),
		scr:      NewScrambler(0),
		tbBits:   make([]byte, top.seg.B),
		blockBuf: make([]byte, MaxBlockSize),
		d0:       make([]byte, MaxBlockSize+4),
		d1:       make([]byte, MaxBlockSize+4),
		d2:       make([]byte, MaxBlockSize+4),
		coded:    make([]byte, 0, top.e),
		symbols:  make([]complex128, 0, maxPRB*DataREsPerPRB),
	}
	// Cover the longest keystream now, so no later call grows it.
	p.scr.KeyWords(top.e)
	// Bound once: installing the hook per call allocates nothing.
	p.fe = p.frontEndBlock
	return p, nil
}

// initDecode allocates the decode side for the largest transport block. K
// is the smallest legal size ≥ ⌈B′/C⌉ and legal sizes are at most 64 apart,
// so C·K < B + 88·C for every segmentation; B and C peak at the top shape.
func (p *TransportProcessor) initDecode() {
	b, c := p.top.seg.B, p.top.seg.C
	p.blockbk = make([]byte, b+88*c)
	p.blocks = make([][]byte, 0, c)
	p.known = make([]int, c)
	p.joined = make([]byte, b)
	p.softBuf = &SoftBuffer{}
	p.softBuf.reshape(c, b/c+93) // C·(K+4) < B + 92·C values, C views
	if p.prof.FrontEnd == FrontEndStaged {
		p.llr = make([]float32, 0, p.top.e)
	}
}

// setShape makes (mcs, nprb) the running call's configuration: its shape
// and its block size's rate-match plan.
func (p *TransportProcessor) setShape(mcs MCS, nprb int) error {
	if nprb > p.top.nprb {
		return fmt.Errorf("phy: %d PRB on a processor built for %d: %w", nprb, p.top.nprb, ErrBadParameter)
	}
	sh, err := shapeOf(mcs, nprb)
	if err != nil {
		return err
	}
	rm, err := NewRateMatcher(sh.seg.K)
	if err != nil {
		return err
	}
	p.sh, p.rm = sh, rm
	return nil
}

// setDecodeShape is setShape for a decode: it also lays the per-block views
// and filler counts of the decode side out for the shape.
func (p *TransportProcessor) setDecodeShape(mcs MCS, nprb int) error {
	if err := p.setShape(mcs, nprb); err != nil {
		return err
	}
	if p.blockbk == nil {
		p.initDecode()
	}
	c, k := p.sh.seg.C, p.sh.seg.K
	p.blocks = p.blocks[:c]
	for i := range p.blocks {
		p.blocks[i] = p.blockbk[i*k : (i+1)*k : (i+1)*k]
	}
	p.known = p.known[:c]
	p.known[0] = p.sh.seg.F
	return nil
}

// Profile returns the decode profile the processor was built with.
func (p *TransportProcessor) Profile() DecodeProfile { return p.prof }

// decoder returns the processor's turbo decoder, building it and its
// working sets on the first request.
func (p *TransportProcessor) decoder() (*spanDecoder, error) {
	if p.dec == nil {
		sd, err := newSpanDecoder(p.prof)
		if err != nil {
			return nil, err
		}
		p.dec = sd
	}
	return p.dec, nil
}

// SetMaxIterations bounds the turbo decoders' full iterations for subsequent
// Decode calls (n ≤ 0 restores the default budget) — the degradation
// ladder's iteration-cap knob, applied to the decoder at each Decode. Like
// Decode, only the owning goroutine may call this, between decode calls.
func (p *TransportProcessor) SetMaxIterations(n int) {
	if n <= 0 {
		n = DefaultTurboIterations
	}
	p.maxIter = n
}

// MaxIterations returns the current turbo iteration bound.
func (p *TransportProcessor) MaxIterations() int {
	if p.maxIter == 0 {
		return DefaultTurboIterations
	}
	return p.maxIter
}

// checkBlockCRC24B reports whether a decoded code block passes its CRC-24B —
// the per-block early-termination predicate when a TB segments into several
// blocks. Package-level (not a closure) so installing it allocates nothing.
func checkBlockCRC24B(bits []byte) bool {
	_, ok := CheckCRC24B(bits)
	return ok
}

// checkBlockCRC24A is the single-block predicate: the whole TB (with its
// CRC-24A) is one code block.
func checkBlockCRC24A(bits []byte) bool {
	_, ok := CheckCRC24A(bits)
	return ok
}

// Encode turns payload (exactly the configuration's transport block size in
// bits, one bit per byte) into constellation symbols for nprb resource
// blocks at mcs. The returned slice is owned by the processor and valid
// until the next Encode call. rv selects the HARQ redundancy version (0 on
// first transmission).
func (p *TransportProcessor) Encode(mcs MCS, nprb int, payload []byte, rnti uint16, cellID uint16, subframe uint8, rv int) ([]complex128, error) {
	if err := p.setShape(mcs, nprb); err != nil {
		return nil, err
	}
	sh := p.sh
	if len(payload) != sh.tbs {
		return nil, fmt.Errorf("phy: payload %d bits, want TBS=%d: %w", len(payload), sh.tbs, ErrBadParameter)
	}
	start := time.Now()
	// TB CRC.
	tbBits := p.tbBits[:sh.seg.B]
	copy(tbBits, payload)
	c := CRC24A(payload)
	for j := 0; j < 24; j++ {
		tbBits[sh.tbs+j] = byte((c >> uint(23-j)) & 1)
	}
	// Segment, turbo-encode, and rate-match each block.
	k := sh.seg.K
	blockBuf, d0, d1, d2 := p.blockBuf[:k], p.d0[:k+4], p.d1[:k+4], p.d2[:k+4]
	p.coded = p.coded[:0]
	for i := 0; i < sh.seg.C; i++ {
		if err := sh.seg.Split(blockBuf, tbBits, i); err != nil {
			return nil, err
		}
		if err := p.enc.Encode(d0, d1, d2, blockBuf); err != nil {
			return nil, err
		}
		var err error
		p.coded, err = p.rm.Match(p.coded, d0, d1, d2, sh.blockE(i), rv)
		if err != nil {
			return nil, err
		}
	}
	p.Timings.EncodeChain = time.Since(start)

	start = time.Now()
	// Scramble and modulate.
	p.scr.Reinit(ScramblerInit(rnti, cellID, subframe))
	p.scr.Scramble(p.coded)
	p.symbols = p.symbols[:0]
	var err error
	p.symbols, err = Modulate(p.symbols, p.coded, mcs.Modulation())
	if err != nil {
		return nil, err
	}
	p.Timings.Modulate = time.Since(start)
	return p.symbols, nil
}

// fillerLLR pins filler bits (known zeros at the head of block 0) to a
// strong bit-0 likelihood before turbo decoding; the decoders are also told
// how many there are (TransportProcessor.known), so that the int16 ingest
// does not mistake the pins for channel observations.
const fillerLLR = 1e4

// Decode recovers the payload of a transport block of nprb resource blocks
// at mcs from received symbols under noise power n0. sb, when non-nil,
// supplies HARQ soft-combining state: callers Reset it for a new TB and
// reuse it across retransmissions (passing the matching rv). When sb is nil
// a fresh internal buffer is used. On success the returned slice (owned by
// the processor, valid until next Decode) holds the payload bits; a CRC
// failure returns ErrCRC. Output and soft-buffer contents are bit-identical
// across front-ends, kernels, lockstep widths and the processor's history.
func (p *TransportProcessor) Decode(mcs MCS, nprb int, rx []complex128, n0 float64, rnti uint16, cellID uint16, subframe uint8, rv int, sb *SoftBuffer) ([]byte, error) {
	if err := p.setDecodeShape(mcs, nprb); err != nil {
		return nil, err
	}
	sh := p.sh
	if len(rx) != sh.numSymbols() {
		return nil, fmt.Errorf("phy: got %d symbols, want %d: %w", len(rx), sh.numSymbols(), ErrBadParameter)
	}
	if rv < 0 || rv > 3 {
		return nil, fmt.Errorf("phy: rv=%d out of range: %w", rv, ErrBadParameter)
	}
	if sb == nil {
		sb = p.softBuf
		sb.reshape(sh.seg.C, sh.seg.K+4)
	} else if err := sh.checkSoftBuffer(sb); err != nil {
		return nil, err
	}
	sd, err := p.decoder()
	if err != nil {
		return nil, err
	}
	sd.setMaxIterations(p.maxIter)
	p.Timings.TurboIterations = 0
	check := checkBlockCRC24A
	if sh.seg.C > 1 {
		check = checkBlockCRC24B
	}
	if p.prof.FrontEnd == FrontEndFused {
		return p.decodeFused(sd, rx, n0, rnti, cellID, subframe, rv, sb, check)
	}

	// Staged (oracle) path: three full sweeps over the E coded bits.
	p.Timings.FrontEnd = 0

	// Demodulate to LLRs (initDecode capped llr at the largest E, so the
	// append never grows mid-measurement: the E2/E13/E18 staged columns
	// time this path).
	start := time.Now()
	p.llr = p.llr[:0]
	p.llr, err = Demodulate(p.llr, rx, mcs.Modulation(), n0)
	if err != nil {
		return nil, err
	}
	p.Timings.Demodulate = time.Since(start)

	// Descramble.
	start = time.Now()
	p.scr.Reinit(ScramblerInit(rnti, cellID, subframe))
	p.scr.DescrambleLLR(p.llr)
	p.Timings.Descramble = time.Since(start)

	// De-rate-match per block, accumulating into the soft buffer.
	start = time.Now()
	off := 0
	for i := 0; i < sh.seg.C; i++ {
		e := sh.blockE(i)
		if err := p.rm.SoftDematch(sb.ld0[i], sb.ld1[i], sb.ld2[i], p.llr[off:off+e], rv); err != nil {
			return nil, err
		}
		off += e
	}
	for j := 0; j < sh.seg.F; j++ {
		sb.ld0[0][j] = fillerLLR
	}
	p.Timings.Dematch = time.Since(start)

	// Turbo decode with CRC-based early termination, span by span; a block
	// failing its CRC ends the decoding, since the TB CRC could no longer
	// pass.
	start = time.Now()
	iters, ok, err := sd.decode(p.blocks, sb.ld0, sb.ld1, sb.ld2, p.known, check, nil)
	p.Timings.TurboIterations = iters
	p.Timings.TurboDecode = time.Since(start)
	p.Timings.Spans = sd.spans
	return p.finishTurbo(ok, err)
}

// decodeFused is the fused-front-end decode body: the per-block front-end
// (see frontEndBlock) replaces the staged sweeps and runs as the decoder's
// prepare hook, just before the block's span decodes. Decode has validated
// rv and the soft buffer's shape, so the per-block front-end itself cannot
// fail — the invariant the decoder's prepare hook requires.
func (p *TransportProcessor) decodeFused(sd *spanDecoder, rx []complex128, n0 float64, rnti uint16, cellID uint16, subframe uint8, rv int, sb *SoftBuffer, check func([]byte) bool) ([]byte, error) {
	p.Timings.Demodulate, p.Timings.Descramble, p.Timings.Dematch = 0, 0, 0

	start := time.Now()
	p.scr.Reinit(ScramblerInit(rnti, cellID, subframe))
	p.feKey = p.scr.KeyWords(p.sh.e)
	p.feRX, p.feInvN0, p.feSB, p.feRV = rx, demodInvN0(n0), sb, rv

	// The keystream set-up above counts as front-end; each block's
	// front-end adds its own time as the decoder runs it.
	p.Timings.FrontEnd = time.Since(start)
	iters, ok, err := sd.decode(p.blocks, sb.ld0, sb.ld1, sb.ld2, p.known, check, p.fe)
	p.clearFrontEndState()
	p.Timings.TurboIterations = iters
	p.Timings.TurboDecode = time.Since(start) - p.Timings.FrontEnd
	p.Timings.Spans = sd.spans
	return p.finishTurbo(ok, err)
}

// finishTurbo maps the turbo stage's outcome to Decode's: an internal error
// or an aborted transport block ends the decode, success moves on to
// desegmentation and the TB CRC.
func (p *TransportProcessor) finishTurbo(ok bool, err error) ([]byte, error) {
	if err != nil {
		return nil, err
	}
	if !ok {
		p.Timings.CRCCheck = 0
		return nil, fmt.Errorf("phy: transport block: %w", ErrCRC)
	}
	return p.finishDecode()
}

// finishDecode desegments the decoded blocks and verifies the TB CRC.
func (p *TransportProcessor) finishDecode() ([]byte, error) {
	start := time.Now()
	joined := p.joined[:p.sh.seg.B]
	if err := p.sh.seg.Join(joined, p.blocks); err != nil {
		p.Timings.CRCCheck = time.Since(start)
		return nil, err
	}
	payload, ok := CheckCRC24A(joined)
	p.Timings.CRCCheck = time.Since(start)
	if !ok {
		return nil, fmt.Errorf("phy: transport block: %w", ErrCRC)
	}
	return payload, nil
}
