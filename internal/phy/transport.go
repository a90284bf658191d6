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

	// The running encode's, or running front-end's, configuration and its
	// K's rate-match plan.
	sh tbShape
	rm *RateMatcher

	// Fused front-end state of the transport block whose code blocks are
	// running their front-ends (see frontEndLane).
	fe      func(int) // p.frontEndLane, bound once so installing it never allocates
	feTB    int       // the loaded transport block's index in jt, -1 for none
	feRX    []complex128
	feKey   []uint32
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
	softBuf *SoftBuffer // the soft streams of transport blocks decoded without a buffer
	blockbk []byte      // backing array for the code blocks' decoded bits
	joined  []byte      // reassembled B bits, each transport block's at its first lane·K
	one     [1]TBDecode // Decode's transport block
	jt      []jointTB   // the running decode's accepted transport blocks
	cb      codeBlocks  // the running decode's code blocks

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
	p.fe = p.frontEndLane
	return p, nil
}

// initDecode allocates the decode side for the largest call: one transport
// block of the top shape, or MaxJointBlocks code blocks of the largest K a
// transport block of the processor can have — the top shape's when it is a
// single block (TBS grows with MCS and PRB count), else MaxBlockSize. K is
// the smallest legal size ≥ ⌈B′/C⌉ and legal sizes are at most 64 apart, so
// C·K < B + 88·C for every segmentation; B and C peak at the top shape.
func (p *TransportProcessor) initDecode() {
	b, c := p.top.seg.B, p.top.seg.C
	kmax := MaxBlockSize
	if c == 1 {
		kmax = p.top.seg.K
	}
	lanes := max(c, MaxJointBlocks)
	p.blockbk = make([]byte, max(b+88*c, MaxJointBlocks*kmax))
	p.joined = make([]byte, max(b, MaxJointBlocks*kmax))
	p.jt = make([]jointTB, 0, MaxJointBlocks)
	p.cb = newCodeBlocks(lanes, MaxJointBlocks)
	// C·(K+4) < B + 92·C values for one transport block.
	p.softBuf = &SoftBuffer{
		back: make([]float32, max(c*3*(b/c+93), MaxJointBlocks*3*(kmax+4))),
		ld0:  make([][]float32, 0, lanes),
		ld1:  make([][]float32, 0, lanes),
		ld2:  make([][]float32, 0, lanes),
	}
	if p.prof.FrontEnd == FrontEndStaged {
		p.llr = make([]float32, 0, p.top.e)
	}
}

// setShape makes (mcs, nprb) the running encode's configuration: its shape
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

// MaxJointBlocks is the most code blocks a DecodeJoint call of more than one
// transport block may carry: one lockstep span of the width-8 kernel.
const MaxJointBlocks = maxProfileWidth

// TBDecode is one transport block of a DecodeJoint call: Decode's arguments
// and, once the call returns, its outcome.
type TBDecode struct {
	MCS      MCS
	NPRB     int
	RX       []complex128
	N0       float64
	RNTI     uint16
	CellID   uint16
	Subframe uint8
	RV       int
	// Soft is the HARQ soft-combining buffer, as Decode's sb (nil: none).
	Soft *SoftBuffer

	// Payload holds the decoded payload bits (owned by the processor, valid
	// until its next decode), nil on failure.
	Payload []byte
	// Err is nil, ErrCRC on a decode failure, or the reason the transport
	// block was not decoded.
	Err error
	// TurboIterations is the full turbo iterations its code blocks used.
	TurboIterations int
}

// jointTB is the processor's view of one transport block of the running
// decode.
type jointTB struct {
	in    *TBDecode
	sh    tbShape
	first int // its first code block's index in the decode's lane order
}

// Decode recovers the payload of a transport block of nprb resource blocks
// at mcs from received symbols under noise power n0. sb, when non-nil,
// supplies HARQ soft-combining state: callers Reset it for a new TB and
// reuse it across retransmissions (passing the matching rv). When sb is nil
// a fresh internal buffer is used. On success the returned slice (owned by
// the processor, valid until next Decode) holds the payload bits; a CRC
// failure returns ErrCRC. Output and soft-buffer contents are bit-identical
// across front-ends, kernels, lockstep widths and the processor's history.
// Decode is DecodeJoint of one transport block.
func (p *TransportProcessor) Decode(mcs MCS, nprb int, rx []complex128, n0 float64, rnti uint16, cellID uint16, subframe uint8, rv int, sb *SoftBuffer) ([]byte, error) {
	tb := &p.one[0]
	*tb = TBDecode{MCS: mcs, NPRB: nprb, RX: rx, N0: n0, RNTI: rnti, CellID: cellID, Subframe: subframe, RV: rv, Soft: sb}
	p.DecodeJoint(p.one[:])
	payload, err := tb.Payload, tb.Err
	*tb = TBDecode{}
	return payload, err
}

// DecodeJoint decodes transport blocks whose code blocks share one turbo
// block size K, the first block's, in shared lockstep spans: each block's
// front-end fills its own soft buffer, the code blocks of all of them turbo
// decode together — each lane stopping early on its own transport block's
// CRC, the CRC-24A of a single-block transport block or the CRC-24B of a
// segmented one's block — and each transport block is then desegmented and
// checked on its own. Every outcome (payload, error, iteration count, soft
// buffer) is bit-identical to decoding the transport block alone with
// Decode: a code block's lane never perturbs another's, and a segmented
// transport block wider than a span is split into spans exactly as Decode
// splits it.
//
// With more than one transport block, their code blocks together must fit
// MaxJointBlocks. A transport block that does not fit, has another K, or
// fails Decode's argument checks is not decoded and reports why in its Err;
// the others decode regardless. Timings describes the whole call. The
// iteration bound (SetMaxIterations) applies to every transport block.
func (p *TransportProcessor) DecodeJoint(tbs []TBDecode) {
	if p.blockbk == nil {
		p.initDecode()
	}
	tm := &p.Timings
	tm.Demodulate, tm.Descramble, tm.Dematch, tm.FrontEnd = 0, 0, 0, 0
	tm.TurboDecode, tm.CRCCheck, tm.TurboIterations, tm.Spans = 0, 0, 0, [maxProfileWidth + 1]int{}
	if err := p.layout(tbs); err != nil {
		for i := range tbs {
			tbs[i].Err = err
		}
		return
	}
	defer p.clearJoint()
	if len(p.jt) == 0 {
		return
	}
	sd, err := p.decoder()
	if err == nil {
		sd.setMaxIterations(p.maxIter)
		if p.prof.FrontEnd == FrontEndFused {
			err = p.turboFused(sd)
		} else {
			err = p.turboStaged(sd)
		}
		tm.Spans = sd.spans
	}
	for t := range p.jt {
		jt := &p.jt[t]
		jt.in.TurboIterations = p.cb.iters[t]
		tm.TurboIterations += p.cb.iters[t]
		switch {
		case err != nil:
			jt.in.Err = err
		case !p.cb.ok[t]:
			jt.in.Err = fmt.Errorf("phy: transport block: %w", ErrCRC)
		default:
			jt.in.Payload, jt.in.Err = p.finishDecode(t)
		}
	}
}

// layout validates the transport blocks of a DecodeJoint call and lays out
// the accepted ones' code blocks, in call order, across the processor's
// lanes: each block's output bits, soft streams, filler count and early-stop
// predicate. A rejected transport block gets its Err. layout fails the whole
// call only for a K whose rate-match plan cannot be built.
func (p *TransportProcessor) layout(tbs []TBDecode) error {
	p.jt = p.jt[:0]
	k, lanes, own := 0, 0, 0
	for i := range tbs {
		tb := &tbs[i]
		tb.Payload, tb.Err, tb.TurboIterations = nil, nil, 0
		sh, err := p.accept(tb, k, lanes)
		if err != nil {
			tb.Err = err
			continue
		}
		k = sh.seg.K
		p.jt = append(p.jt, jointTB{in: tb, sh: sh, first: lanes})
		lanes += sh.seg.C
		if tb.Soft == nil {
			own += sh.seg.C
		}
	}
	if k == 0 {
		return nil
	}
	rm, err := NewRateMatcher(k)
	if err != nil {
		return err
	}
	p.rm = rm
	// The transport blocks without a soft buffer of their own share the
	// processor's, laid out afresh block after block for this call.
	p.softBuf.reshape(own, k+4)
	own = 0
	cb := &p.cb
	d3 := 3 * (k + 4)
	for t := range p.jt {
		jt := &p.jt[t]
		sb, base := jt.in.Soft, 0
		if sb == nil {
			sb, base = p.softBuf, own
			own += jt.sh.seg.C
		}
		check := checkBlockCRC24A
		if jt.sh.seg.C > 1 {
			check = checkBlockCRC24B
		}
		for j := base; j < base+jt.sh.seg.C; j++ {
			off := len(cb.out) * k
			cb.out = append(cb.out, p.blockbk[off:off+k:off+k])
			cb.soft = append(cb.soft, sb.back[j*d3:(j+1)*d3:(j+1)*d3])
			cb.known = append(cb.known, 0)
			cb.check = append(cb.check, check)
			cb.tb = append(cb.tb, t)
		}
		cb.known[jt.first] = jt.sh.seg.F
		cb.end = append(cb.end, len(cb.out))
		cb.iters = append(cb.iters, 0)
		cb.ok = append(cb.ok, true)
	}
	return nil
}

// accept checks one transport block of a joint decode against Decode's
// argument rules and the joint's: the joint's K (0 before the first accepted
// block) and the lanes already laid out.
func (p *TransportProcessor) accept(tb *TBDecode, k, lanes int) (tbShape, error) {
	if tb.NPRB > p.top.nprb {
		return tbShape{}, fmt.Errorf("phy: %d PRB on a processor built for %d: %w", tb.NPRB, p.top.nprb, ErrBadParameter)
	}
	sh, err := shapeOf(tb.MCS, tb.NPRB)
	if err != nil {
		return tbShape{}, err
	}
	if len(tb.RX) != sh.numSymbols() {
		return tbShape{}, fmt.Errorf("phy: got %d symbols, want %d: %w", len(tb.RX), sh.numSymbols(), ErrBadParameter)
	}
	if tb.RV < 0 || tb.RV > 3 {
		return tbShape{}, fmt.Errorf("phy: rv=%d out of range: %w", tb.RV, ErrBadParameter)
	}
	if tb.Soft != nil {
		if err := sh.checkSoftBuffer(tb.Soft); err != nil {
			return tbShape{}, err
		}
	}
	if k != 0 && sh.seg.K != k {
		return tbShape{}, fmt.Errorf("phy: joint decode of K=%d cannot take a K=%d transport block: %w", k, sh.seg.K, ErrBadParameter)
	}
	if lanes > 0 && lanes+sh.seg.C > MaxJointBlocks {
		return tbShape{}, fmt.Errorf("phy: %d code blocks do not fit a joint decode holding %d of %d: %w", sh.seg.C, lanes, MaxJointBlocks, ErrBadParameter)
	}
	return sh, nil
}

// clearJoint drops the references a joint decode took to its caller's
// memory, so a completed call retains none.
func (p *TransportProcessor) clearJoint() {
	clear(p.jt)
	p.cb.reset()
	p.feRX, p.feKey = nil, nil
}

// turboFused runs the fused front-end as the span decoder's prepare hook
// (frontEndLane), just before each code block's span decodes. layout has
// validated every accepted transport block, so the per-block front-end
// cannot fail — the invariant the prepare hook requires.
func (p *TransportProcessor) turboFused(sd *spanDecoder) error {
	p.feTB = -1
	start := time.Now()
	err := sd.decode(&p.cb, p.fe)
	// Each block's front-end adds its own time as the decoder runs it.
	p.Timings.TurboDecode = time.Since(start) - p.Timings.FrontEnd
	return err
}

// frontEndLane is the fused decode's prepare hook for code block i of the
// running decode: it loads the block's transport block into the front-end
// state when the block is the first of it to run — the keystream set-up
// counts as front-end — and runs the block's front-end.
func (p *TransportProcessor) frontEndLane(i int) {
	t := p.cb.tb[i]
	if t != p.feTB {
		start := time.Now()
		jt := &p.jt[t]
		in := jt.in
		p.feTB, p.sh = t, jt.sh
		p.scr.Reinit(ScramblerInit(in.RNTI, in.CellID, in.Subframe))
		p.feKey = p.scr.KeyWords(jt.sh.e)
		p.feRX, p.feInvN0, p.feRV = in.RX, demodInvN0(in.N0), in.RV
		p.Timings.FrontEnd += time.Since(start)
	}
	p.frontEndBlock(i-p.jt[t].first, p.cb.soft[i])
}

// turboStaged is the staged (oracle) decode: three full sweeps over each
// transport block's E coded bits, then the turbo stage.
func (p *TransportProcessor) turboStaged(sd *spanDecoder) error {
	for t := range p.jt {
		jt := &p.jt[t]
		in, sh := jt.in, jt.sh
		mod := sh.mcs.Modulation()
		// Demodulate to LLRs (initDecode capped llr at the largest E, so the
		// append never grows mid-measurement: E2 and BenchmarkFullDecode's
		// staged column time this path).
		start := time.Now()
		var err error
		p.llr, err = Demodulate(p.llr[:0], in.RX, mod, in.N0)
		if err != nil {
			return err
		}
		p.Timings.Demodulate += time.Since(start)

		start = time.Now()
		p.scr.Reinit(ScramblerInit(in.RNTI, in.CellID, in.Subframe))
		p.scr.DescrambleLLR(p.llr)
		p.Timings.Descramble += time.Since(start)

		// De-rate-match per block, accumulating into the soft buffer.
		start = time.Now()
		off := 0
		for j := 0; j < sh.seg.C; j++ {
			i := jt.first + j
			e := sh.blockE(j)
			ld0, ld1, ld2 := p.cb.streams(i)
			if err := p.rm.SoftDematch(ld0, ld1, ld2, p.llr[off:off+e], in.RV); err != nil {
				return err
			}
			off += e
		}
		for f := 0; f < sh.seg.F; f++ {
			p.cb.soft[jt.first][f] = fillerLLR
		}
		p.Timings.Dematch += time.Since(start)
	}
	start := time.Now()
	err := sd.decode(&p.cb, nil)
	p.Timings.TurboDecode = time.Since(start)
	return err
}

// finishDecode desegments transport block t's decoded blocks into its share
// of the joined scratch and verifies the TB CRC.
func (p *TransportProcessor) finishDecode(t int) ([]byte, error) {
	start := time.Now()
	jt := &p.jt[t]
	seg := jt.sh.seg
	off := jt.first * seg.K // a transport block's B bits fit its C·K lanes
	joined := p.joined[off : off+seg.B]
	if err := seg.Join(joined, p.cb.out[jt.first:jt.first+seg.C]); err != nil {
		p.Timings.CRCCheck += time.Since(start)
		return nil, err
	}
	payload, ok := CheckCRC24A(joined)
	p.Timings.CRCCheck += time.Since(start)
	if !ok {
		return nil, fmt.Errorf("phy: transport block: %w", ErrCRC)
	}
	return payload, nil
}
