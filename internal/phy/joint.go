package phy

import (
	"fmt"
	"time"
)

// JointDecoder decodes several transport blocks of the same configuration
// in one fan-out: the code blocks of every submitted request are pooled
// into a single grouped decode on their processors' DecoderSet's
// ParallelDecoder, so lockstep batches can span
// transport-block boundaries — the cross-codeword batching the data plane
// uses when one cell (or several cells on the same worker set) has more
// than one uplink TB pending with identical (MCS, PRB) shape. Each request
// keeps its own abort group: a CRC failure in one TB cancels only that TB's
// remaining blocks.
//
// A JointDecoder holds no decoders of its own, only the marshalling scratch
// of a call: the decoders, their workers and their lockstep width are the
// set's, the same ones that serve a solo TransportProcessor.Decode.
//
// Ownership/concurrency contract: a JointDecoder is owned by one goroutine
// at a time — DecodeJoint must not be called concurrently, and the
// processors named in a call (and with them their decoder set) are owned by
// the decoder for the call's duration (the usual one-owner
// TransportProcessor rule).
type JointDecoder struct {
	par     *ParallelDecoder // the set's decoder, for the duration of a call
	maxIter int              // turbo iteration bound applied per call (≤ 0 = default)

	// Per-call marshalling scratch, grown on demand and reused.
	reqs          []DecodeRequest // the in-flight slice, for prepare dispatch
	offs          []int           // block offset of each request
	blocks        [][]byte
	ld0, ld1, ld2 [][]float32
	groups        []int32
	known         []int
	failed        []bool
	prep          func(int) // bound dispatchPrepare, allocated once
}

// DecodeRequest is one transport block's decode submission to a
// JointDecoder: the processor whose buffers the TB decodes in, the TB's
// configuration, the received symbols, and the channel/HARQ parameters (the
// same arguments as TransportProcessor.Decode). After DecodeJoint returns,
// Payload/Iters/Err hold that TB's outcome: Payload aliases the processor's
// buffer (valid until its next decode) and Err is nil on success,
// ErrCRC-wrapped on a failed TB.
type DecodeRequest struct {
	P        *TransportProcessor
	MCS      MCS
	NumPRB   int
	RX       []complex128
	N0       float64
	RNTI     uint16
	CellID   uint16
	Subframe uint8
	RV       int
	SB       *SoftBuffer // nil: the processor's internal buffer, reset

	// Results, written by DecodeJoint.
	Payload []byte
	Iters   int
	Err     error
}

// NewJointDecoder returns an empty joint decoder.
func NewJointDecoder() *JointDecoder {
	jd := &JointDecoder{}
	jd.prep = jd.dispatchPrepare // bound once: installing per call allocates nothing
	return jd
}

// SetMaxIterations bounds the turbo iterations of subsequent DecodeJoint
// calls (n ≤ 0 restores the default budget). Only the owning goroutine may
// call this, between calls.
func (jd *JointDecoder) SetMaxIterations(n int) { jd.maxIter = n }

// DecodeJoint decodes every request's transport block in one pooled
// fan-out on their shared DecoderSet's decoder (built here if this is its
// first decode). All processors must come from one DecoderSet, run the fused
// front-end and be distinct (a processor's buffers hold one TB at a time),
// and all requests must share one segmentation shape. The returned error
// reports validation or internal decode failures affecting the whole call;
// per-TB CRC outcomes land in each request's Err/Payload/Iters fields.
// Output bits, soft-buffer state, and iteration counts are bit-identical to
// decoding each request serially with TransportProcessor.Decode.
func (jd *JointDecoder) DecodeJoint(reqs []DecodeRequest) error {
	if len(reqs) == 0 {
		return nil
	}
	ds := reqs[0].P.decs
	for i := range reqs {
		p := reqs[i].P
		if p.decs != ds {
			return fmt.Errorf("phy: joint request %d's processor is from another decoder set: %w", i, ErrBadParameter)
		}
		if p.frontEnd != FrontEndFused {
			return fmt.Errorf("phy: joint request %d needs the fused front-end: %w", i, ErrBadParameter)
		}
		for j := 0; j < i; j++ {
			if reqs[j].P == p {
				return fmt.Errorf("phy: joint requests %d and %d share a processor: %w", j, i, ErrBadParameter)
			}
		}
		if err := p.setDecodeShape(reqs[i].MCS, reqs[i].NumPRB); err != nil {
			return fmt.Errorf("phy: joint request %d: %w", i, err)
		}
		if seg := reqs[0].P.sh.seg; p.sh.seg != seg {
			return fmt.Errorf("phy: joint request %d segmentation %+v differs from %+v: %w", i, p.sh.seg, seg, ErrBadParameter)
		}
		if len(reqs[i].RX) != p.sh.numSymbols() {
			return fmt.Errorf("phy: joint request %d: got %d symbols, want %d: %w", i, len(reqs[i].RX), p.sh.numSymbols(), ErrBadParameter)
		}
		if reqs[i].RV < 0 || reqs[i].RV > 3 {
			return fmt.Errorf("phy: joint request %d: rv=%d out of range: %w", i, reqs[i].RV, ErrBadParameter)
		}
		if sb := reqs[i].SB; sb != nil {
			if err := p.sh.checkSoftBuffer(sb); err != nil {
				return fmt.Errorf("phy: joint request %d: %w", i, err)
			}
		}
	}
	seg := reqs[0].P.sh.seg

	par, err := ds.decoder()
	if err != nil {
		return err
	}
	par.SetMaxIterations(jd.maxIter)
	jd.par = par

	// Install every processor's front-end state, then marshal the pooled
	// block list. From here on nothing fails until the grouped decode.
	start := time.Now()
	jd.reqs = reqs
	jd.offs = jd.offs[:0]
	jd.blocks = jd.blocks[:0]
	jd.ld0, jd.ld1, jd.ld2 = jd.ld0[:0], jd.ld1[:0], jd.ld2[:0]
	jd.groups = jd.groups[:0]
	jd.known = jd.known[:0]
	jd.failed = jd.failed[:0]
	for i := range reqs {
		r := &reqs[i]
		p := r.P
		sb := r.SB
		if sb == nil {
			sb = p.softBuf
			sb.reshape(seg.C, seg.K+4)
		}
		p.scr.Reinit(ScramblerInit(r.RNTI, r.CellID, r.Subframe))
		p.feKey = p.scr.KeyWords(p.sh.e)
		p.feRX, p.feInvN0, p.feSB, p.feRV = r.RX, demodInvN0(r.N0), sb, r.RV
		p.Timings.Demodulate, p.Timings.Descramble, p.Timings.Dematch = 0, 0, 0
		p.Timings.FrontEnd = 0
		jd.offs = append(jd.offs, len(jd.blocks))
		for b := 0; b < seg.C; b++ {
			jd.blocks = append(jd.blocks, p.blocks[b])
			jd.ld0 = append(jd.ld0, sb.ld0[b])
			jd.ld1 = append(jd.ld1, sb.ld1[b])
			jd.ld2 = append(jd.ld2, sb.ld2[b])
			jd.groups = append(jd.groups, int32(i))
		}
		jd.known = append(jd.known, p.known...)
		jd.failed = append(jd.failed, false)
	}
	check := checkBlockCRC24A
	if seg.C > 1 {
		check = checkBlockCRC24B
	}

	_, err = par.DecodeGroups(jd.blocks, jd.ld0, jd.ld1, jd.ld2, jd.known, jd.groups, jd.failed, check, jd.prep)
	elapsed := time.Since(start)
	var frontEnd time.Duration
	for i := range reqs {
		frontEnd += reqs[i].P.Timings.FrontEnd
	}
	for i := range reqs {
		r := &reqs[i]
		r.P.clearFrontEndState()
		r.Iters = par.GroupIters(i)
		// The fan-out interleaves all requests' decodes through shared
		// lockstep passes; the joint wall time, less the front-end time
		// dispatchPrepare could attribute, goes to every request's
		// TurboDecode (the same convention as the overlapped per-TB path —
		// see StageTimings).
		r.P.Timings.TurboIterations = r.Iters
		r.P.Timings.TurboDecode = elapsed - frontEnd
		r.P.Timings.CRCCheck = 0
		switch {
		case err != nil:
			r.Payload, r.Err = nil, err
		case jd.failed[i]:
			r.Payload, r.Err = nil, fmt.Errorf("phy: transport block: %w", ErrCRC)
		default:
			r.Payload, r.Err = r.P.finishDecode()
		}
	}
	jd.reqs, jd.par = nil, nil
	for i := range jd.blocks {
		jd.blocks[i], jd.ld0[i], jd.ld1[i], jd.ld2[i] = nil, nil, nil, nil
	}
	return err
}

// dispatchPrepare is the pooled fan-out's prepare hook: block index i maps
// back to (request, local block) and runs that processor's fused front-end
// for the block. The offsets are sorted, so a short reverse scan finds the
// owning request. With one decode worker every hook runs on the calling
// goroutine and is timed into the owning processor's Timings.FrontEnd (as
// in TransportProcessor.Decode); with several the time is not separable.
func (jd *JointDecoder) dispatchPrepare(i int) {
	r := len(jd.offs) - 1
	for jd.offs[r] > i {
		r--
	}
	p := jd.reqs[r].P
	if jd.par.Workers() == 1 {
		p.frontEndBlockTimed(i - jd.offs[r])
	} else {
		p.frontEndBlock(i - jd.offs[r])
	}
}
