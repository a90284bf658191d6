package phy

import "time"

// The reference decode pipelines. A TransportProcessor runs one pipeline:
// the fused tile front-end, block by block, feeding the lockstep span
// decoder (turboFused). Each reference swaps one stage of it for that
// stage's oracle, so decoding one input on a default processor and on a
// reference processor pins the stage:
//
//   - turboPerBlock ("batch 1"): every code block alone through the scalar
//     int16 TurboDecoder — the oracle of the lockstep decoder and of the
//     span cut, which must not change a bit;
//   - turboFloat32: every code block alone through the float32 max-log-MAP
//     decoder (turbo_float_test.go) — the accuracy oracle of the int16
//     arithmetic;
//   - staged: the three-sweep front-end, Demodulate → DescrambleLLR →
//     SoftDematch over whole transport blocks, before any turbo decoding —
//     the oracle of the fused front-end, bit for bit;
//   - goTiles: the fused front-end on its pure-Go tile kernels — the oracle
//     of the AVX2 tiles (the same as the default on a purego build).
//
// BenchmarkFullDecode times each of them next to the default.
type pipeline struct {
	turbo   refTurbo
	staged  bool
	goTiles bool
}

// refTurbo names a pipeline's turbo stage.
type refTurbo uint8

const (
	turboLockstep refTurbo = iota // the default: spanDecoder
	turboPerBlock
	turboFloat32
)

// newRefProcessor builds a processor for up to maxPRB resource blocks that
// decodes through pipeline r; the zero pipeline is NewTransportProcessor's.
func newRefProcessor(maxPRB int, r pipeline) (*TransportProcessor, error) {
	p, err := NewTransportProcessor(maxPRB)
	if err != nil {
		return nil, err
	}
	if r.goTiles {
		p.feVec = false
	}
	if r.turbo == turboLockstep && !r.staged {
		return p, nil
	}
	rs := &refStage{p: p, turbo: r.turbo}
	if r.staged {
		rs.llr = make([]float32, 0, p.top.e)
	}
	if r.turbo == turboFloat32 {
		rs.f32 = newFloatDecoder()
	}
	p.ref = rs.run
	return p, nil
}

// refStage is a reference pipeline's front-end and turbo stage, installed
// as its processor's ref.
type refStage struct {
	p     *TransportProcessor
	turbo refTurbo
	llr   []float32     // the staged front-end's demodulated LLRs (E), nil for fused
	f32   *floatDecoder // turboFloat32's decoder
}

// run is turboFused with the reference stages swapped in.
func (r *refStage) run(sd *spanDecoder) error {
	p := r.p
	start := time.Now()
	p.feTB = -1
	prepare := p.fe
	if r.llr != nil {
		if err := r.stagedFrontEnd(); err != nil {
			return err
		}
		prepare = nil
	}
	var err error
	switch r.turbo {
	case turboPerBlock:
		err = decodePerBlock(sd, &p.cb, prepare, sd.dec)
	case turboFloat32:
		r.f32.MaxIterations = sd.dec.MaxIterations
		err = decodePerBlock(sd, &p.cb, prepare, r.f32)
	default:
		err = sd.decode(&p.cb, prepare)
	}
	p.Timings.TurboDecode = time.Since(start) - p.Timings.FrontEnd
	return err
}

// stagedFrontEnd fills every laid-out code block's soft streams in three
// full sweeps per transport block: demodulate its E coded bits to LLRs,
// descramble them, and de-rate-match each block's share into its streams,
// combining with what they hold; then it pins block 0's filler bits.
func (r *refStage) stagedFrontEnd() error {
	p := r.p
	start := time.Now()
	for t := range p.jt {
		jt := &p.jt[t]
		in, sh := jt.in, jt.sh
		var err error
		// llr holds the largest E, so the append never grows mid-measurement.
		r.llr, err = Demodulate(r.llr[:0], in.RX, sh.mcs.Modulation(), in.N0)
		if err != nil {
			return err
		}
		p.scr.Reinit(ScramblerInit(in.RNTI, in.CellID, in.Subframe))
		p.scr.DescrambleLLR(r.llr)
		off := 0
		for j := 0; j < sh.seg.C; j++ {
			e := sh.blockE(j)
			ld0, ld1, ld2 := p.cb.streams(jt.first + j)
			if err := p.rm.SoftDematch(ld0, ld1, ld2, r.llr[off:off+e], in.RV); err != nil {
				return err
			}
			off += e
		}
		for f := 0; f < sh.seg.F; f++ {
			p.cb.soft[jt.first][f] = fillerLLR
		}
	}
	p.Timings.FrontEnd += time.Since(start)
	return nil
}

// blockDecoder decodes one code block under its early-stop predicate: the
// scalar int16 TurboDecoder or the float32 floatDecoder.
type blockDecoder interface {
	decodeBlock(out []byte, ld0, ld1, ld2 []float32, known int, check func([]byte) bool) (int, error)
}

// decodeBlock decodes through the pure-Go sisoI16 whatever the host: the
// per-block reference is the oracle of the AVX2 twin too.
func (d *TurboDecoder) decodeBlock(out []byte, ld0, ld1, ld2 []float32, known int, check func([]byte) bool) (int, error) {
	d.EarlyCheck, d.vec = check, false
	it, err := d.decode(out, ld0, ld1, ld2, known)
	d.EarlyCheck, d.vec = nil, batchAsm
	return it, err
}

func (d *floatDecoder) decodeBlock(out []byte, ld0, ld1, ld2 []float32, known int, check func([]byte) bool) (int, error) {
	d.EarlyCheck = check
	it, err := d.decode(out, ld0, ld1, ld2, known)
	d.EarlyCheck = nil
	return it, err
}

// decodePerBlock is spanDecoder.decode at width 1: every code block of cb in
// order, each its own span — prepare(i) first, then the block alone through
// dec — with the same bookkeeping: iterations and failures book to the
// block's transport block, and a transport block with a failed block
// decodes none of its later ones. It counts its spans in sd.spans.
func decodePerBlock(sd *spanDecoder, cb *codeBlocks, prepare func(int), dec blockDecoder) error {
	sd.spans = [MaxJointBlocks + 1]int{}
	for i := range cb.out {
		if prepare != nil {
			prepare(i)
		}
		t := cb.tb[i]
		if !cb.ok[t] {
			continue
		}
		ld0, ld1, ld2 := cb.streams(i)
		it, err := dec.decodeBlock(cb.out[i], ld0, ld1, ld2, cb.known[i], cb.check[i])
		if err != nil {
			return err
		}
		cb.iters[t] += it
		cb.ok[t] = cb.check[i](cb.out[i])
		sd.spans[1]++
	}
	return nil
}
