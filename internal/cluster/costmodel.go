// Package cluster models the commodity-server pool PRAN schedules baseband
// processing onto: a per-stage compute cost model *calibrated against the
// real DSP in internal/phy*, plus server and cluster abstractions whose
// capacities the controller allocates.
//
// The paper ran on a real cluster; our day-long, hundred-cell sweeps run on
// this calibrated model instead (DESIGN.md §2). Calibration measures the
// actual Go implementations (FFT, demodulation, turbo decoding, …) on the
// host at startup, so simulated costs track what the measured data plane
// would do on the same machine, keeping the experiment shapes transferable.
//
// Concurrency: CostModel is an immutable value after construction — its
// cost queries (AllocCost, SubframeCost, …) are pure and
// safe to call concurrently. Server and Cluster are plain mutable state
// owned by whoever constructs them (in practice the controller's single
// goroutine); they perform no internal locking. Calibrate runs measured
// loops on the calling goroutine and should not race other CPU-heavy work.
package cluster

import (
	"fmt"
	"math"
	"time"

	"pran/internal/frame"
	"pran/internal/phy"
)

// CostModel maps PHY work items to time on a reference core (seconds). All
// coefficients are per-unit costs measured by Calibrate.
type CostModel struct {
	// FFTPerButterfly is the cost of one FFT butterfly stage unit; an
	// n-point FFT costs FFTPerButterfly × n·log2(n).
	FFTPerButterfly float64
	// DemodPerREQPSK/16/64 is the LLR demodulation cost per resource
	// element for each constellation.
	DemodPerREQPSK  float64
	DemodPerRE16QAM float64
	DemodPerRE64QAM float64
	// DescramblePerBit is the per-coded-bit descrambling cost, including
	// the amortized Gold-sequence generation.
	DescramblePerBit float64
	// DematchPerBit is the soft de-rate-matching cost per coded bit.
	DematchPerBit float64
	// FusedPerREQPSK/16/64 is the all-in cost per resource element of the
	// fused decode front-end (phy.FrontEndFused), which replaces the three
	// staged sweeps (demodulate + descramble + de-rate-match) with one
	// word-oriented pass. Charged instead of — never in addition to — the
	// DemodPerRE*/DescramblePerBit/DematchPerBit coefficients when
	// Profile.FrontEnd is FrontEndFused.
	FusedPerREQPSK  float64
	FusedPerRE16QAM float64
	FusedPerRE64QAM float64
	// FusedVecPerREQPSK/16/64 is the fused front-end cost per resource
	// element with the AVX2 tile pipeline (phy.FrontEndAVX2() true): tile
	// demodulation and descrambling run 8 symbols per iteration in
	// assembly. On hosts without AVX2 the calibrator sets these equal to
	// the scalar FusedPerRE* coefficients. Charged instead of FusedPerRE*
	// as FrontEndVector describes.
	FusedVecPerREQPSK  float64
	FusedVecPerRE16QAM float64
	FusedVecPerRE64QAM float64
	// TurboPerBitIter is the turbo-decode cost per code-block bit per full
	// iteration with the float32 reference kernel (phy.KernelFloat32).
	TurboPerBitIter float64
	// TurboPerBitIterI16 is the same coefficient measured with the scalar
	// int16 kernel — what a lone code block (a single-block transport
	// block, a span's odd block out) costs on the default path.
	TurboPerBitIterI16 float64
	// TurboPerBitIterI16Batch is the int16 coefficient measured with the
	// width-8 lockstep batch kernel (phy.BatchDecoderI16): the per-bit,
	// per-iteration, per-lane cost when eight same-size code blocks move
	// through the SISO pipeline together — the default path's dominant
	// coefficient.
	TurboPerBitIterI16Batch float64
	// CRCPerBit is the CRC verification cost per bit.
	CRCPerBit float64
	// EncodePerBit is the downlink encode-chain cost per information bit.
	EncodePerBit float64

	// Profile is the decode pipeline the cost queries price — the same value
	// a pool runs as dataplane.Config.Decode, so a provisioning answer and
	// the pipeline it describes are compared with ==. Its Kernel and lockstep
	// Width select the turbo coefficients and how a transport block's code
	// blocks are charged span by span (see spanUnits), its FrontEnd and
	// NoVectorFrontEnd the front-end coefficients. The zero value is the
	// default path. Use WithProfile to derive a model for another pipeline.
	Profile phy.DecodeProfile
	// FrontEndVector is the calibration's record of which fused column this
	// host's default tile kernels run: Calibrate sets it to
	// phy.FrontEndAVX2(), DefaultCostModel leaves it false. The fused
	// front-end is charged FusedVecPerRE* when it is set and the profile does
	// not name the pure-Go tiles (Profile.NoVectorFrontEnd), FusedPerRE*
	// otherwise.
	FrontEndVector bool
	// IterCap, when > 0, caps the expected turbo iterations the cost
	// queries charge — the degradation ladder's per-cell
	// iteration cap (DegradationLevel.IterCap), so a degraded cell's
	// modelled demand shrinks to what its capped decode actually costs.
	// 0 (the default) leaves ExpectedTurboIterations unclamped. Use
	// WithIterCap (or DegradationLevel.Apply) to derive a capped model.
	IterCap int
}

// WithProfile returns a copy of the model whose cost queries price the
// given decode pipeline.
func (m CostModel) WithProfile(p phy.DecodeProfile) CostModel {
	m.Profile = p
	return m
}

// WithIterCap returns a copy of the model whose cost queries cap the
// expected turbo iterations at c (0 removes the cap).
func (m CostModel) WithIterCap(c int) CostModel {
	m.IterCap = c
	return m
}

// expectedIters is ExpectedTurboIterations clamped by the model's iteration
// cap — the per-allocation iteration count every cost query charges.
func (m CostModel) expectedIters(mcs phy.MCS, snrDB float64) float64 {
	it := ExpectedTurboIterations(mcs, snrDB)
	if m.IterCap > 0 && it > float64(m.IterCap) {
		it = float64(m.IterCap)
	}
	return it
}

// spanUnits returns the turbo cost, in seconds per code-block bit per
// iteration, of decoding n ≤ width code blocks as one span: n
// scalar decodes on the float32 kernel, one scalar decode for a lone int16
// block (the decoder does not run a one-lane batch), and otherwise one
// lockstep pass whose per-lane coefficient interpolates hyperbolically
// between the scalar (1 lane) and width-8 calibration points — the lockstep
// saving is per lane, so a pass at half occupancy forfeits half of it.
func (m CostModel) spanUnits(n int) float64 {
	switch {
	case m.Profile.Kernel != phy.KernelInt16:
		return float64(n) * m.TurboPerBitIter
	case n == 1:
		return m.TurboPerBitIterI16
	}
	lam := (1/float64(n) - 1.0/8) / (1 - 1.0/8)
	return float64(n) * (lam*m.TurboPerBitIterI16 + (1-lam)*m.TurboPerBitIterI16Batch)
}

// DefaultCostModel returns coefficients representative of a ~3 GHz x86 core
// (used when calibration is skipped, e.g. in fast unit tests). Values are in
// seconds per unit. Like every CostModel whose Profile is zero it charges
// the default decode path, int16 at lockstep width 8.
func DefaultCostModel() CostModel {
	return CostModel{
		FFTPerButterfly:         2.0e-9,
		DemodPerREQPSK:          15e-9,
		DemodPerRE16QAM:         25e-9,
		DemodPerRE64QAM:         45e-9,
		DescramblePerBit:        1.2e-9,
		DematchPerBit:           2.5e-9,
		FusedPerREQPSK:          11e-9,
		FusedPerRE16QAM:         20e-9,
		FusedPerRE64QAM:         33e-9,
		FusedVecPerREQPSK:       5e-9,
		FusedVecPerRE16QAM:      8e-9,
		FusedVecPerRE64QAM:      13e-9,
		TurboPerBitIter:         28e-9,
		TurboPerBitIterI16:      9e-9,
		TurboPerBitIterI16Batch: 2.4e-9,
		CRCPerBit:               0.8e-9,
		EncodePerBit:            12e-9,
	}
}

// Validate checks that every coefficient is positive.
func (m CostModel) Validate() error {
	for _, v := range []float64{
		m.FFTPerButterfly, m.DemodPerREQPSK, m.DemodPerRE16QAM, m.DemodPerRE64QAM,
		m.DescramblePerBit, m.DematchPerBit,
		m.FusedPerREQPSK, m.FusedPerRE16QAM, m.FusedPerRE64QAM,
		m.FusedVecPerREQPSK, m.FusedVecPerRE16QAM, m.FusedVecPerRE64QAM,
		m.TurboPerBitIter, m.TurboPerBitIterI16, m.TurboPerBitIterI16Batch,
		m.CRCPerBit, m.EncodePerBit,
	} {
		if v <= 0 || math.IsNaN(v) || math.IsInf(v, 0) {
			return fmt.Errorf("cluster: non-positive cost coefficient: %w", phy.ErrBadParameter)
		}
	}
	if err := m.Profile.Validate(); err != nil {
		return fmt.Errorf("cluster: %w", err)
	}
	if m.IterCap < 0 {
		return fmt.Errorf("cluster: negative turbo iteration cap %d: %w", m.IterCap, phy.ErrBadParameter)
	}
	return nil
}

// demodPerRE selects the per-RE demodulation coefficient.
func (m CostModel) demodPerRE(mod phy.Modulation) float64 {
	switch mod {
	case phy.QAM16:
		return m.DemodPerRE16QAM
	case phy.QAM64:
		return m.DemodPerRE64QAM
	default:
		return m.DemodPerREQPSK
	}
}

// fusedPerRE selects the per-RE fused front-end coefficient for the tile
// kernels the profile runs on the calibrated host (vector vs pure Go).
func (m CostModel) fusedPerRE(mod phy.Modulation) float64 {
	if m.FrontEndVector && !m.Profile.NoVectorFrontEnd {
		switch mod {
		case phy.QAM16:
			return m.FusedVecPerRE16QAM
		case phy.QAM64:
			return m.FusedVecPerRE64QAM
		default:
			return m.FusedVecPerREQPSK
		}
	}
	switch mod {
	case phy.QAM16:
		return m.FusedPerRE16QAM
	case phy.QAM64:
		return m.FusedPerRE64QAM
	default:
		return m.FusedPerREQPSK
	}
}

// frontEndSec returns the decode front-end cost (everything between the
// received symbols and turbo-ready soft streams) for res resource elements
// carrying codedBits coded bits: one fused pass, or the staged
// demodulate + descramble + de-rate-match sweeps, per the profile's FrontEnd.
func (m CostModel) frontEndSec(res, codedBits float64, mod phy.Modulation) float64 {
	if m.Profile.FrontEnd == phy.FrontEndFused {
		return res * m.fusedPerRE(mod)
	}
	return res*m.demodPerRE(mod) + codedBits*(m.DescramblePerBit+m.DematchPerBit)
}

// ExpectedTurboIterations models how many full turbo iterations a decode
// needs given the SNR margin above the MCS operating point: ample margin
// early-terminates after 1–2, operation at the edge takes most of the
// budget. Matches the EarlyCheck behaviour of the real decoder.
func ExpectedTurboIterations(mcs phy.MCS, snrDB float64) float64 {
	margin := snrDB - mcs.OperatingSNR()
	it := 5.5 - 1.3*margin
	if it < 1.5 {
		it = 1.5
	}
	if it > 8 {
		it = 8
	}
	return it
}

// CellOverhead returns the per-subframe, per-cell fixed cost: the 14 OFDM
// symbol FFTs (times antennas). Under the RF-IQ split this runs in the pool
// regardless of load — PRAN's floor cost per active cell.
func (m CostModel) CellOverhead(bw phy.Bandwidth, antennas int) time.Duration {
	n := float64(bw.FFTSize())
	per := m.FFTPerButterfly * n * math.Log2(n)
	total := per * phy.SymbolsPerSubframe * float64(antennas)
	return time.Duration(total * float64(time.Second))
}

// AllocCost returns the uplink processing cost of one UE allocation on a
// reference core: the decode front-end (one fused pass, or staged
// demodulation + descrambling + de-rate-matching) + turbo decoding + CRC.
// The model follows the decoder: the transport block's C code blocks decode
// in spans of the lockstep width — full spans first, the remainder as one
// ragged span — each span costing what spanUnits charges for its occupancy,
// plus, with the fused front-end, the front-end share of its blocks.
func (m CostModel) AllocCost(a frame.Allocation) time.Duration {
	tbs, err := a.MCS.TransportBlockSize(a.NumPRB)
	if err != nil {
		return 0
	}
	seg, err := phy.Segment(tbs + 24)
	if err != nil {
		return 0
	}
	res := float64(a.NumPRB * phy.DataREsPerPRB)
	qm := float64(a.MCS.Modulation().BitsPerSymbol())
	frontEnd := m.frontEndSec(res, res*qm, a.MCS.Modulation())
	serial := float64(tbs+24) * m.CRCPerBit
	blockFE := 0.0 // front-end time riding each decoded block
	if m.Profile.FrontEnd == phy.FrontEndFused {
		blockFE = frontEnd / float64(seg.C)
	} else {
		serial += frontEnd
	}
	bitIters := float64(seg.K) * m.expectedIters(a.MCS, a.SNRdB)
	span := func(n int) float64 { return bitIters*m.spanUnits(n) + float64(n)*blockFE }

	w := m.Profile.Width()
	full, rest := seg.C/w, seg.C%w
	// The leading full spans, then the last span, full or ragged: the
	// summation order testdata/costmodel_grid.txt's nanoseconds pin.
	lead, last := full-1, span(w)
	if rest > 0 {
		lead, last = full, span(rest)
	}
	sec := serial + float64(lead)*span(w) + last
	return time.Duration(sec * float64(time.Second))
}

// SubframeCost returns the total uplink cost of one cell subframe: cell
// overhead plus every allocation.
func (m CostModel) SubframeCost(w frame.SubframeWork, bw phy.Bandwidth, antennas int) time.Duration {
	total := m.CellOverhead(bw, antennas)
	for _, a := range w.Allocations {
		total += m.AllocCost(a)
	}
	return total
}

// CoreFraction converts a per-subframe cost into the fraction of one
// reference core the cell occupies in steady state (cost / 1 ms).
func CoreFraction(perSubframe time.Duration) float64 {
	return float64(perSubframe) / float64(time.Millisecond)
}

// UtilizationDemand estimates a cell's steady-state compute demand, in
// reference-core fractions, when it runs at PRB utilization util with a
// typical MCS and SNR margin. It is the bridge from coarse traffic traces
// (internal/traffic.DayTrace) to compute requirements in the pooling
// experiments.
func (m CostModel) UtilizationDemand(bw phy.Bandwidth, antennas int, util float64, mcs phy.MCS, snrDB float64) float64 {
	if util < 0 {
		util = 0
	}
	if util > 1 {
		util = 1
	}
	nprb := int(math.Round(util * float64(bw.PRB())))
	cost := m.CellOverhead(bw, antennas)
	if nprb > 0 {
		cost += m.AllocCost(frame.Allocation{
			RNTI: 1, FirstPRB: 0, NumPRB: nprb, MCS: mcs, SNRdB: snrDB,
		})
	}
	return CoreFraction(cost)
}
