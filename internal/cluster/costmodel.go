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
// safe to call concurrently. Server is a plain value; Cluster guards its
// membership with one RWMutex, so registrations from reader goroutines and
// the control loop's transitions may interleave. Calibrate runs measured
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
// coefficients are per-unit costs measured by Calibrate, one per stage of
// the one decode pipeline internal/phy builds (int16 turbo at lockstep
// width 8 behind the fused front-end; its reference pipelines are test code
// and are not priced).
type CostModel struct {
	// FFTPerButterfly is the cost of one FFT butterfly stage unit; an
	// n-point FFT costs FFTPerButterfly × n·log2(n).
	FFTPerButterfly float64
	// FrontEndPerREQPSK/16/64 is the all-in decode front-end cost per
	// resource element for each constellation: the one fused pass that turns
	// received symbols into turbo-ready soft streams (demodulation,
	// descrambling and de-rate-matching), on the tile kernels the host runs.
	FrontEndPerREQPSK  float64
	FrontEndPerRE16QAM float64
	FrontEndPerRE64QAM float64
	// TurboLonePerBitIter is the turbo-decode cost per code-block bit per
	// full iteration of a block decoded alone (a single-block transport
	// block, a ragged span's odd block out).
	TurboLonePerBitIter float64
	// TurboLanePerBitIter is the same cost per lane of a full lockstep span:
	// eight same-size code blocks moving through one SISO pass together, the
	// dominant coefficient of a multi-block transport block.
	TurboLanePerBitIter float64
	// CRCPerBit is the CRC verification cost per bit.
	CRCPerBit float64
}

// lockstepWidth is the number of code blocks the decoder runs through one
// SISO pass.
const lockstepWidth = phy.MaxJointBlocks

// spanUnits returns the turbo cost, in seconds per code-block bit per
// iteration, of decoding n ≤ lockstepWidth code blocks as one span: one
// lone-block decode for n = 1, and otherwise one lockstep pass whose per-lane
// coefficient interpolates hyperbolically between the lone-block (1 lane)
// and full-span calibration points — the lockstep saving is per lane, so a
// pass at half occupancy forfeits half of it.
func (m CostModel) spanUnits(n int) float64 {
	if n == 1 {
		return m.TurboLonePerBitIter
	}
	w := float64(lockstepWidth)
	lam := (1/float64(n) - 1/w) / (1 - 1/w)
	return float64(n) * (lam*m.TurboLonePerBitIter + (1-lam)*m.TurboLanePerBitIter)
}

// DefaultCostModel returns coefficients representative of a ~3 GHz x86 core
// (used when calibration is skipped, e.g. in fast unit tests). Values are in
// seconds per unit.
func DefaultCostModel() CostModel {
	return CostModel{
		FFTPerButterfly:     2.0e-9,
		FrontEndPerREQPSK:   11e-9,
		FrontEndPerRE16QAM:  20e-9,
		FrontEndPerRE64QAM:  33e-9,
		TurboLonePerBitIter: 9e-9,
		TurboLanePerBitIter: 2.4e-9,
		CRCPerBit:           0.8e-9,
	}
}

// Validate checks that every coefficient is positive.
func (m CostModel) Validate() error {
	for _, v := range []float64{
		m.FFTPerButterfly,
		m.FrontEndPerREQPSK, m.FrontEndPerRE16QAM, m.FrontEndPerRE64QAM,
		m.TurboLonePerBitIter, m.TurboLanePerBitIter,
		m.CRCPerBit,
	} {
		if v <= 0 || math.IsNaN(v) || math.IsInf(v, 0) {
			return fmt.Errorf("cluster: non-positive cost coefficient: %w", phy.ErrBadParameter)
		}
	}
	return nil
}

// frontEndPerRE selects the per-RE front-end coefficient.
func (m CostModel) frontEndPerRE(mod phy.Modulation) float64 {
	switch mod {
	case phy.QAM16:
		return m.FrontEndPerRE16QAM
	case phy.QAM64:
		return m.FrontEndPerRE64QAM
	default:
		return m.FrontEndPerREQPSK
	}
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
// reference core: the decode front-end + turbo decoding + CRC. The model
// follows the decoder: the transport block's C code blocks decode in spans
// of the lockstep width — full spans first, the remainder as one ragged
// span — each span costing what spanUnits charges for its occupancy plus the
// front-end share of its blocks.
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
	serial := float64(tbs+24) * m.CRCPerBit
	blockFE := res * m.frontEndPerRE(a.MCS.Modulation()) / float64(seg.C) // front-end time riding each decoded block
	bitIters := float64(seg.K) * ExpectedTurboIterations(a.MCS, a.SNRdB)
	span := func(n int) float64 { return bitIters*m.spanUnits(n) + float64(n)*blockFE }

	w := lockstepWidth
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
// overhead plus every allocation, and 0 for a subframe with no allocation,
// which the data plane does not transform.
func (m CostModel) SubframeCost(w frame.SubframeWork, bw phy.Bandwidth, antennas int) time.Duration {
	if len(w.Allocations) == 0 {
		return 0
	}
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
// experiments. It prices the cell's subframe through SubframeCost, so a
// utilization that rounds to 0 PRBs costs 0.
func (m CostModel) UtilizationDemand(bw phy.Bandwidth, antennas int, util float64, mcs phy.MCS, snrDB float64) float64 {
	if util < 0 {
		util = 0
	}
	if util > 1 {
		util = 1
	}
	var w frame.SubframeWork
	if nprb := int(math.Round(util * float64(bw.PRB()))); nprb > 0 {
		w.Allocations = []frame.Allocation{{RNTI: 1, FirstPRB: 0, NumPRB: nprb, MCS: mcs, SNRdB: snrDB}}
	}
	return CoreFraction(m.SubframeCost(w, bw, antennas))
}
