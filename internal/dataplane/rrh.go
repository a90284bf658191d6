package dataplane

import (
	"fmt"
	"math"
	"math/rand"

	"pran/internal/frame"
	"pran/internal/phy"
)

// RRHEmulator stands in for a cell site: given a subframe's scheduled
// allocations it synthesizes the uplink signal the fronthaul would deliver —
// encoding random (or caller-provided) transport blocks through the real
// transmit chain, impairing each UE's resource elements with AWGN at its
// allocation SNR, and OFDM-modulating the grid to time-domain I/Q.
//
// The emulator is this reproduction's substitute for radio hardware
// (DESIGN.md §2): everything downstream of it is the code whose performance
// PRAN's experiments measure. Not safe for concurrent use; use one per cell.
type RRHEmulator struct {
	cfg     frame.CellConfig
	ofdm    *phy.OFDMModulator
	grid    *frame.Grid
	enc     *phy.TransportProcessor // encode-only: sized for the cell bandwidth, no decode buffers
	rng     *rand.Rand
	chans   map[int]*phy.AWGNChannel // keyed by integer SNR decibel bucket
	samples []complex128
	scratch []complex128
	seed    int64

	// Fading, when non-nil, applies a frequency-selective channel response
	// to the whole subframe (pilots included) before per-UE noise; pair it
	// with CellProcessor.EstimateChannel on the receive side.
	Fading *phy.ChannelResponse
}

// NewRRHEmulator returns an emulator for the cell, deterministic per seed.
func NewRRHEmulator(cfg frame.CellConfig, seed int64) (*RRHEmulator, error) {
	if err := cfg.Validate(); err != nil {
		return nil, err
	}
	ofdm, err := phy.NewOFDMModulator(cfg.Bandwidth)
	if err != nil {
		return nil, err
	}
	grid, err := frame.NewGrid(cfg.Bandwidth)
	if err != nil {
		return nil, err
	}
	enc, err := phy.NewTransportProcessor(cfg.Bandwidth.PRB(), phy.DecodeProfile{})
	if err != nil {
		return nil, err
	}
	return &RRHEmulator{
		cfg:     cfg,
		ofdm:    ofdm,
		grid:    grid,
		enc:     enc,
		rng:     rand.New(rand.NewSource(seed)),
		chans:   make(map[int]*phy.AWGNChannel),
		samples: make([]complex128, ofdm.FFTSize()*phy.SymbolsPerSubframe),
		seed:    seed,
	}, nil
}

// Config returns the cell configuration.
func (r *RRHEmulator) Config() frame.CellConfig { return r.cfg }

// channel returns a persistent AWGN channel for the (rounded) SNR so noise
// streams stay deterministic per cell.
func (r *RRHEmulator) channel(snrDB float64) *phy.AWGNChannel {
	key := int(math.Round(snrDB))
	if c, ok := r.chans[key]; ok {
		c.SetSNR(snrDB)
		return c
	}
	c := phy.NewAWGNChannel(snrDB, r.seed*1009+int64(key))
	r.chans[key] = c
	return c
}

// RandomPayloads draws fresh random transport blocks matching each
// allocation's TBS (one bit per byte).
func (r *RRHEmulator) RandomPayloads(work frame.SubframeWork) ([][]byte, error) {
	out := make([][]byte, len(work.Allocations))
	for i, a := range work.Allocations {
		tbs, err := a.TransportBlockSize()
		if err != nil {
			return nil, err
		}
		p := make([]byte, tbs)
		for j := range p {
			p[j] = byte(r.rng.Intn(2))
		}
		out[i] = p
	}
	return out, nil
}

// Emit synthesizes the received time-domain subframe for the scheduled
// work, transmitting payloads[i] for allocation i (use RandomPayloads for
// fresh data; reuse the same payloads with a bumped RV for HARQ
// retransmissions). The returned sample slice is reused across calls.
func (r *RRHEmulator) Emit(work frame.SubframeWork, payloads [][]byte) ([]complex128, error) {
	if err := work.Validate(r.cfg.Bandwidth); err != nil {
		return nil, err
	}
	if len(payloads) != len(work.Allocations) {
		return nil, fmt.Errorf("dataplane: %d payloads for %d allocations: %w", len(payloads), len(work.Allocations), phy.ErrBadParameter)
	}
	r.grid.Reset()
	// Clean transmit grid first: UE data plus the cell's pilot sequence.
	for i, a := range work.Allocations {
		syms, err := r.enc.Encode(a.MCS, a.NumPRB, payloads[i], uint16(a.RNTI), r.cfg.PCI, work.TTI.Subframe(), int(a.RV))
		if err != nil {
			return nil, fmt.Errorf("dataplane: encode alloc %d: %w", i, err)
		}
		if err := r.grid.Place(a, syms); err != nil {
			return nil, err
		}
	}
	r.grid.PlacePilots(r.cfg.PCI, work.TTI)

	// Frequency-selective channel over the whole subframe.
	if r.Fading != nil {
		for l := 0; l < phy.SymbolsPerSubframe; l++ {
			row, err := r.grid.Symbol(l)
			if err != nil {
				return nil, err
			}
			if err := r.Fading.Apply(row); err != nil {
				return nil, err
			}
		}
	}

	// Receiver noise: per-UE SNR on each allocation's REs, and noise at
	// the strongest UE's SNR on the pilot symbols (the eNB front end is
	// common; per-UE SNR differences come from path loss on the data).
	bestSNR := 20.0
	for i, a := range work.Allocations {
		if i == 0 || a.SNRdB > bestSNR {
			bestSNR = a.SNRdB
		}
		n := a.NumPRB * phy.DataREsPerPRB
		if cap(r.scratch) < n {
			r.scratch = make([]complex128, n)
		}
		region := r.scratch[:n]
		if err := r.grid.Extract(region, a); err != nil {
			return nil, err
		}
		r.channel(a.SNRdB).Apply(region)
		if err := r.grid.Place(a, region); err != nil {
			return nil, err
		}
	}
	for _, l := range frame.ReferenceSymbolIndices() {
		row, err := r.grid.Symbol(l)
		if err != nil {
			return nil, err
		}
		r.channel(bestSNR).Apply(row)
	}

	// OFDM-modulate the grid to time domain, symbol by symbol.
	fftSize := r.ofdm.FFTSize()
	for l := 0; l < phy.SymbolsPerSubframe; l++ {
		row, err := r.grid.Symbol(l)
		if err != nil {
			return nil, err
		}
		if err := r.ofdm.Symbol(r.samples[l*fftSize:(l+1)*fftSize], row); err != nil {
			return nil, err
		}
	}
	return r.samples, nil
}
