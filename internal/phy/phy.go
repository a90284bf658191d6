// Package phy implements the LTE physical-layer substrate the PRAN data
// plane schedules: a real (if simplified) uplink/downlink baseband chain in
// pure Go — CRC attachment, code-block segmentation, rate-1/3 turbo coding
// with QPP interleaving, rate matching, Gold-sequence scrambling, QPSK /
// 16-QAM / 64-QAM (de)modulation with soft LLR output, OFDM (I)FFT, and an
// AWGN channel model.
//
// The package exists because PRAN's whole argument rests on the *cost
// structure* of software baseband processing: uplink cost is dominated by
// iterative turbo decoding, grows linearly with scheduled resource blocks
// and superlinearly with the modulation-and-coding scheme (MCS). Running the
// actual DSP (rather than a synthetic spin loop) reproduces that structure,
// which the cluster cost model in internal/cluster then calibrates against.
//
// Numerology follows LTE FDD: 15 kHz subcarrier spacing, 12 subcarriers per
// physical resource block (PRB), 14 OFDM symbols per 1 ms subframe (normal
// cyclic prefix), of which ~2 carry reference signals, leaving about 144
// resource elements per PRB-pair for data. Deviations from 3GPP 36.211/212/
// 213 (exact TBS tables, sub-block interleaver details) are documented where
// they occur and in DESIGN.md §2.
//
// Concurrency and ownership: stateless transforms (CRCs, Modulate/
// Demodulate, TBS tables) and plans — the QPPInterleaver and RateMatcher
// tables, built once per block size K for the whole process and read-only
// afterwards — are safe for concurrent use. Scratch — TransportProcessor,
// TurboEncoder/TurboDecoder, BatchDecoderI16, Scrambler, OFDMModulator —
// belongs to exactly one goroutine at a time: sized once for the largest
// block rather than per (MCS, PRB) shape or K, reused across calls and never
// locked, which keeps the steady-state hot path allocation-free and an
// owner's memory independent of its traffic. The package starts no
// goroutines: a TransportProcessor decodes every code block of a transport
// block on its caller's goroutine. The end-to-end threading model is
// documented in docs/concurrency.md.
package phy

import (
	"errors"
	"fmt"
)

// Fundamental LTE numerology constants (normal cyclic prefix, FDD).
const (
	// SubcarriersPerPRB is the number of 15 kHz subcarriers in one PRB.
	SubcarriersPerPRB = 12
	// SymbolsPerSubframe is the number of OFDM symbols in a 1 ms subframe.
	SymbolsPerSubframe = 14
	// ReferenceSymbolsPerSubframe approximates the symbols consumed by
	// reference signals / control in our simplified grid.
	ReferenceSymbolsPerSubframe = 2
	// DataREsPerPRB is the number of data resource elements per PRB per
	// subframe after reference-signal overhead.
	DataREsPerPRB = SubcarriersPerPRB * (SymbolsPerSubframe - ReferenceSymbolsPerSubframe)
	// SubframeDuration is 1 ms expressed in nanoseconds.
	SubframeDurationNs = 1_000_000
	// MaxPRB is the largest LTE bandwidth configuration (20 MHz).
	MaxPRB = 100
)

// Bandwidth describes a standard LTE channel bandwidth by its PRB count.
type Bandwidth int

// Standard LTE bandwidth configurations.
const (
	BW1_4MHz Bandwidth = 6
	BW3MHz   Bandwidth = 15
	BW5MHz   Bandwidth = 25
	BW10MHz  Bandwidth = 50
	BW15MHz  Bandwidth = 75
	BW20MHz  Bandwidth = 100
)

// PRB returns the number of physical resource blocks for the bandwidth.
func (b Bandwidth) PRB() int { return int(b) }

// MHz returns the nominal channel bandwidth in MHz.
func (b Bandwidth) MHz() float64 {
	switch b {
	case BW1_4MHz:
		return 1.4
	case BW3MHz:
		return 3
	case BW5MHz:
		return 5
	case BW10MHz:
		return 10
	case BW15MHz:
		return 15
	case BW20MHz:
		return 20
	default:
		return float64(b) * 0.2 // 12×15 kHz per PRB plus guard ≈ 0.2 MHz/PRB
	}
}

// FFTSize returns the OFDM FFT size conventionally used for the bandwidth.
func (b Bandwidth) FFTSize() int {
	switch {
	case b <= BW1_4MHz:
		return 128
	case b <= BW3MHz:
		return 256
	case b <= BW5MHz:
		return 512
	case b <= BW10MHz:
		return 1024
	case b <= BW15MHz:
		return 1536
	default:
		return 2048
	}
}

// SampleRate returns the baseband complex sample rate in samples/second for
// the bandwidth (FFT size × 15 kHz subcarrier spacing).
func (b Bandwidth) SampleRate() float64 { return float64(b.FFTSize()) * 15_000 }

// Validate reports whether b is one of the standard configurations.
func (b Bandwidth) Validate() error {
	switch b {
	case BW1_4MHz, BW3MHz, BW5MHz, BW10MHz, BW15MHz, BW20MHz:
		return nil
	}
	return fmt.Errorf("phy: nonstandard bandwidth %d PRB: %w", int(b), ErrBadParameter)
}

// Common sentinel errors for the package.
var (
	// ErrBadParameter indicates an out-of-range configuration parameter.
	ErrBadParameter = errors.New("invalid PHY parameter")
	// ErrCRC indicates transport- or code-block CRC failure after decoding.
	ErrCRC = errors.New("CRC check failed")
	// ErrTooShort indicates a buffer shorter than the operation requires.
	ErrTooShort = errors.New("buffer too short")
)

// Direction distinguishes the uplink (RRH→pool, decode-heavy) and downlink
// (pool→RRH, encode-heavy) processing chains.
type Direction uint8

// Directions of a transport block through the PHY.
const (
	Uplink Direction = iota
	Downlink
)

// String implements fmt.Stringer.
func (d Direction) String() string {
	if d == Uplink {
		return "UL"
	}
	return "DL"
}
