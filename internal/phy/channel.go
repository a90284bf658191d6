package phy

import (
	"fmt"
	"math"
	"math/rand"
)

// AWGN channel emulation. The PRAN reproduction has no radio hardware, so
// the "air interface" is this channel: unit-energy constellation symbols
// plus complex Gaussian noise at a controlled SNR. The emulator stands in
// for the RRH + RF front end; everything downstream of it (the entire
// uplink receive chain) is the real code whose compute cost PRAN schedules.

// AWGNChannel adds complex white Gaussian noise at a fixed SNR. It carries
// its own deterministic PRNG so parallel cells produce reproducible,
// independent noise streams.
type AWGNChannel struct {
	rng   *rand.Rand
	sigma float64 // per-dimension noise standard deviation
}

// NewAWGNChannel returns a channel with the given SNR in dB (signal power
// assumed 1) seeded deterministically.
func NewAWGNChannel(snrDB float64, seed int64) *AWGNChannel {
	c := &AWGNChannel{rng: rand.New(rand.NewSource(seed))}
	c.SetSNR(snrDB)
	return c
}

// SetSNR changes the operating SNR in dB.
func (c *AWGNChannel) SetSNR(snrDB float64) {
	n0 := math.Pow(10, -snrDB/10)
	c.sigma = math.Sqrt(n0 / 2)
}

// N0 returns the total complex noise power for the configured SNR.
func (c *AWGNChannel) N0() float64 { return 2 * c.sigma * c.sigma }

// Apply adds noise to syms in place.
func (c *AWGNChannel) Apply(syms []complex128) {
	for i, s := range syms {
		syms[i] = s + complex(c.rng.NormFloat64()*c.sigma, c.rng.NormFloat64()*c.sigma)
	}
}

// EVM returns the error vector magnitude (RMS, linear) between a reference
// and a received symbol sequence of equal length.
func EVM(ref, rx []complex128) (float64, error) {
	if len(ref) != len(rx) {
		return 0, fmt.Errorf("phy: EVM length mismatch %d vs %d: %w", len(ref), len(rx), ErrBadParameter)
	}
	if len(ref) == 0 {
		return 0, nil
	}
	var errP, refP float64
	for i := range ref {
		d := rx[i] - ref[i]
		errP += real(d)*real(d) + imag(d)*imag(d)
		refP += real(ref[i])*real(ref[i]) + imag(ref[i])*imag(ref[i])
	}
	if refP == 0 {
		return 0, nil
	}
	return math.Sqrt(errP / refP), nil
}
