package phy

import (
	"fmt"
	"math"
	"math/cmplx"
	"math/rand"
)

// Multipath fading for the OFDM link. A static (block-fading) multipath
// channel with delays well inside the cyclic prefix acts, per OFDM symbol,
// as one complex gain per subcarrier — the frequency response of the tap
// line. The emulator applies that response to the transmitted grid; the
// receiver estimates it from pilots and equalizes. This upgrades the
// baseline AWGN model to frequency-selective conditions without simulating
// inter-symbol interference the CP would absorb anyway.

// MultipathProfile is a standardized power-delay profile.
type MultipathProfile int

// 3GPP-style profiles (delays/powers after 36.101 Annex B, quantized to
// the sample grid).
const (
	// ProfileFlat is a single tap — pure AWGN conditions.
	ProfileFlat MultipathProfile = iota
	// ProfileEPA is Extended Pedestrian A (low delay spread).
	ProfileEPA
	// ProfileEVA is Extended Vehicular A (moderate delay spread).
	ProfileEVA
)

// String implements fmt.Stringer.
func (p MultipathProfile) String() string {
	switch p {
	case ProfileFlat:
		return "flat"
	case ProfileEPA:
		return "EPA"
	case ProfileEVA:
		return "EVA"
	default:
		return fmt.Sprintf("MultipathProfile(%d)", int(p))
	}
}

// tap is one path: excess delay in ns and mean power in dB.
type tap struct {
	delayNs float64
	powerDB float64
}

var profileTaps = map[MultipathProfile][]tap{
	ProfileFlat: {{0, 0}},
	ProfileEPA: {
		{0, 0}, {30, -1}, {70, -2}, {90, -3}, {110, -8}, {190, -17.2}, {410, -20.8},
	},
	ProfileEVA: {
		{0, 0}, {30, -1.5}, {150, -1.4}, {310, -3.6}, {370, -0.6},
		{710, -9.1}, {1090, -7}, {1730, -12}, {2510, -16.9},
	},
}

// ChannelResponse is a per-used-subcarrier complex gain vector for one
// cell's bandwidth, normalized to unit mean power so the configured SNR
// stays meaningful.
type ChannelResponse struct {
	// H holds one complex gain per used subcarrier (grid order).
	H []complex128
	// Profile records the generating profile.
	Profile MultipathProfile
}

// NewChannelResponse draws a random realization of the profile for the
// bandwidth: tap gains are complex Gaussian with the profile's powers and
// deterministic per seed; the response is evaluated on the used subcarriers
// (grid layout: first half below DC, second half above).
func NewChannelResponse(profile MultipathProfile, bw Bandwidth, seed int64) (*ChannelResponse, error) {
	if err := bw.Validate(); err != nil {
		return nil, err
	}
	taps, ok := profileTaps[profile]
	if !ok {
		return nil, fmt.Errorf("phy: unknown multipath profile %d: %w", profile, ErrBadParameter)
	}
	rng := rand.New(rand.NewSource(seed))
	type cplxTap struct {
		gain  complex128
		delay float64 // seconds
	}
	cts := make([]cplxTap, len(taps))
	var totalP float64
	for i, tp := range taps {
		p := math.Pow(10, tp.powerDB/10)
		sigma := math.Sqrt(p / 2)
		cts[i] = cplxTap{
			gain:  complex(rng.NormFloat64()*sigma, rng.NormFloat64()*sigma),
			delay: tp.delayNs * 1e-9,
		}
		totalP += p
	}
	norm := complex(1/math.Sqrt(totalP), 0)

	usedSC := bw.PRB() * SubcarriersPerPRB
	n := bw.FFTSize()
	h := make([]complex128, usedSC)
	half := usedSC / 2
	for i := 0; i < usedSC; i++ {
		// Grid index i → FFT bin → baseband frequency offset.
		var bin int
		if i < half {
			bin = n - half + i // below DC
		} else {
			bin = 1 + (i - half) // above DC
		}
		freqHz := float64(bin) * 15_000
		if bin > n/2 {
			freqHz = float64(bin-n) * 15_000
		}
		var sum complex128
		for _, ct := range cts {
			ang := -2 * math.Pi * freqHz * ct.delay
			sum += ct.gain * cmplx.Exp(complex(0, ang))
		}
		h[i] = sum * norm
	}
	return &ChannelResponse{H: h, Profile: profile}, nil
}

// Apply multiplies one grid row (used-subcarrier order) by the response.
func (c *ChannelResponse) Apply(row []complex128) error {
	if len(row) != len(c.H) {
		return fmt.Errorf("phy: row %d vs response %d subcarriers: %w", len(row), len(c.H), ErrBadParameter)
	}
	for i := range row {
		row[i] *= c.H[i]
	}
	return nil
}

// EstimateLS computes a least-squares channel estimate from received pilots
// and the known transmitted pilot values: Ĥ[k] = rx[k]/tx[k]. Zero pilots
// are skipped (estimate carries over from the left neighbour).
func EstimateLS(dst []complex128, rx, tx []complex128) error {
	if len(dst) != len(rx) || len(rx) != len(tx) {
		return fmt.Errorf("phy: estimate length mismatch %d/%d/%d: %w", len(dst), len(rx), len(tx), ErrBadParameter)
	}
	last := complex(1, 0)
	for k := range rx {
		if tx[k] != 0 {
			last = rx[k] / tx[k]
		}
		dst[k] = last
	}
	return nil
}

// estimateFloor is the squared magnitude below which a channel estimate is
// clamped, so that a deep fade is not blown up into the data.
const estimateFloor = 1e-3

// clampEstimate returns the estimate the equalizer divides by and its squared
// magnitude: h itself, or h rescaled to |h|² = estimateFloor in a deep fade.
func clampEstimate(h complex128) (complex128, float64) {
	mag2 := real(h)*real(h) + imag(h)*imag(h)
	if mag2 >= estimateFloor {
		return h, mag2
	}
	scale := math.Sqrt(estimateFloor) / (cmplx.Abs(h) + 1e-12)
	return h * complex(scale, 0), estimateFloor
}

// EqualizerWeights writes the zero-forcing weight 1/Ĥ[k] of every subcarrier
// into w, clamping deep fades (clampEstimate), and returns the whole-band
// noise enhancement factor mean(1/|Ĥ|²) that scales the demodulator's noise
// power. Multiplying any stretch of a data row by the matching stretch of w
// equalizes it as dividing the row by the estimate would (to rounding; the
// tests keep that division as the oracle), so a receiver computes the
// weights once per subframe and touches only the resource elements that are
// scheduled.
func EqualizerWeights(w []complex128, est []complex128) (float64, error) {
	if len(w) != len(est) {
		return 0, fmt.Errorf("phy: equalizer weights length mismatch %d vs %d: %w", len(w), len(est), ErrBadParameter)
	}
	var enh float64
	for k := range est {
		h, mag2 := clampEstimate(est[k])
		// 1/h = conj(h)/|h|², from the clamped value's own magnitude (mag2 is
		// the nominal floor there, not the rounded one).
		m := real(h)*real(h) + imag(h)*imag(h)
		w[k] = complex(real(h)/m, -imag(h)/m)
		enh += 1 / mag2
	}
	return enh / float64(len(est)), nil
}
