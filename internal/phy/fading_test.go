package phy

import (
	"fmt"
	"math"
	"math/cmplx"
	"testing"
)

func TestChannelResponseUnitMeanPower(t *testing.T) {
	// Averaged over realizations, the response power must be ≈ 1 so the
	// configured SNR remains meaningful.
	for _, prof := range []MultipathProfile{ProfileFlat, ProfileEPA, ProfileEVA} {
		var total float64
		const trials = 200
		for s := int64(0); s < trials; s++ {
			cr, err := NewChannelResponse(prof, BW5MHz, s)
			if err != nil {
				t.Fatal(err)
			}
			var p float64
			for _, h := range cr.H {
				p += real(h)*real(h) + imag(h)*imag(h)
			}
			total += p / float64(len(cr.H))
		}
		mean := total / trials
		if mean < 0.85 || mean > 1.15 {
			t.Fatalf("%v: mean power %v not ≈ 1", prof, mean)
		}
	}
}

func TestChannelResponseFlatIsFlat(t *testing.T) {
	cr, err := NewChannelResponse(ProfileFlat, BW10MHz, 3)
	if err != nil {
		t.Fatal(err)
	}
	first := cr.H[0]
	for i, h := range cr.H {
		if cmplx.Abs(h-first) > 1e-9 {
			t.Fatalf("flat profile varies at subcarrier %d", i)
		}
	}
	if cr.CoherenceBandwidthSCS() != len(cr.H) {
		t.Fatal("flat channel should be coherent across the whole band")
	}
}

func TestChannelResponseSelectivityOrdering(t *testing.T) {
	// EVA has a longer delay spread than EPA → smaller coherence bandwidth
	// (averaged over realizations to tame randomness).
	avgCoherence := func(p MultipathProfile) float64 {
		total := 0
		const trials = 20
		for s := int64(0); s < trials; s++ {
			cr, err := NewChannelResponse(p, BW10MHz, 100+s)
			if err != nil {
				t.Fatal(err)
			}
			total += cr.CoherenceBandwidthSCS()
		}
		return float64(total) / trials
	}
	epa := avgCoherence(ProfileEPA)
	eva := avgCoherence(ProfileEVA)
	if eva >= epa {
		t.Fatalf("EVA coherence %v not below EPA %v", eva, epa)
	}
}

func TestChannelResponseDeterministic(t *testing.T) {
	a, _ := NewChannelResponse(ProfileEPA, BW5MHz, 7)
	b, _ := NewChannelResponse(ProfileEPA, BW5MHz, 7)
	for i := range a.H {
		if a.H[i] != b.H[i] {
			t.Fatal("same seed differs")
		}
	}
	c, _ := NewChannelResponse(ProfileEPA, BW5MHz, 8)
	if a.H[0] == c.H[0] {
		t.Fatal("different seeds identical")
	}
}

func TestChannelResponseValidation(t *testing.T) {
	if _, err := NewChannelResponse(ProfileEPA, Bandwidth(9), 1); err == nil {
		t.Fatal("bad bandwidth accepted")
	}
	if _, err := NewChannelResponse(MultipathProfile(9), BW5MHz, 1); err == nil {
		t.Fatal("unknown profile accepted")
	}
	cr, _ := NewChannelResponse(ProfileFlat, BW5MHz, 1)
	if err := cr.Apply(make([]complex128, 3)); err == nil {
		t.Fatal("wrong row length accepted")
	}
	for _, p := range []MultipathProfile{ProfileFlat, ProfileEPA, ProfileEVA, MultipathProfile(9)} {
		if p.String() == "" {
			t.Fatal("profile must print")
		}
	}
}

func TestEstimateLSPerfect(t *testing.T) {
	// Noise-free LS estimation recovers the exact response.
	cr, _ := NewChannelResponse(ProfileEVA, BW5MHz, 11)
	n := len(cr.H)
	tx := make([]complex128, n)
	for i := range tx {
		tx[i] = complex(1/math.Sqrt2, 1/math.Sqrt2)
	}
	rx := append([]complex128(nil), tx...)
	if err := cr.Apply(rx); err != nil {
		t.Fatal(err)
	}
	est := make([]complex128, n)
	if err := EstimateLS(est, rx, tx); err != nil {
		t.Fatal(err)
	}
	for i := range est {
		if cmplx.Abs(est[i]-cr.H[i]) > 1e-9 {
			t.Fatalf("estimate wrong at %d", i)
		}
	}
}

func TestEstimateLSSkipsZeros(t *testing.T) {
	tx := []complex128{1, 0, 1}
	rx := []complex128{2, 99, 4}
	est := make([]complex128, 3)
	if err := EstimateLS(est, rx, tx); err != nil {
		t.Fatal(err)
	}
	if est[0] != 2 || est[1] != 2 || est[2] != 4 {
		t.Fatalf("est %v", est)
	}
	if err := EstimateLS(est, rx[:2], tx); err == nil {
		t.Fatal("length mismatch accepted")
	}
}

func TestEqualizeInvertsChannel(t *testing.T) {
	cr, _ := NewChannelResponse(ProfileEPA, BW5MHz, 13)
	n := len(cr.H)
	data := make([]complex128, n)
	for i := range data {
		data[i] = complex(float64(i%7)-3, float64(i%5)-2)
	}
	rx := append([]complex128(nil), data...)
	if err := cr.Apply(rx); err != nil {
		t.Fatal(err)
	}
	enh, err := Equalize(rx, cr.H)
	if err != nil {
		t.Fatal(err)
	}
	for i := range data {
		if cmplx.Abs(rx[i]-data[i]) > 1e-6 {
			t.Fatalf("equalization residual at %d: %v vs %v", i, rx[i], data[i])
		}
	}
	if enh < 1 {
		// Jensen: mean(1/|H|²) ≥ 1/mean(|H|²) ≈ 1 for unit-power channels.
		t.Fatalf("noise enhancement %v below 1 for a unit-power channel", enh)
	}
	if _, err := Equalize(rx[:3], cr.H); err == nil {
		t.Fatal("length mismatch accepted")
	}
}

func TestEqualizeClampsDeepFades(t *testing.T) {
	row := []complex128{1}
	est := []complex128{1e-9} // pathological fade
	enh, err := Equalize(row, est)
	if err != nil {
		t.Fatal(err)
	}
	if math.IsInf(real(row[0]), 0) || math.IsNaN(real(row[0])) {
		t.Fatal("deep fade exploded")
	}
	if math.IsInf(enh, 0) {
		t.Fatal("enhancement exploded")
	}
}

// CoherenceBandwidthSCS estimates the 50%-correlation coherence bandwidth
// in subcarriers — a sanity metric the tests use to tell profiles apart.
func (c *ChannelResponse) CoherenceBandwidthSCS() int {
	n := len(c.H)
	if n == 0 {
		return 0
	}
	var p0 float64
	for _, h := range c.H {
		p0 += real(h)*real(h) + imag(h)*imag(h)
	}
	p0 /= float64(n)
	for lag := 1; lag < n; lag++ {
		var corr complex128
		for i := 0; i+lag < n; i++ {
			corr += c.H[i] * cmplx.Conj(c.H[i+lag])
		}
		if cmplx.Abs(corr)/float64(n-lag)/p0 < 0.5 {
			return lag
		}
	}
	return n
}

// Equalize divides a data row by the channel estimate in place and returns
// the mean post-equalization noise enhancement factor mean(1/|Ĥ|²), which
// scales the demodulator's noise power. Estimates below the floor are clamped
// to avoid exploding deep fades. It is the whole-row reference for
// EqualizerWeights, which the cell ingest path uses.
func Equalize(row []complex128, est []complex128) (float64, error) {
	if len(row) != len(est) {
		return 0, fmt.Errorf("phy: equalize length mismatch %d vs %d: %w", len(row), len(est), ErrBadParameter)
	}
	var enh float64
	for k := range row {
		h, mag2 := clampEstimate(est[k])
		row[k] /= h
		enh += 1 / mag2
	}
	return enh / float64(len(row)), nil
}
