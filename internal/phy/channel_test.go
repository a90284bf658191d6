package phy

import (
	"math"
	"testing"
)

func TestAWGNMeasuredSNR(t *testing.T) {
	// Noise power measured over many unit-energy symbols must match the
	// configured SNR within a fraction of a dB.
	for _, snr := range []float64{0, 10, 20} {
		ch := NewAWGNChannel(snr, 99)
		const n = 200000
		ref := make([]complex128, n)
		for i := range ref {
			ref[i] = 1
		}
		rx := append([]complex128(nil), ref...)
		ch.Apply(rx)
		var noiseP float64
		for i := range rx {
			d := rx[i] - ref[i]
			noiseP += real(d)*real(d) + imag(d)*imag(d)
		}
		noiseP /= n
		measured := -10 * math.Log10(noiseP)
		if math.Abs(measured-snr) > 0.2 {
			t.Fatalf("configured %v dB, measured %v dB", snr, measured)
		}
	}
}

func TestAWGNDeterministicSeed(t *testing.T) {
	a := NewAWGNChannel(10, 7)
	b := NewAWGNChannel(10, 7)
	sa := make([]complex128, 100)
	sb := make([]complex128, 100)
	a.Apply(sa)
	b.Apply(sb)
	for i := range sa {
		if sa[i] != sb[i] {
			t.Fatal("same seed produced different noise")
		}
	}
	c := NewAWGNChannel(10, 8)
	sc := make([]complex128, 100)
	c.Apply(sc)
	same := true
	for i := range sa {
		if sa[i] != sc[i] {
			same = false
			break
		}
	}
	if same {
		t.Fatal("different seeds produced identical noise")
	}
}

func TestAWGNN0(t *testing.T) {
	ch := NewAWGNChannel(0, 1)
	if math.Abs(ch.N0()-1) > 1e-12 {
		t.Fatalf("N0 at 0 dB = %v, want 1", ch.N0())
	}
	ch.SetSNR(10)
	if math.Abs(ch.N0()-0.1) > 1e-12 {
		t.Fatalf("N0 at 10 dB = %v, want 0.1", ch.N0())
	}
}

func TestEVM(t *testing.T) {
	ref := []complex128{1, 1i, -1, -1i}
	if evm, err := EVM(ref, ref); err != nil || evm != 0 {
		t.Fatalf("EVM of identical sequences = %v, %v", evm, err)
	}
	rx := []complex128{1.1, 1i, -1, -1i}
	evm, err := EVM(ref, rx)
	if err != nil || evm <= 0 {
		t.Fatalf("EVM = %v, %v", evm, err)
	}
	if _, err := EVM(ref, ref[:2]); err == nil {
		t.Fatal("length mismatch accepted")
	}
	if evm, err := EVM(nil, nil); err != nil || evm != 0 {
		t.Fatal("empty EVM should be 0")
	}
}
