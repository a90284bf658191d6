package phy

import (
	"errors"
	"math/rand"
	"testing"
)

// measureBLER runs trials independent transport blocks through the AWGN
// channel at the given SNR and returns the block error rate.
func measureBLER(t *testing.T, mcs MCS, nprb int, snrDB float64, trials int, seed int64) float64 {
	t.Helper()
	proc, err := newTBProc(mcs, nprb, pipeline{})
	if err != nil {
		t.Fatal(err)
	}
	rng := rand.New(rand.NewSource(seed))
	ch := NewAWGNChannel(snrDB, seed+1)
	errsN := 0
	rx := make([]complex128, proc.NumSymbols())
	for i := 0; i < trials; i++ {
		payload := randBits(rng, proc.TransportBlockSize())
		syms, err := proc.Encode(payload, uint16(i+1), 7, uint8(i%10), 0)
		if err != nil {
			t.Fatal(err)
		}
		copy(rx, syms)
		ch.Apply(rx)
		if _, err := proc.Decode(rx, ch.N0(), uint16(i+1), 7, uint8(i%10), 0, nil); err != nil {
			if !errors.Is(err, ErrCRC) {
				t.Fatal(err)
			}
			errsN++
		}
	}
	return float64(errsN) / float64(trials)
}

// TestBLERWaterfall validates the PHY's link-level behaviour: block error
// rate must fall off a cliff around the MCS operating point — near-certain
// failure a few dB below it, near-certain success a few dB above. This is
// the waterfall every real LTE receiver exhibits and what makes the
// OperatingSNR-based link adaptation and HARQ modelling meaningful.
func TestBLERWaterfall(t *testing.T) {
	if testing.Short() {
		t.Skip("link-level sweep")
	}
	const (
		mcs    = MCS(10)
		nprb   = 6
		trials = 40
	)
	op := mcs.OperatingSNR()
	below := measureBLER(t, mcs, nprb, op-4, trials, 100)
	at := measureBLER(t, mcs, nprb, op, trials, 200)
	above := measureBLER(t, mcs, nprb, op+3, trials, 300)

	if below < 0.85 {
		t.Fatalf("BLER %.2f at op−4 dB; waterfall should be closed there", below)
	}
	if above > 0.05 {
		t.Fatalf("BLER %.2f at op+3 dB; waterfall should be open there", above)
	}
	if below < at || at < above {
		t.Fatalf("BLER not monotone through the waterfall: %.2f / %.2f / %.2f", below, at, above)
	}
	// OperatingSNR is deliberately conservative (it feeds link adaptation
	// and HARQ modelling), so the measured BLER there must already be on
	// the safe side of the cliff.
	if at > 0.5 {
		t.Fatalf("BLER %.2f at the operating point — OperatingSNR not conservative", at)
	}
	t.Logf("BLER waterfall MCS %d: %.2f @ op-4, %.2f @ op, %.2f @ op+3", mcs, below, at, above)
}

// TestBLERImprovesWithHARQ quantifies the combining gain on the default
// (int16 lockstep) decode path: after one retransmission at RV 2, soft-
// combined into the same buffer, the residual BLER of a stressed first
// transmission must drop by a large factor. Combined buffers carry larger
// magnitudes than either transmission; at MCS 24 they cross the int16
// ingest-gain threshold, so the scaled quantizer is what decodes them.
func TestBLERImprovesWithHARQ(t *testing.T) {
	if testing.Short() {
		t.Skip("link-level sweep")
	}
	for _, c := range []struct {
		mcs      MCS
		wantGain bool // combined buffers must engage the ingest gain
	}{{10, false}, {24, true}} {
		const (
			nprb   = 6
			trials = 40
		)
		snr := c.mcs.OperatingSNR() - 1 // stressed first transmission
		proc, err := newTBProc(c.mcs, nprb, pipeline{})
		if err != nil {
			t.Fatal(err)
		}
		rng := rand.New(rand.NewSource(400))
		ch := NewAWGNChannel(snr, 401)
		firstFails, combinedFails, scaled := 0, 0, 0
		rx := make([]complex128, proc.NumSymbols())
		sb := proc.NewSoftBuffer()
		for i := 0; i < trials; i++ {
			payload := randBits(rng, proc.TransportBlockSize())
			sb.Reset()
			syms, err := proc.Encode(payload, uint16(i+1), 3, 0, 0)
			if err != nil {
				t.Fatal(err)
			}
			copy(rx, syms)
			ch.Apply(rx)
			_, err1 := proc.Decode(rx, ch.N0(), uint16(i+1), 3, 0, 0, sb)
			if err1 == nil {
				continue
			}
			firstFails++
			// Retransmission at RV 2 into the same soft buffer.
			syms2, err := proc.Encode(payload, uint16(i+1), 3, 0, 2)
			if err != nil {
				t.Fatal(err)
			}
			copy(rx, syms2)
			ch.Apply(rx)
			if _, err2 := proc.Decode(rx, ch.N0(), uint16(i+1), 3, 0, 2, sb); err2 != nil {
				combinedFails++
			}
			if llrGain(sb.ld0[0], sb.ld1[0], sb.ld2[0]) < 1 {
				scaled++
			}
		}
		if firstFails == 0 {
			t.Fatalf("MCS %d: no first-transmission failures 1 dB below the operating point; nothing to combine", c.mcs)
		}
		if combinedFails*3 > firstFails {
			t.Fatalf("MCS %d: combining recovered too little: %d residual of %d failures", c.mcs, combinedFails, firstFails)
		}
		if c.wantGain && scaled == 0 {
			t.Fatalf("MCS %d: no combined buffer crossed the ingest-gain threshold; the scaled quantizer went untested", c.mcs)
		}
		t.Logf("HARQ gain MCS %d: %d/%d first-TX failures, %d residual after one combine, %d combined buffers decoded scaled",
			c.mcs, firstFails, trials, combinedFails, scaled)
	}
}
