package fronthaul

import (
	"bytes"
	"errors"
	"io"
	"math/rand"
	"net"
	"testing"

	"pran/internal/phy"
)

func randIQ(rng *rand.Rand, n int) []complex128 {
	out := make([]complex128, n)
	for i := range out {
		out[i] = complex(rng.NormFloat64()*0.3, rng.NormFloat64()*0.3)
	}
	return out
}

func TestTransportFixed16Roundtrip(t *testing.T) {
	var buf bytes.Buffer
	s := NewSender(&buf, nil)
	rng := rand.New(rand.NewSource(1))
	in := randIQ(rng, 1792)
	if err := s.SendSubframe(3, 77, in); err != nil {
		t.Fatal(err)
	}
	r := NewReceiver(&buf, nil)
	sf, err := r.Recv()
	if err != nil {
		t.Fatal(err)
	}
	if sf.Cell != 3 || sf.TTI != 77 || len(sf.Samples) != len(in) {
		t.Fatalf("header %+v, %d samples", sf, len(sf.Samples))
	}
	evm, err := phy.EVM(in, sf.Samples)
	if err != nil {
		t.Fatal(err)
	}
	if evm > 0.001 {
		t.Fatalf("16-bit fixed point EVM %v too high", evm)
	}
	if s.BytesSent != r.BytesReceived || s.BytesSent == 0 {
		t.Fatalf("accounting: sent %d received %d", s.BytesSent, r.BytesReceived)
	}
}

func TestTransportBFPRoundtrip(t *testing.T) {
	comp, err := NewBFPCompressor(12, 9)
	if err != nil {
		t.Fatal(err)
	}
	var buf bytes.Buffer
	s := NewSender(&buf, comp)
	r := NewReceiver(&buf, comp)
	rng := rand.New(rand.NewSource(2))
	in := randIQ(rng, 1792)
	if err := s.SendSubframe(1, 5, in); err != nil {
		t.Fatal(err)
	}
	sf, err := r.Recv()
	if err != nil {
		t.Fatal(err)
	}
	evm, _ := phy.EVM(in, sf.Samples)
	if evm > 0.01 {
		t.Fatalf("BFP EVM %v", evm)
	}
}

func TestTransportCompressionSavesBytes(t *testing.T) {
	comp, _ := NewBFPCompressor(12, 9)
	rng := rand.New(rand.NewSource(3))
	in := randIQ(rng, 1792)
	var raw, compressed bytes.Buffer
	sRaw := NewSender(&raw, nil)
	sBFP := NewSender(&compressed, comp)
	_ = sRaw.SendSubframe(1, 1, in)
	_ = sBFP.SendSubframe(1, 1, in)
	ratio := float64(sRaw.BytesSent) / float64(sBFP.BytesSent)
	if ratio < 1.4 {
		t.Fatalf("wire compression ratio %v below 1.4", ratio)
	}
}

func TestTransportStreamOverTCPPipe(t *testing.T) {
	// Several subframes across a real net.Pipe, verifying order and
	// identity — the shape the RRH↔pool link actually has.
	a, b := net.Pipe()
	defer a.Close()
	defer b.Close()
	comp, _ := NewBFPCompressor(12, 9)
	rng := rand.New(rand.NewSource(4))
	frames := make([][]complex128, 5)
	for i := range frames {
		frames[i] = randIQ(rng, 128*phy.SymbolsPerSubframe)
	}
	go func() {
		s := NewSender(a, comp)
		for i, f := range frames {
			if err := s.SendSubframe(9, uint64(100+i), f); err != nil {
				return
			}
		}
	}()
	r := NewReceiver(b, comp)
	for i := range frames {
		sf, err := r.Recv()
		if err != nil {
			t.Fatal(err)
		}
		if sf.TTI != uint64(100+i) || sf.Cell != 9 {
			t.Fatalf("frame %d out of order: %+v", i, sf)
		}
		evm, _ := phy.EVM(frames[i], sf.Samples)
		if evm > 0.01 {
			t.Fatalf("frame %d EVM %v", i, evm)
		}
	}
}

func TestTransportRejectsGarbage(t *testing.T) {
	r := NewReceiver(bytes.NewReader([]byte{1, 2, 3, 4, 5, 6, 7, 8, 9, 10, 11, 12, 13, 14, 15, 16, 17, 18, 19, 20, 21}), nil)
	if _, err := r.Recv(); !errors.Is(err, ErrBadFrame) {
		t.Fatalf("garbage accepted: %v", err)
	}
	// Truncated stream → io error, not a hang.
	r2 := NewReceiver(bytes.NewReader([]byte{0x5F, 0xA7}), nil)
	if _, err := r2.Recv(); err == nil || errors.Is(err, ErrBadFrame) {
		if err == nil {
			t.Fatal("truncated header accepted")
		}
	}
}

func TestTransportRejectsBadCounts(t *testing.T) {
	rng := rand.New(rand.NewSource(5))
	var buf bytes.Buffer
	s := NewSender(&buf, nil)
	if err := s.SendSubframe(1, 1, nil); err == nil {
		t.Fatal("empty subframe accepted")
	}
	if err := s.SendSubframe(1, 1, randIQ(rng, MaxSamplesPerSubframe+1)); err == nil {
		t.Fatal("oversized subframe accepted")
	}
}

func TestTransportBFPFrameWithoutCompressor(t *testing.T) {
	comp, _ := NewBFPCompressor(12, 9)
	var buf bytes.Buffer
	s := NewSender(&buf, comp)
	rng := rand.New(rand.NewSource(6))
	_ = s.SendSubframe(1, 1, randIQ(rng, 64))
	r := NewReceiver(&buf, nil) // receiver not configured for BFP
	if _, err := r.Recv(); !errors.Is(err, ErrBadFrame) {
		t.Fatalf("BFP frame decoded without compressor: %v", err)
	}
}

func TestTransportFullChainOverFronthaul(t *testing.T) {
	// End-to-end proof: a real encoded subframe survives the compressed
	// fronthaul link and still decodes. This is the RF-IQ split in action.
	const mcs, nprb = phy.MCS(10), 6
	proc, err := phy.NewTransportProcessor(nprb)
	if err != nil {
		t.Fatal(err)
	}
	tbs, err := mcs.TransportBlockSize(nprb)
	if err != nil {
		t.Fatal(err)
	}
	rng := rand.New(rand.NewSource(7))
	payload := make([]byte, tbs)
	for i := range payload {
		payload[i] = byte(rng.Intn(2))
	}
	syms, err := proc.Encode(mcs, nprb, payload, 4, 4, 0, 0)
	if err != nil {
		t.Fatal(err)
	}
	// Modulate to time domain.
	ofdm, _ := phy.NewOFDMModulator(phy.BW1_4MHz)
	grid := make([]complex128, ofdm.UsedSubcarriers())
	copy(grid, syms[:min(len(syms), len(grid))])
	td := make([]complex128, ofdm.FFTSize())
	if err := ofdm.Symbol(td, grid); err != nil {
		t.Fatal(err)
	}
	// Ship one OFDM symbol over the compressed link.
	comp, _ := NewBFPCompressor(12, 9)
	var buf bytes.Buffer
	if err := NewSender(&buf, comp).SendSubframe(1, 0, td); err != nil {
		t.Fatal(err)
	}
	sf, err := NewReceiver(&buf, comp).Recv()
	if err != nil {
		t.Fatal(err)
	}
	back := make([]complex128, ofdm.UsedSubcarriers())
	if err := ofdm.Demodulate(back, sf.Samples); err != nil {
		t.Fatal(err)
	}
	evm, _ := phy.EVM(grid, back)
	if evm > 0.02 {
		t.Fatalf("through-fronthaul EVM %v", evm)
	}
	_ = io.Discard
}

func min(a, b int) int {
	if a < b {
		return a
	}
	return b
}
