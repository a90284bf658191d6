package phy

import (
	"math/rand"
	"testing"
)

// Component-level benchmarks backing the cost-model calibration: these are
// the per-stage costs cluster.Calibrate measures at runtime.

func BenchmarkFFT2048(b *testing.B) {
	f, err := NewFFT(2048)
	if err != nil {
		b.Fatal(err)
	}
	rng := rand.New(rand.NewSource(1))
	x := randSymbols(rng, 2048)
	b.ReportAllocs()
	b.ResetTimer()
	for i := 0; i < b.N; i++ {
		if err := f.Forward(x); err != nil {
			b.Fatal(err)
		}
	}
}

// BenchmarkFFT2048Inverse exercises the precomputed inverse-twiddle path
// (the forward/inverse butterflies are branch-identical since the conjugate
// table replaced the per-butterfly `if inverse`).
func BenchmarkFFT2048Inverse(b *testing.B) {
	f, err := NewFFT(2048)
	if err != nil {
		b.Fatal(err)
	}
	rng := rand.New(rand.NewSource(1))
	x := randSymbols(rng, 2048)
	b.ReportAllocs()
	b.ResetTimer()
	for i := 0; i < b.N; i++ {
		if err := f.Inverse(x); err != nil {
			b.Fatal(err)
		}
	}
}

func BenchmarkTurboEncodeK6144(b *testing.B) {
	const k = 6144
	enc := NewTurboEncoder()
	rng := rand.New(rand.NewSource(2))
	input := randBits(rng, k)
	d0 := make([]byte, k+4)
	d1 := make([]byte, k+4)
	d2 := make([]byte, k+4)
	b.SetBytes(int64(k) / 8)
	b.ReportAllocs()
	b.ResetTimer()
	for i := 0; i < b.N; i++ {
		if err := enc.Encode(d0, d1, d2, input); err != nil {
			b.Fatal(err)
		}
	}
}

func BenchmarkTurboDecodeK6144(b *testing.B) {
	const k = 6144
	enc := NewTurboEncoder()
	dec := NewTurboDecoder()
	dec.MaxIterations = 4
	rng := rand.New(rand.NewSource(3))
	input := randBits(rng, k)
	d0 := make([]byte, k+4)
	d1 := make([]byte, k+4)
	d2 := make([]byte, k+4)
	if err := enc.Encode(d0, d1, d2, input); err != nil {
		b.Fatal(err)
	}
	l0, l1, l2 := bitsToLLR(d0, 2), bitsToLLR(d1, 2), bitsToLLR(d2, 2)
	out := make([]byte, k)
	b.SetBytes(int64(k) / 8)
	b.ReportAllocs()
	b.ResetTimer()
	for i := 0; i < b.N; i++ {
		if _, err := dec.Decode(out, l0, l1, l2); err != nil {
			b.Fatal(err)
		}
	}
}

// BenchmarkTurboDecodeK6144Int16 is the quantized-kernel counterpart of
// BenchmarkTurboDecodeK6144; the ratio between the two is the E12 headline.
func BenchmarkTurboDecodeK6144Int16(b *testing.B) {
	const k = 6144
	enc := NewTurboEncoder()
	dec, _ := NewTurboDecoderKernel(KernelInt16)
	dec.MaxIterations = 4
	rng := rand.New(rand.NewSource(3))
	input := randBits(rng, k)
	d0 := make([]byte, k+4)
	d1 := make([]byte, k+4)
	d2 := make([]byte, k+4)
	if err := enc.Encode(d0, d1, d2, input); err != nil {
		b.Fatal(err)
	}
	l0, l1, l2 := bitsToLLR(d0, 2), bitsToLLR(d1, 2), bitsToLLR(d2, 2)
	out := make([]byte, k)
	b.SetBytes(int64(k) / 8)
	b.ReportAllocs()
	b.ResetTimer()
	for i := 0; i < b.N; i++ {
		if _, err := dec.Decode(out, l0, l1, l2); err != nil {
			b.Fatal(err)
		}
	}
}

func BenchmarkModulate64QAM(b *testing.B) {
	rng := rand.New(rand.NewSource(4))
	bits := randBits(rng, 14400*6)
	syms := make([]complex128, 0, len(bits)/6)
	b.SetBytes(int64(len(bits)) / 8)
	b.ReportAllocs()
	b.ResetTimer()
	for i := 0; i < b.N; i++ {
		syms = syms[:0]
		var err error
		syms, err = Modulate(syms, bits, QAM64)
		if err != nil {
			b.Fatal(err)
		}
	}
}

func BenchmarkDemodulate64QAM(b *testing.B) {
	rng := rand.New(rand.NewSource(4))
	bits := randBits(rng, 14400*6)
	syms, err := Modulate(nil, bits, QAM64)
	if err != nil {
		b.Fatal(err)
	}
	llr := make([]float32, 0, len(bits))
	b.SetBytes(int64(len(syms)))
	b.ReportAllocs()
	b.ResetTimer()
	for i := 0; i < b.N; i++ {
		llr = llr[:0]
		llr, err = Demodulate(llr, syms, QAM64, 0.1)
		if err != nil {
			b.Fatal(err)
		}
	}
}

func BenchmarkScramble(b *testing.B) {
	bits := make([]byte, 50000)
	s := NewScrambler(ScramblerInit(1, 2, 3))
	s.Scramble(bits) // warm the keystream
	b.SetBytes(int64(len(bits)) / 8)
	b.ReportAllocs()
	b.ResetTimer()
	for i := 0; i < b.N; i++ {
		s.Scramble(bits)
	}
}

func BenchmarkCRC24A(b *testing.B) {
	rng := rand.New(rand.NewSource(5))
	bits := randBits(rng, 60000)
	b.SetBytes(int64(len(bits)) / 8)
	b.ResetTimer()
	for i := 0; i < b.N; i++ {
		_ = CRC24A(bits)
	}
}

// BenchmarkFullDecode is the headline per-subframe number: the complete
// uplink receive chain for a fully loaded 20 MHz subframe at high MCS.
func BenchmarkFullDecode_MCS22_100PRB(b *testing.B) {
	benchFullDecode(b, 22, 100)
}

// BenchmarkFullDecode_MCS13_50PRB is the mid-range operating point.
func BenchmarkFullDecode_MCS13_50PRB(b *testing.B) {
	benchFullDecode(b, 13, 50)
}

func benchFullDecode(b *testing.B, mcs MCS, nprb int) {
	b.Helper()
	proc, err := newTBProc(mcs, nprb, DecodeProfile{})
	if err != nil {
		b.Fatal(err)
	}
	rng := rand.New(rand.NewSource(6))
	payload := randBits(rng, proc.TransportBlockSize())
	syms, err := proc.Encode(payload, 1, 1, 0, 0)
	if err != nil {
		b.Fatal(err)
	}
	rx := append([]complex128(nil), syms...)
	ch := NewAWGNChannel(mcs.OperatingSNR()+3, 7)
	ch.Apply(rx)
	b.SetBytes(int64(proc.TransportBlockSize()) / 8)
	b.ReportAllocs()
	b.ResetTimer()
	for i := 0; i < b.N; i++ {
		if _, err := proc.Decode(rx, ch.N0(), 1, 1, 0, 0, nil); err != nil {
			b.Fatal(err)
		}
	}
}
