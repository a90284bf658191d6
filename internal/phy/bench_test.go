package phy

import (
	"fmt"
	"math/rand"
	"testing"
)

// Component-level benchmarks backing the cost-model calibration: these are
// the per-stage costs cluster.Calibrate measures at runtime.

// BenchmarkFFT times the transform against its complex128 oracle, forward
// and inverse at 1024 and 2048 points; the forward transform's three parts
// alone (load: complex128 → planes with the first three stages; stages: the
// rest; store: planes → complex128 bins); and one symbol of the 20 MHz
// OFDM demodulation a cell runs 14 times a subframe (cluster.Calibrate's
// FFT column).
func BenchmarkFFT(b *testing.B) {
	for _, n := range []int{1024, 2048} {
		f, err := NewFFT(n)
		if err != nil {
			b.Fatal(err)
		}
		o := newFFTOracle(n)
		for _, c := range []struct {
			name string
			run  func([]complex128) error
		}{
			{"default", f.Forward}, {"default_inverse", f.Inverse},
			{"oracle", o.Forward}, {"oracle_inverse", o.Inverse},
			{"load", func(x []complex128) error { f.loadPlanes(x, false); return nil }},
			{"stages", func(x []complex128) error { f.runStages(x); return nil }},
			{"store", func(x []complex128) error { widen(x, f.re, f.im, 1); return nil }},
		} {
			b.Run(fmt.Sprintf("%d/%s", n, c.name), func(b *testing.B) {
				x := randSymbols(rand.New(rand.NewSource(1)), n)
				b.ReportAllocs()
				b.ResetTimer()
				for i := 0; i < b.N; i++ {
					if err := c.run(x); err != nil {
						b.Fatal(err)
					}
				}
			})
		}
	}
	b.Run("OFDMDemodulate20MHz", func(b *testing.B) {
		o, err := NewOFDMModulator(BW20MHz)
		if err != nil {
			b.Fatal(err)
		}
		samples := randSymbols(rand.New(rand.NewSource(1)), o.FFTSize())
		dst := make([]complex128, o.UsedSubcarriers())
		b.ReportAllocs()
		b.ResetTimer()
		for i := 0; i < b.N; i++ {
			if err := o.Demodulate(dst, samples); err != nil {
				b.Fatal(err)
			}
		}
	})
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

// BenchmarkTurboDecodeK6144 times the float32 reference decoder on one
// K=6144 block at 4 iterations.
func BenchmarkTurboDecodeK6144(b *testing.B) {
	const k = 6144
	enc := NewTurboEncoder()
	dec := newFloatDecoder()
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
// BenchmarkTurboDecodeK6144: the ratio between the two is the scalar int16
// kernel's arithmetic win, before lockstep (BenchmarkBatchVsScalarI16).
func BenchmarkTurboDecodeK6144Int16(b *testing.B) {
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
// uplink receive chain at a fully loaded 20 MHz subframe at high MCS and at
// a mid-range operating point. Each shape runs on the default pipeline and
// on every reference pipeline that swaps one of its stages (reference_test.go),
// so the ratio of a sub-benchmark to "default" is what that stage of the
// default buys: the int16 kernel over float32, width-8 lockstep over the
// scalar int16 decode, the fused front-end over the staged sweeps, and the
// AVX2 tiles over the pure-Go ones.
func BenchmarkFullDecode(b *testing.B) {
	pipelines := []struct {
		name string
		pipe pipeline
	}{
		{"default", pipeline{}},
		{"batch1", pipeline{turbo: turboPerBlock}},
		{"float32", pipeline{turbo: turboFloat32}},
		{"staged", pipeline{staged: true}},
		{"novecfe", pipeline{goTiles: true}},
	}
	for _, sh := range []struct {
		mcs  MCS
		nprb int
	}{{22, 100}, {13, 50}} {
		for _, p := range pipelines {
			b.Run(fmt.Sprintf("MCS%d_%dPRB/%s", sh.mcs, sh.nprb, p.name), func(b *testing.B) {
				benchFullDecode(b, sh.mcs, sh.nprb, p.pipe)
			})
		}
	}
}

func benchFullDecode(b *testing.B, mcs MCS, nprb int, r pipeline) {
	b.Helper()
	proc, err := newTBProc(mcs, nprb, r)
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
	// The first decode builds the processor's decode buffers and turbo
	// working set; keep it out of the timed loop.
	if _, err := proc.Decode(rx, ch.N0(), 1, 1, 0, 0, nil); err != nil {
		b.Fatal(err)
	}
	b.SetBytes(int64(proc.TransportBlockSize()) / 8)
	b.ReportAllocs()
	b.ResetTimer()
	for i := 0; i < b.N; i++ {
		if _, err := proc.Decode(rx, ch.N0(), 1, 1, 0, 0, nil); err != nil {
			b.Fatal(err)
		}
	}
}
