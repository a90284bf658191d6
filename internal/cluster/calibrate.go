package cluster

import (
	"fmt"
	"math"
	"math/rand"
	"time"

	"pran/internal/phy"
)

// Calibrate measures the host's actual per-stage DSP costs by running the
// real internal/phy implementations and returns a CostModel whose
// coefficients reflect this machine. The returned model prices the zero
// phy.DecodeProfile — the pipeline a dataplane.Config that names no other
// runs — and FrontEndVector records whether this host's default tiles are
// the vector ones; the coefficients of every other profile are measured
// too, for models derived with WithProfile. The run takes a few hundred
// milliseconds. Use DefaultCostModel when speed matters more than fidelity
// (unit tests); use Calibrate in benchmarks and experiments.
func Calibrate() (CostModel, error) {
	var m CostModel
	rng := rand.New(rand.NewSource(12345))

	// FFT: 1024-point plan, per-butterfly-unit cost.
	{
		const n = 1024
		f, err := phy.NewFFT(n)
		if err != nil {
			return m, fmt.Errorf("cluster: calibrate FFT: %w", err)
		}
		buf := make([]complex128, n)
		for i := range buf {
			buf[i] = complex(rng.NormFloat64(), rng.NormFloat64())
		}
		reps := 2000
		start := time.Now()
		for i := 0; i < reps; i++ {
			if err := f.Forward(buf); err != nil {
				return m, err
			}
		}
		el := time.Since(start).Seconds()
		m.FFTPerButterfly = el / float64(reps) / (n * math.Log2(n))
	}

	// Demodulation per RE for each constellation.
	for _, mod := range []phy.Modulation{phy.QPSK, phy.QAM16, phy.QAM64} {
		const nSym = 14400
		bits := make([]byte, nSym*mod.BitsPerSymbol())
		for i := range bits {
			bits[i] = byte(rng.Intn(2))
		}
		syms, err := phy.Modulate(nil, bits, mod)
		if err != nil {
			return m, err
		}
		llr := make([]float32, 0, len(bits))
		reps := 30
		start := time.Now()
		for i := 0; i < reps; i++ {
			llr = llr[:0]
			llr, err = phy.Demodulate(llr, syms, mod, 0.1)
			if err != nil {
				return m, err
			}
		}
		per := time.Since(start).Seconds() / float64(reps) / float64(nSym)
		switch mod {
		case phy.QPSK:
			m.DemodPerREQPSK = per
		case phy.QAM16:
			m.DemodPerRE16QAM = per
		case phy.QAM64:
			m.DemodPerRE64QAM = per
		}
	}

	// Descrambling per coded bit, including scrambler setup amortized over
	// one subframe's worth of bits (as the data plane pays it).
	{
		const n = 50000
		llr := make([]float32, n)
		for i := range llr {
			llr[i] = rng.Float32()*2 - 1
		}
		reps := 60
		start := time.Now()
		for i := 0; i < reps; i++ {
			s := phy.NewScrambler(phy.ScramblerInit(uint16(i), 7, 3))
			s.DescrambleLLR(llr)
		}
		m.DescramblePerBit = time.Since(start).Seconds() / float64(reps) / n
	}

	// De-rate-matching per coded bit.
	{
		const k = 6144
		rm, err := phy.NewRateMatcher(k)
		if err != nil {
			return m, err
		}
		e := 3 * (k + 4)
		llr := make([]float32, e)
		ld0 := make([]float32, k+4)
		ld1 := make([]float32, k+4)
		ld2 := make([]float32, k+4)
		reps := 60
		start := time.Now()
		for i := 0; i < reps; i++ {
			if err := rm.SoftDematch(ld0, ld1, ld2, llr, 0); err != nil {
				return m, err
			}
		}
		m.DematchPerBit = time.Since(start).Seconds() / float64(reps) / float64(e)
	}

	// Fused front-end per RE for each constellation, in two columns: the
	// pure-Go tile pipeline (NoVectorFrontEnd) and the default pipeline,
	// which uses the AVX2 tile kernels when the host has them. Each column
	// runs a serial fused TransportProcessor over a representative
	// allocation per modulation and reads the measured Timings.FrontEnd,
	// which covers the whole two-phase pass (tile demod + keystream
	// sign-fold + soft de-rate-match scatter). On hosts without AVX2 the
	// two columns measure the same code, so FusedVecPerRE* ≈ FusedPerRE*.
	for _, cfg := range []struct {
		mcs    phy.MCS
		scalar *float64
		vector *float64
	}{
		{4, &m.FusedPerREQPSK, &m.FusedVecPerREQPSK},    // QPSK
		{13, &m.FusedPerRE16QAM, &m.FusedVecPerRE16QAM}, // 16-QAM
		{22, &m.FusedPerRE64QAM, &m.FusedVecPerRE64QAM}, // 64-QAM
	} {
		const nprb = 50
		tbs, err := cfg.mcs.TransportBlockSize(nprb)
		if err != nil {
			return m, err
		}
		for _, col := range []struct {
			coef     *float64
			noVector bool
		}{
			{cfg.scalar, true},
			{cfg.vector, false},
		} {
			p, err := phy.NewTransportProcessor(nprb, phy.DecodeProfile{NoVectorFrontEnd: col.noVector})
			if err != nil {
				return m, fmt.Errorf("cluster: calibrate fused front-end: %w", err)
			}
			payload := make([]byte, tbs)
			for i := range payload {
				payload[i] = byte(rng.Intn(2))
			}
			syms, err := p.Encode(cfg.mcs, nprb, payload, 9, 301, 2, 0)
			if err != nil {
				return m, err
			}
			ch := phy.NewAWGNChannel(cfg.mcs.OperatingSNR()+5, 99)
			rx := append([]complex128(nil), syms...)
			ch.Apply(rx)
			reps := 20
			var el time.Duration
			for i := 0; i < reps; i++ {
				if _, err := p.Decode(cfg.mcs, nprb, rx, ch.N0(), 9, 301, 2, 0, nil); err != nil {
					return m, err
				}
				el += p.Timings.FrontEnd
			}
			*col.coef = el.Seconds() / float64(reps) / float64(len(rx))
		}
	}
	// Which of the two columns the host's default tiles are.
	m.FrontEndVector = phy.FrontEndAVX2()

	// Turbo decoding per code-block bit per iteration, measured once per
	// kernel: fixed iteration count, no early termination.
	{
		const k = 6144
		enc := phy.NewTurboEncoder()
		input := make([]byte, k)
		for i := range input {
			input[i] = byte(rng.Intn(2))
		}
		d0 := make([]byte, k+4)
		d1 := make([]byte, k+4)
		d2 := make([]byte, k+4)
		err := enc.Encode(d0, d1, d2, input)
		if err != nil {
			return m, err
		}
		toLLR := func(bits []byte) []float32 {
			l := make([]float32, len(bits))
			for i, b := range bits {
				if b == 0 {
					l[i] = 2
				} else {
					l[i] = -2
				}
			}
			return l
		}
		l0, l1, l2 := toLLR(d0), toLLR(d1), toLLR(d2)
		out := make([]byte, k)
		const iters = 4
		measure := func(kernel phy.DecodeKernel) (float64, error) {
			dec, err := phy.NewTurboDecoderKernel(kernel)
			if err != nil {
				return 0, err
			}
			dec.MaxIterations = iters
			reps := 12
			start := time.Now()
			for i := 0; i < reps; i++ {
				if _, err := dec.Decode(out, l0, l1, l2); err != nil {
					return 0, err
				}
			}
			return time.Since(start).Seconds() / float64(reps) / (k * iters), nil
		}
		if m.TurboPerBitIter, err = measure(phy.KernelFloat32); err != nil {
			return m, err
		}
		if m.TurboPerBitIterI16, err = measure(phy.KernelInt16); err != nil {
			return m, err
		}

		// Width-8 lockstep batch: eight lanes of the same block through
		// phy.BatchDecoderI16 with the same fixed iteration count; the
		// coefficient is per bit per iteration per lane.
		{
			const width = 8
			bd, err := phy.NewBatchDecoderI16(width)
			if err != nil {
				return m, err
			}
			bd.MaxIterations = iters
			blocks := make([][]byte, width)
			bl0 := make([][]float32, width)
			bl1 := make([][]float32, width)
			bl2 := make([][]float32, width)
			for b := 0; b < width; b++ {
				blocks[b] = make([]byte, k)
				bl0[b], bl1[b], bl2[b] = l0, l1, l2
			}
			never := func([]byte) bool { return false }
			reps := 6
			start := time.Now()
			for i := 0; i < reps; i++ {
				if _, _, err := bd.Decode(blocks, bl0, bl1, bl2, nil, never); err != nil {
					return m, err
				}
			}
			m.TurboPerBitIterI16Batch = time.Since(start).Seconds() / float64(reps) / (k * iters * width)
		}
	}

	// CRC per bit.
	{
		const n = 60000
		bits := make([]byte, n)
		for i := range bits {
			bits[i] = byte(rng.Intn(2))
		}
		reps := 60
		start := time.Now()
		for i := 0; i < reps; i++ {
			_ = phy.CRC24A(bits)
		}
		m.CRCPerBit = time.Since(start).Seconds() / float64(reps) / n
	}

	// Downlink encode chain per information bit (full TransportProcessor
	// encode at a mid-range configuration).
	{
		const mcs, nprb = 17, 50
		p, err := phy.NewTransportProcessor(nprb, phy.DecodeProfile{})
		if err != nil {
			return m, err
		}
		tbs, err := phy.MCS(mcs).TransportBlockSize(nprb)
		if err != nil {
			return m, err
		}
		payload := make([]byte, tbs)
		for i := range payload {
			payload[i] = byte(rng.Intn(2))
		}
		reps := 20
		start := time.Now()
		for i := 0; i < reps; i++ {
			if _, err := p.Encode(mcs, nprb, payload, 1, 1, 0, 0); err != nil {
				return m, err
			}
		}
		m.EncodePerBit = time.Since(start).Seconds() / float64(reps) / float64(tbs)
	}

	if err := m.Validate(); err != nil {
		return m, fmt.Errorf("cluster: calibration produced invalid model: %w", err)
	}
	return m, nil
}
