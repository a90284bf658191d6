package cluster

import (
	"fmt"
	"math"
	"math/rand"
	"time"

	"pran/internal/phy"
)

// Calibrate measures the host's actual per-stage DSP costs by running the
// real internal/phy implementations on the pipeline the data plane runs (the
// processor's one decode pipeline, on whatever tile kernels this host has) and
// returns a CostModel whose coefficients reflect this machine. The run takes
// a few hundred milliseconds. Use DefaultCostModel when speed matters more
// than fidelity (unit tests); use Calibrate in benchmarks and experiments.
func Calibrate() (CostModel, error) {
	var m CostModel
	rng := rand.New(rand.NewSource(12345))

	// FFT: one symbol's OFDM demodulation at 20 MHz, the call a
	// dataplane.CellProcessor makes 14 times a subframe, per butterfly unit.
	{
		o, err := phy.NewOFDMModulator(phy.BW20MHz)
		if err != nil {
			return m, fmt.Errorf("cluster: calibrate FFT: %w", err)
		}
		n := float64(o.FFTSize())
		samples := make([]complex128, o.FFTSize())
		for i := range samples {
			samples[i] = complex(rng.NormFloat64(), rng.NormFloat64())
		}
		dst := make([]complex128, o.UsedSubcarriers())
		reps := 2000
		start := time.Now()
		for i := 0; i < reps; i++ {
			if err := o.Demodulate(dst, samples); err != nil {
				return m, err
			}
		}
		el := time.Since(start).Seconds()
		m.FFTPerButterfly = el / float64(reps) / (n * math.Log2(n))
	}

	// Front-end per RE for each constellation: a TransportProcessor decodes
	// a representative allocation per modulation and the measured
	// Timings.FrontEnd covers the whole fused pass (tile demod + keystream
	// sign-fold + soft de-rate-match scatter).
	for _, cfg := range []struct {
		mcs  phy.MCS
		coef *float64
	}{
		{4, &m.FrontEndPerREQPSK},   // QPSK
		{13, &m.FrontEndPerRE16QAM}, // 16-QAM
		{22, &m.FrontEndPerRE64QAM}, // 64-QAM
	} {
		const nprb = 50
		tbs, err := cfg.mcs.TransportBlockSize(nprb)
		if err != nil {
			return m, err
		}
		p, err := phy.NewTransportProcessor(nprb)
		if err != nil {
			return m, fmt.Errorf("cluster: calibrate front-end: %w", err)
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
		*cfg.coef = el.Seconds() / float64(reps) / float64(len(rx))
	}

	// Turbo decoding per code-block bit per iteration, for a lone block and
	// per lane of a full lockstep span: fixed iteration count, no early
	// termination.
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
		// A lone block: the scalar decoder.
		dec := phy.NewTurboDecoder()
		dec.MaxIterations = iters
		reps := 12
		start := time.Now()
		for i := 0; i < reps; i++ {
			if _, err := dec.Decode(out, l0, l1, l2); err != nil {
				return m, err
			}
		}
		m.TurboLonePerBitIter = time.Since(start).Seconds() / float64(reps) / (k * iters)

		// A full lockstep span: every lane of phy.BatchDecoderI16 carrying
		// the same block, with the same fixed iteration count; the
		// coefficient is per bit per iteration per lane.
		bd, err := phy.NewBatchDecoderI16(lockstepWidth)
		if err != nil {
			return m, err
		}
		bd.MaxIterations = iters
		blocks := make([][]byte, lockstepWidth)
		bl0 := make([][]float32, lockstepWidth)
		bl1 := make([][]float32, lockstepWidth)
		bl2 := make([][]float32, lockstepWidth)
		for b := range blocks {
			blocks[b] = make([]byte, k)
			bl0[b], bl1[b], bl2[b] = l0, l1, l2
		}
		never := func([]byte) bool { return false }
		reps = 6
		start = time.Now()
		for i := 0; i < reps; i++ {
			if _, _, err := bd.Decode(blocks, bl0, bl1, bl2, nil, never); err != nil {
				return m, err
			}
		}
		m.TurboLanePerBitIter = time.Since(start).Seconds() / float64(reps) / float64(k*iters*lockstepWidth)
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

	if err := m.Validate(); err != nil {
		return m, fmt.Errorf("cluster: calibration produced invalid model: %w", err)
	}
	return m, nil
}
