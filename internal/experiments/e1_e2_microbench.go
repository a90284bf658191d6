package experiments

import (
	"errors"
	"fmt"
	"math/rand"
	"time"

	"pran/internal/dataplane"
	"pran/internal/phy"
)

// measureDecode times the full uplink transport decode of a configuration on
// the processor a pool worker runs, returning the per-subframe stage timings
// over reps runs.
func measureDecode(mcs phy.MCS, nprb, reps int, seed int64) (phy.StageTimings, error) {
	proc, err := phy.NewTransportProcessor(nprb)
	if err != nil {
		return phy.StageTimings{}, err
	}
	tbs, err := mcs.TransportBlockSize(nprb)
	if err != nil {
		return phy.StageTimings{}, err
	}
	rng := rand.New(rand.NewSource(seed))
	payload := make([]byte, tbs)
	for i := range payload {
		payload[i] = byte(rng.Intn(2))
	}
	snr := mcs.OperatingSNR() + 3
	syms, err := proc.Encode(mcs, nprb, payload, 7, 101, 2, 0)
	if err != nil {
		return phy.StageTimings{}, err
	}
	rx := make([]complex128, len(syms))
	copy(rx, syms)
	ch := phy.NewAWGNChannel(snr, seed)
	ch.Apply(rx)

	// The first decode of a processor builds its decode-side buffers and
	// turbo working set; run it untimed so every rep below measures the steady state.
	if _, err := proc.Decode(mcs, nprb, rx, ch.N0(), 7, 101, 2, 0, nil); err != nil && !errors.Is(err, phy.ErrCRC) {
		return phy.StageTimings{}, err
	}

	// The decode input is identical every rep, so the work is
	// deterministic and the spread across reps is pure interference
	// (scheduler preemption, frequency scaling). The minimum per stage is
	// the robust estimator of intrinsic cost: a mean lets one throttled
	// window poison a whole configuration, which made the quick-run
	// speedup ratios flake on loaded hosts.
	var min phy.StageTimings
	ok := 0
	for i := 0; i < reps; i++ {
		if _, err := proc.Decode(mcs, nprb, rx, ch.N0(), 7, 101, 2, 0, nil); err != nil {
			continue
		}
		t := proc.Timings
		if ok == 0 {
			min = t
		} else {
			minDur(&min.FrontEnd, t.FrontEnd)
			minDur(&min.TurboDecode, t.TurboDecode)
			minDur(&min.CRCCheck, t.CRCCheck)
		}
		ok++
	}
	if ok == 0 {
		return phy.StageTimings{}, fmt.Errorf("experiments: no successful decode at MCS %d, %d PRB", mcs, nprb)
	}
	return min, nil
}

func minDur(dst *time.Duration, v time.Duration) {
	if v < *dst {
		*dst = v
	}
}

// E1SubframeVsMCS reconstructs the paper's software-PHY microbenchmark:
// uplink subframe processing time as a function of MCS for 25/50/100 PRB.
// Expected shape: ~linear in PRBs, superlinear in MCS efficiency, with the
// high-MCS wide-band corner defining the provisioning requirement. Every
// column decodes on the processor's one pipeline, the int16 lockstep kernel
// behind the fused front-end; phy's BenchmarkFullDecode times its test
// reference pipelines next to it.
func E1SubframeVsMCS(quick bool) (Result, error) {
	mcsGrid := []phy.MCS{0, 4, 9, 13, 17, 22, 28}
	prbGrid := []int{25, 50, 100}
	reps := 3
	if quick {
		mcsGrid = []phy.MCS{0, 13, 28}
		prbGrid = []int{25, 100}
		reps = 2 // min of two: one preempted decode must not bend the shape
	}
	res := Result{
		ID:      "E1",
		Title:   "UL subframe processing time vs MCS and bandwidth (measured Go DSP)",
		Header:  []string{"mcs", "mod", "tbs@100prb(bits)", "t@25prb(ms)", "t@50prb(ms)", "t@100prb(ms)", "turbo-iters"},
		Metrics: map[string]float64{},
	}
	for _, mcs := range mcsGrid {
		row := []string{fmt.Sprintf("%d", mcs), mcs.Modulation().String()}
		tbs, err := mcs.TransportBlockSize(100)
		if err != nil {
			return res, err
		}
		row = append(row, fmt.Sprintf("%d", tbs))
		iters := 0
		for _, nprb := range []int{25, 50, 100} {
			in := false
			for _, p := range prbGrid {
				if p == nprb {
					in = true
				}
			}
			if !in {
				row = append(row, "-")
				continue
			}
			tm, err := measureDecode(mcs, nprb, reps, int64(mcs)*100+int64(nprb))
			if err != nil {
				return res, err
			}
			row = append(row, ms(tm.Total().Seconds()))
			iters = tm.TurboIterations
			res.Metrics[fmt.Sprintf("mcs%d_prb%d_ms", mcs, nprb)] = tm.Total().Seconds() * 1e3
		}
		row = append(row, fmt.Sprintf("%d", iters))
		res.Rows = append(res.Rows, row)
	}
	res.Notes = append(res.Notes,
		"default decode path: int16 turbo, code blocks decoded 8 at a time in lockstep behind the fused front-end (phy BenchmarkFullDecode times the float32 and staged oracles next to it); a transport block with fewer than 8 code blocks leaves lanes empty, so time is not linear in PRB",
		"operating point: per-MCS operating SNR + 3 dB, CRC-based early termination active")
	return res, nil
}

// E2StageBreakdown reconstructs the per-stage cost breakdown figure:
// where the subframe budget goes at representative MCS points (100 PRB).
// Expected shape: turbo decoding dominates and its share grows with MCS.
// Every stage is the default path's: the front-end column is the one fused
// pass (demodulation, descrambling and de-rate-matching together), the
// turbo column the int16 lockstep kernel.
func E2StageBreakdown(quick bool) (Result, error) {
	mcsGrid := []phy.MCS{4, 13, 22, 27}
	reps := 3
	if quick {
		mcsGrid = []phy.MCS{4, 27}
		reps = 1
	}
	res := Result{
		ID:      "E2",
		Title:   "Processing-time breakdown by pipeline stage, 100 PRB (measured)",
		Header:  []string{"mcs", "fft(ms)", "front-end(ms)", "turbo(ms)", "crc(ms)", "turbo-share"},
		Metrics: map[string]float64{},
	}
	// Cell-level FFT stage cost (14 symbols at 2048-point), measured once.
	fftCost, err := measureFFTStage()
	if err != nil {
		return res, err
	}
	for _, mcs := range mcsGrid {
		tm, err := measureDecode(mcs, 100, reps, int64(mcs)*977)
		if err != nil {
			return res, err
		}
		total := tm.Total() + fftCost
		share := float64(tm.TurboDecode) / float64(total)
		res.Rows = append(res.Rows, []string{
			fmt.Sprintf("%d", mcs),
			ms(fftCost.Seconds()),
			ms(tm.FrontEnd.Seconds()),
			ms(tm.TurboDecode.Seconds()),
			ms(tm.CRCCheck.Seconds()),
			fmt.Sprintf("%.0f%%", share*100),
		})
		res.Metrics[fmt.Sprintf("mcs%d_turbo_share", mcs)] = share
	}
	res.Notes = append(res.Notes,
		"fft column is the per-cell OFDM stage (14 × 2048-point FFT), shared across all UEs in the subframe",
		"default decode path: the front-end column is the fused pass (demod + descramble + dematch in one sweep), turbo the int16 lockstep kernel; phy BenchmarkFullDecode times the staged and float32 oracles")
	return res, nil
}

// measureFFTStage times the cell-level OFDM demodulation of one subframe.
func measureFFTStage() (time.Duration, error) {
	o, err := phy.NewOFDMModulator(phy.BW20MHz)
	if err != nil {
		return 0, err
	}
	samples := make([]complex128, o.FFTSize())
	rng := rand.New(rand.NewSource(5))
	for i := range samples {
		samples[i] = complex(rng.NormFloat64(), rng.NormFloat64())
	}
	dst := make([]complex128, o.UsedSubcarriers())
	const reps = 20
	start := time.Now()
	for i := 0; i < reps; i++ {
		for l := 0; l < phy.SymbolsPerSubframe; l++ {
			if err := o.Demodulate(dst, samples); err != nil {
				return 0, err
			}
		}
	}
	return time.Since(start) / reps, nil
}

// scaledBudget returns the host-calibrated deadline used by the measured
// deadline experiments, so shapes are comparable across machines.
var calibratedScale float64

// deadlineScale lazily calibrates once per process.
func deadlineScale() (float64, error) {
	if calibratedScale > 0 {
		return calibratedScale, nil
	}
	s, err := dataplane.CalibrateDeadlineScale(phy.BW5MHz, 16)
	if err != nil {
		return 0, err
	}
	calibratedScale = s
	return s, nil
}
