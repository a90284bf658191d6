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
// the given decode profile, returning the per-subframe stage timings over
// reps runs (experiments that attribute cost to individual pre-turbo stages
// name FrontEndStaged, since the fused pass reports one combined time).
func measureDecode(mcs phy.MCS, nprb, reps int, seed int64, prof phy.DecodeProfile) (phy.StageTimings, error) {
	proc, err := phy.NewTransportProcessor(nprb, prof)
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
			minDur(&min.Demodulate, t.Demodulate)
			minDur(&min.Descramble, t.Descramble)
			minDur(&min.Dematch, t.Dematch)
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

// minStages merges two stage-timing samples of the same configuration,
// keeping the per-stage minimum. Experiments whose metrics are ratios of
// configurations measured back to back use this to merge measurement
// rounds that are separated in time: a frequency-scaling or scheduling
// burst long enough to cover every rep of one configuration then has to
// recur over the same configuration in a later round to bias the ratio.
func minStages(a, b phy.StageTimings) phy.StageTimings {
	minDur(&a.Demodulate, b.Demodulate)
	minDur(&a.Descramble, b.Descramble)
	minDur(&a.Dematch, b.Dematch)
	minDur(&a.FrontEnd, b.FrontEnd)
	minDur(&a.TurboDecode, b.TurboDecode)
	minDur(&a.CRCCheck, b.CRCCheck)
	return a
}

// E1SubframeVsMCS reconstructs the paper's software-PHY microbenchmark:
// uplink subframe processing time as a function of MCS for 25/50/100 PRB.
// Expected shape: ~linear in PRBs, superlinear in MCS efficiency, with the
// high-MCS wide-band corner defining the provisioning requirement. Every
// column names the float32 reference kernel — the per-block decoder of the
// paper's era; E12/E17 measure what the default int16 lockstep path takes
// off it.
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
			tm, err := measureDecode(mcs, nprb, reps, int64(mcs)*100+int64(nprb), phy.DecodeProfile{Kernel: phy.KernelFloat32})
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
		"float32 reference kernel (phy.KernelFloat32), one block at a time: tens of times slower than the paper's SIMD C stack and several times slower than this repo's default int16 lockstep path (E12/E17); shapes (linear in PRB, turbo-dominated growth in MCS) are the reproduced result",
		"operating point: per-MCS operating SNR + 3 dB, CRC-based early termination active")
	return res, nil
}

// E2StageBreakdown reconstructs the per-stage cost breakdown figure:
// where the subframe budget goes at representative MCS points (100 PRB).
// Expected shape: turbo decoding dominates and its share grows with MCS.
// The front-end is pinned to FrontEndStaged so the three pre-turbo stages
// are individually attributable (E13 measures what fusing them buys), and
// the turbo column is the float32 reference kernel (E12 measures what the
// default kernel takes off it).
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
		Header:  []string{"mcs", "fft(ms)", "demod(ms)", "descramble(ms)", "dematch(ms)", "turbo(ms)", "crc(ms)", "turbo-share"},
		Metrics: map[string]float64{},
	}
	// Cell-level FFT stage cost (14 symbols at 2048-point), measured once.
	fftCost, err := measureFFTStage()
	if err != nil {
		return res, err
	}
	for _, mcs := range mcsGrid {
		tm, err := measureDecode(mcs, 100, reps, int64(mcs)*977, phy.DecodeProfile{Kernel: phy.KernelFloat32, FrontEnd: phy.FrontEndStaged})
		if err != nil {
			return res, err
		}
		total := tm.Total() + fftCost
		share := float64(tm.TurboDecode) / float64(total)
		res.Rows = append(res.Rows, []string{
			fmt.Sprintf("%d", mcs),
			ms(fftCost.Seconds()),
			ms(tm.Demodulate.Seconds()),
			ms(tm.Descramble.Seconds()),
			ms(tm.Dematch.Seconds()),
			ms(tm.TurboDecode.Seconds()),
			ms(tm.CRCCheck.Seconds()),
			fmt.Sprintf("%.0f%%", share*100),
		})
		res.Metrics[fmt.Sprintf("mcs%d_turbo_share", mcs)] = share
	}
	res.Notes = append(res.Notes,
		"fft column is the per-cell OFDM stage (14 × 2048-point FFT), shared across all UEs in the subframe",
		"reference paths named on purpose: float32 kernel and staged front-end, for per-stage attribution; the default runs the int16 lockstep kernel (E12/E17) behind the fused front-end, which collapses demod+descramble+dematch into one pass (E13)")
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
