package experiments

import (
	"errors"
	"fmt"
	"math/rand"

	"pran/internal/cluster"
	"pran/internal/phy"
)

// E12KernelAblation measures what the default decode path — the quantized
// int16 max-log-MAP kernel at lockstep width 8 — buys over the float32
// oracle and what it costs: per-MCS turbo-stage speedup at a fully loaded
// 100-PRB subframe (single worker, so the ratio is kernel arithmetic and
// lockstep, not parallelism; E17 splits the two), BLER of both kernels in
// the steepest part of the waterfall, and the deadline-feasibility frontier
// the cost model predicts for each kernel. With the per-block ingest gain
// the int16 kernel sits on the float32 BLER curve (the phy parity tests pin
// it at the high-SNR corner, where the fixed ±16 saturation used to cost
// most); the float32 column 0.2 dB lower is kept as the scale of what a
// quantization penalty would look like.
func E12KernelAblation(quick bool) (Result, error) {
	mcsGrid := []phy.MCS{4, 13, 22, 27}
	reps := 3
	trials := 40
	if quick {
		mcsGrid = []phy.MCS{4, 27}
		reps = 1
		trials = 12
	}
	res := Result{
		ID:      "E12",
		Title:   "Decode-kernel ablation: default int16 lockstep vs float32 oracle max-log-MAP",
		Header:  []string{"mcs", "turbo-f32(ms)", "turbo-i16(ms)", "turbo-speedup", "total-speedup", "bler-i16", "bler-f32", "bler-f32@-0.2dB"},
		Metrics: map[string]float64{},
	}
	f32 := phy.DecodeProfile{Kernel: phy.KernelFloat32}
	for _, mcs := range mcsGrid {
		tf, err := measureDecode(mcs, 100, reps, int64(mcs)*1201, f32)
		if err != nil {
			return res, err
		}
		ti, err := measureDecode(mcs, 100, reps, int64(mcs)*1201, phy.DecodeProfile{})
		if err != nil {
			return res, err
		}
		turboSpeedup := tf.TurboDecode.Seconds() / ti.TurboDecode.Seconds()
		totalSpeedup := tf.Total().Seconds() / ti.Total().Seconds()

		// BLER at the steepest point of the waterfall (op+0.5 dB, 6 PRB),
		// identical payloads and channel noise across the three columns.
		snr := mcs.OperatingSNR() + 0.5
		seed := 1300 + int64(mcs)
		bi, err := measureKernelBLER(mcs, 6, snr, trials, seed, phy.KernelInt16)
		if err != nil {
			return res, err
		}
		bf, err := measureKernelBLER(mcs, 6, snr, trials, seed, phy.KernelFloat32)
		if err != nil {
			return res, err
		}
		bref, err := measureKernelBLER(mcs, 6, snr-0.2, trials, seed, phy.KernelFloat32)
		if err != nil {
			return res, err
		}
		res.Rows = append(res.Rows, []string{
			fmt.Sprintf("%d", mcs),
			ms(tf.TurboDecode.Seconds()),
			ms(ti.TurboDecode.Seconds()),
			fmt.Sprintf("%.2fx", turboSpeedup),
			fmt.Sprintf("%.2fx", totalSpeedup),
			f(bi), f(bf), f(bref),
		})
		res.Metrics[fmt.Sprintf("speedup_mcs%d_turbo", mcs)] = turboSpeedup
		res.Metrics[fmt.Sprintf("speedup_mcs%d_total", mcs)] = totalSpeedup
		res.Metrics[fmt.Sprintf("bler_mcs%d_i16", mcs)] = bi
		res.Metrics[fmt.Sprintf("bler_mcs%d_f32", mcs)] = bf
		res.Metrics[fmt.Sprintf("bler_mcs%d_f32_minus02db", mcs)] = bref
	}

	// The same two profiles on the cost model: the single-worker
	// deadline-feasibility frontier, on the reference-core coefficients.
	m := cluster.DefaultCostModel()
	frontierF32 := feasibleMCS(m.WithProfile(f32))
	frontierI16 := feasibleMCS(m)
	res.Metrics["feasible_mcs_f32"] = float64(frontierF32)
	res.Metrics["feasible_mcs_i16"] = float64(frontierI16)
	res.Notes = append(res.Notes,
		"speedup at 100 PRB, single worker, op+3 dB: float32 oracle (one block at a time) vs the default int16 kernel at lockstep width 8 — no parallelism; E17 separates kernel from lockstep",
		"bler at op+0.5 dB / 6 PRB (mid-waterfall), same payloads and noise in every column: bler-i16 tracks bler-f32 (measured parity); bler-f32@-0.2dB shows what a 0.2 dB penalty would cost",
		fmt.Sprintf("model feasibility frontier at 1 worker (2 ms HARQ budget, reference core): MCS %d (float32 oracle) → MCS %d (default: int16 lockstep)", frontierF32, frontierI16),
	)
	return res, nil
}

// measureKernelBLER runs trials independent transport blocks through AWGN
// at the given SNR with the given decode kernel and returns the block error
// rate (the experiments-side sibling of the phy test helper).
func measureKernelBLER(mcs phy.MCS, nprb int, snrDB float64, trials int, seed int64, kernel phy.DecodeKernel) (float64, error) {
	proc, err := phy.NewTransportProcessor(nprb, phy.DecodeProfile{Kernel: kernel})
	if err != nil {
		return 0, err
	}
	tbs, err := mcs.TransportBlockSize(nprb)
	if err != nil {
		return 0, err
	}
	rng := rand.New(rand.NewSource(seed))
	ch := phy.NewAWGNChannel(snrDB, seed+1)
	errsN := 0
	rx := make([]complex128, nprb*phy.DataREsPerPRB)
	payload := make([]byte, tbs)
	for i := 0; i < trials; i++ {
		for j := range payload {
			payload[j] = byte(rng.Intn(2))
		}
		syms, err := proc.Encode(mcs, nprb, payload, uint16(i+1), 7, uint8(i%10), 0)
		if err != nil {
			return 0, err
		}
		copy(rx, syms)
		ch.Apply(rx)
		if _, err := proc.Decode(mcs, nprb, rx, ch.N0(), uint16(i+1), 7, uint8(i%10), 0, nil); err != nil {
			if !errors.Is(err, phy.ErrCRC) {
				return 0, err
			}
			errsN++
		}
	}
	return float64(errsN) / float64(trials), nil
}
