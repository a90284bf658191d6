package experiments

import (
	"fmt"

	"pran/internal/cluster"
	"pran/internal/phy"
)

// E13FrontEndAblation measures what the fused single-pass decode front-end
// buys over the staged three-sweep pipeline: per-MCS speedup on the
// pre-turbo bit chain (demodulate + descramble + dematch, plus the CRC check
// both paths share) at a fully loaded 100-PRB subframe, the resulting
// end-to-end decode gain under both turbo kernels, and the deadline-
// feasibility frontier the cost model predicts per front-end. The e2e
// columns with the int16 kernel are where the
// front-end matters most: the faster the turbo stage, the larger the share
// of the Amdahl ceiling the pre-turbo chain owns.
func E13FrontEndAblation(quick bool) (Result, error) {
	mcsGrid := []phy.MCS{4, 13, 22, 27}
	reps := 3
	if quick {
		mcsGrid = []phy.MCS{13, 27}
		// Each stage here is sub-millisecond, so a single rep jitters by
		// ±10% on a loaded host and the quick-run ratios (which both the
		// shape test and the CI floor gate on) flake; a few reps per round
		// (plus the two-round min below) stabilize them while keeping the
		// quick run under a couple of seconds.
		reps = 3
	}
	res := Result{
		ID:      "E13",
		Title:   "Front-end ablation: fused single-pass vs staged demod→descramble→dematch",
		Header:  []string{"mcs", "fe-staged(ms)", "fe-fused-sc(ms)", "fe-fused(ms)", "fe-speedup", "e2e-f32", "e2e-i16"},
		Metrics: map[string]float64{},
	}
	for _, mcs := range mcsGrid {
		seed := int64(mcs)*1301 + 7
		// Five configurations, measured in two interleaved rounds merged
		// with a stage-wise min: every metric below is a ratio between
		// configurations, so what matters is that no single configuration
		// is sampled only inside a slow window. The third configuration is
		// the fused pass with the pure-Go tile kernels pinned
		// (NoVectorFrontEnd) — it isolates the algorithmic fusion win from
		// the AVX2 vectorization win (which E18 measures in full).
		cfgs := []phy.DecodeProfile{
			{Kernel: phy.KernelFloat32, FrontEnd: phy.FrontEndStaged},
			{Kernel: phy.KernelFloat32},
			{Kernel: phy.KernelFloat32, NoVectorFrontEnd: true},
			{FrontEnd: phy.FrontEndStaged},
			{},
		}
		st := make([]phy.StageTimings, len(cfgs))
		for round := 0; round < 2; round++ {
			for i, o := range cfgs {
				t, err := measureDecode(mcs, 100, reps, seed, o)
				if err != nil {
					return res, err
				}
				if round == 0 {
					st[i] = t
				} else {
					st[i] = minStages(st[i], t)
				}
			}
		}
		sf, ff, fsc, si, fi := st[0], st[1], st[2], st[3], st[4]
		// Front-end comparison on the float32 runs (the bit chain is
		// kernel-independent): three staged sweeps vs the one fused pass,
		// with the CRC check — the only remaining serial stage — on both
		// sides of the ratio.
		feStaged := (sf.Demodulate + sf.Descramble + sf.Dematch + sf.CRCCheck).Seconds()
		feFused := (ff.FrontEnd + ff.CRCCheck).Seconds()
		feFusedSc := (fsc.FrontEnd + fsc.CRCCheck).Seconds()
		feSpeedup := feStaged / feFused
		e2eF32 := sf.Total().Seconds() / ff.Total().Seconds()
		e2eI16 := si.Total().Seconds() / fi.Total().Seconds()
		res.Rows = append(res.Rows, []string{
			fmt.Sprintf("%d", mcs),
			ms(feStaged),
			ms(feFusedSc),
			ms(feFused),
			fmt.Sprintf("%.2fx", feSpeedup),
			fmt.Sprintf("%.2fx", e2eF32),
			fmt.Sprintf("%.2fx", e2eI16),
		})
		res.Metrics[fmt.Sprintf("fe_speedup_mcs%d", mcs)] = feSpeedup
		res.Metrics[fmt.Sprintf("e2e_speedup_mcs%d_f32", mcs)] = e2eF32
		res.Metrics[fmt.Sprintf("e2e_speedup_mcs%d_i16", mcs)] = e2eI16
	}

	// On the cost model: the deadline-feasibility frontier per front-end.
	m := cluster.DefaultCostModel()
	fr := feasibleMCS(m)
	fs := feasibleMCS(m.WithProfile(phy.DecodeProfile{FrontEnd: phy.FrontEndStaged}))
	res.Metrics["feasible_mcs_fused_i16_1w"] = float64(fr)
	res.Metrics["feasible_mcs_staged_i16_1w"] = float64(fs)
	res.Notes = append(res.Notes,
		fmt.Sprintf("model feasibility frontier (2 ms HARQ budget, int16 kernel, reference core): MCS %d (staged) → MCS %d (fused)", fs, fr),
		"fe columns: demod+descramble+dematch+crc at 100 PRB, op+3 dB; fused path reports one combined FrontEnd time",
		"fe-fused-sc: the fused pass with the pure-Go tile kernels (NoVectorFrontEnd); fe-fused and the fe-speedup metric use the default pipeline, AVX2 tiles when the host has them (E18 isolates that gap)",
		"e2e columns: whole-decode speedup staged→fused per turbo kernel; larger under int16 because the turbo share shrinks")
	return res, nil
}
