package experiments

import (
	"fmt"
	"runtime"

	"pran/internal/cluster"
	"pran/internal/phy"
)

// E18VectorFrontEnd measures what the AVX2 tile pipeline buys inside the
// fused decode front-end: per-MCS front-end stage time under three variants
// — the staged three-sweep oracle, the fused pipeline with the pure-Go tile
// kernels (NoVectorFrontEnd), and the fused pipeline with the AVX2 tile
// kernels — at a fully loaded 100-PRB subframe. The e2e column uses the int16 turbo kernel, where the pre-turbo chain owns
// the largest share of the decode and the vector kernels matter most.
//
// On hosts without AVX2 (or under the purego build tag) the vector variant
// silently runs the same pure-Go tiles, the speedup columns read ~1.00x,
// and the fe_avx2 metric is 0 so downstream gates know to stand down.
//
// The frontier row recomputes the deadline-feasibility frontier on the cost
// model's vector coefficients (CostModel.FrontEndVector): the per-RE fused
// costs shrink, so the highest MCS whose 100-PRB subframe fits the ~2 ms
// HARQ budget can move up.
func E18VectorFrontEnd(quick bool) (Result, error) {
	// Higher rep counts than the sibling ablations: the measured quantity
	// is a single sub-millisecond stage, so one-shot timings jitter badly
	// on loaded hosts, and several full decodes per round are cheap.
	mcsGrid := []phy.MCS{4, 13, 22, 27}
	reps := 6
	if quick {
		mcsGrid = []phy.MCS{13, 27}
		reps = 4
	}
	res := Result{
		ID:      "E18",
		Title:   "Vector front-end: AVX2 tile demodulation with folded descrambling vs scalar tiles",
		Header:  []string{"mcs", "fe-staged(ms)", "fe-scalar(ms)", "fe-vector(ms)", "vec-speedup", "vs-staged", "e2e-i16"},
		Metrics: map[string]float64{},
	}
	avx2 := 0.0
	if phy.FrontEndAVX2() {
		avx2 = 1
	}
	res.Metrics["fe_avx2"] = avx2
	for _, mcs := range mcsGrid {
		seed := int64(mcs)*1801 + 3
		// Every metric is a ratio between these five configurations, so
		// they are sampled in two interleaved rounds merged with a
		// stage-wise min (see minStages): a slow window has to cover the
		// same configuration in both rounds to bias a ratio.
		cfgs := []phy.DecodeProfile{
			{Kernel: phy.KernelFloat32, FrontEnd: phy.FrontEndStaged},
			{Kernel: phy.KernelFloat32, NoVectorFrontEnd: true},
			{Kernel: phy.KernelFloat32},
			{NoVectorFrontEnd: true},
			{},
		}
		tm := make([]phy.StageTimings, len(cfgs))
		for round := 0; round < 2; round++ {
			for i, o := range cfgs {
				t, err := measureDecode(mcs, 100, reps, seed, o)
				if err != nil {
					return res, err
				}
				if round == 0 {
					tm[i] = t
				} else {
					tm[i] = minStages(tm[i], t)
				}
			}
		}
		st, sc, ve, sci, vei := tm[0], tm[1], tm[2], tm[3], tm[4]
		// vec-speedup compares the two fused variants stage for stage: the
		// same two-phase pass, pure-Go tiles vs AVX2 tiles. vs-staged is the
		// cumulative front-end win over the three staged sweeps.
		feStaged := (st.Demodulate + st.Descramble + st.Dematch).Seconds()
		feScalar := sc.FrontEnd.Seconds()
		feVector := ve.FrontEnd.Seconds()
		vecSpeedup := feScalar / feVector
		vsStaged := feStaged / feVector
		e2eI16 := sci.Total().Seconds() / vei.Total().Seconds()
		res.Rows = append(res.Rows, []string{
			fmt.Sprintf("%d", mcs),
			ms(feStaged),
			ms(feScalar),
			ms(feVector),
			fmt.Sprintf("%.2fx", vecSpeedup),
			fmt.Sprintf("%.2fx", vsStaged),
			fmt.Sprintf("%.2fx", e2eI16),
		})
		res.Metrics[fmt.Sprintf("fe_vec_speedup_mcs%d", mcs)] = vecSpeedup
		res.Metrics[fmt.Sprintf("fe_vec_vs_staged_mcs%d", mcs)] = vsStaged
		res.Metrics[fmt.Sprintf("e2e_vec_speedup_mcs%d_i16", mcs)] = e2eI16
	}

	// On the cost model: the feasibility frontier on the vector fused
	// coefficients. DefaultCostModel carries representative scalar and
	// vector columns (Calibrate measures both on the host); the reference
	// host here is one whose default tiles are the vector ones, and the
	// scalar frontier is the profile that opts out of them.
	m := cluster.DefaultCostModel()
	m.FrontEndVector = true
	fs := feasibleMCS(m.WithProfile(phy.DecodeProfile{NoVectorFrontEnd: true}))
	fv := feasibleMCS(m)
	res.Metrics["feasible_mcs_vec_i16_1w"] = float64(fv)
	res.Notes = append(res.Notes,
		fmt.Sprintf("model feasibility frontier (2 ms HARQ budget, int16 kernel, reference core): MCS %d (scalar fused) → MCS %d (vector fused)", fs, fv),
		fmt.Sprintf("host AVX2 front-end: %v (GOMAXPROCS=%d); without it all three columns run pure Go and the speedups read ~1.00x", phy.FrontEndAVX2(), runtime.GOMAXPROCS(0)),
		"fe columns: the pre-turbo chain at 100 PRB, op+3 dB; staged = demod+descramble+dematch sweeps, scalar/vector = the two-phase tile pass (expand keystream signs → demod tile → scatter through the rate-match inverse)",
		"e2e-i16: whole-decode speedup scalar-fused → vector-fused under the int16 turbo kernel")
	return res, nil
}
