package experiments

import (
	"fmt"
	"runtime"

	"pran/internal/cluster"
	"pran/internal/dataplane"
	"pran/internal/frame"
	"pran/internal/phy"
)

// E11ParallelSpeedup measures the repo's intra-subframe parallelization of
// turbo decoding: the speedup-vs-cores curve of the parallel code-block
// decoder, and the deadline-feasibility frontier it buys — the highest MCS
// whose fully loaded 100-PRB subframe fits the ~2 ms HARQ compute budget on
// a reference core at each parallelism.
//
// The measured columns fan phy.ParallelDecoder across this host's cores, so
// the observable speedup saturates at GOMAXPROCS (recorded in the notes) and
// at the transport block's code-block count (~13 at MCS 28 / 100 PRB). The
// frontier columns use the cluster cost model, whose AllocCostWorkers charges
// the same block-granular fan-out on a paper-representative reference core.
func E11ParallelSpeedup(quick bool) (Result, error) {
	workersGrid := []int{1, 2, 4, 8}
	reps := 3
	if quick {
		workersGrid = []int{1, 4}
		reps = 1
	}
	res := Result{
		ID:      "E11",
		Title:   "Parallel code-block decoding: speedup vs workers and the deadline-feasibility frontier",
		Header:  []string{"workers", "t@mcs22(ms)", "t@mcs28(ms)", "speedup@mcs28", "model-feasible-mcs@2ms", "feasible-mcs@i16-batch8", "model-t@mcs28(ms)"},
		Metrics: map[string]float64{},
	}
	// The measured columns and the model that prices them share one
	// profile, the float32 oracle, one block per claim; the i16-batch8
	// column is the default model.
	m := cluster.DefaultCostModel()
	serial28 := 0.0
	for _, w := range workersGrid {
		prof := phy.DecodeProfile{Workers: w, Kernel: phy.KernelFloat32}
		ref := m.WithProfile(prof)
		t22, err := measureDecode(22, 100, reps, 2211, prof)
		if err != nil {
			return res, err
		}
		t28, err := measureDecode(28, 100, reps, 2811, prof)
		if err != nil {
			return res, err
		}
		sec28 := t28.Total().Seconds()
		if w == 1 {
			serial28 = sec28
		}
		speedup := serial28 / sec28
		frontier := feasibleMCS(ref, w)
		frontierBatch := feasibleMCS(m, w)
		model28 := ref.AllocCostWorkers(alloc100(28), w).Seconds()
		res.Rows = append(res.Rows, []string{
			fmt.Sprintf("%d", w),
			ms(t22.Total().Seconds()),
			ms(sec28),
			fmt.Sprintf("%.2fx", speedup),
			fmt.Sprintf("%d", frontier),
			fmt.Sprintf("%d", frontierBatch),
			ms(model28),
		})
		res.Metrics[fmt.Sprintf("speedup_w%d_mcs28", w)] = speedup
		res.Metrics[fmt.Sprintf("feasible_mcs_w%d", w)] = float64(frontier)
		res.Metrics[fmt.Sprintf("feasible_mcs_w%d_i16_batch8", w)] = float64(frontierBatch)
		res.Metrics[fmt.Sprintf("model_mcs28_w%d_ms", w)] = model28 * 1e3
	}
	res.Notes = append(res.Notes,
		fmt.Sprintf("measured on GOMAXPROCS=%d; speedup saturates at min(cores, code blocks) — rerun on a multi-core host for the full curve", runtime.GOMAXPROCS(0)),
		"measured columns and model-feasible-mcs/model-t: the float32 reference kernel, named explicitly (a DecodeProfile with Kernel: KernelFloat32, on the processor and on the model alike); highest MCS whose 100-PRB decode fits the 2 ms HARQ compute budget on the reference core",
		"feasible-mcs@i16-batch8: the same frontier on the default model — int16 kernel at lockstep width 8 (E17), whose 13-block transport block is two claims, so workers beyond 2 buy nothing",
		"cost-model column: serial stages + makespan of the claimed spans + dispatch overhead (cluster.CostModel.AllocCostWorkers)")
	return res, nil
}

// alloc100 is the fully loaded 100-PRB allocation at an MCS's operating
// point — the provisioning corner case.
func alloc100(mcs phy.MCS) frame.Allocation {
	return frame.Allocation{RNTI: 1, FirstPRB: 0, NumPRB: 100, MCS: mcs, SNRdB: mcs.OperatingSNR()}
}

// feasibleMCS returns the highest MCS whose full-band subframe service time
// fits the HARQ compute budget at the given parallelism, or -1 if none does.
func feasibleMCS(m cluster.CostModel, workers int) int {
	best := -1
	for mcs := phy.MCS(0); mcs <= 28; mcs++ {
		if _, err := mcs.TransportBlockSize(100); err != nil {
			continue
		}
		if m.AllocCostWorkers(alloc100(mcs), workers) <= dataplane.HARQBudget {
			best = int(mcs)
		}
	}
	return best
}
