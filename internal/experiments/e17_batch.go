package experiments

import (
	"bytes"
	"fmt"
	"math/rand"
	"time"

	"pran/internal/cluster"
	"pran/internal/phy"
)

// E17BatchSpeedup measures the lockstep batch decode kernel (PR 7): raw
// turbo-kernel throughput at batch widths 1/2/4/8 versus the scalar int16
// kernel across the MCS grid, the end-to-end turbo-stage effect when the
// width is threaded through a TransportProcessor, and the recomputed
// deadline-feasibility frontier the batched cost-model coefficient buys.
// Every batched decode is checked
// bit-identical to the scalar int16 oracle before its timing is accepted
// (the exhaustive equivalence sweep lives in the phy property/fuzz tests).
//
// maxWidth caps the width grid (the pran-bench -batch flag); widths above
// it are skipped, so -batch 1 reduces E17 to the scalar baseline row.
func E17BatchSpeedup(quick bool, maxWidth int) (Result, error) {
	mcsGrid := []phy.MCS{13, 22, 28}
	widths := []int{1, 2, 4, 8}
	reps := 6
	kernelIters := 4
	if quick {
		mcsGrid = []phy.MCS{13, 28}
		widths = []int{1, 8}
		reps = 2
	}
	if maxWidth >= 1 {
		trimmed := widths[:0]
		for _, w := range widths {
			if w <= maxWidth {
				trimmed = append(trimmed, w)
			}
		}
		widths = trimmed
	}
	res := Result{
		ID:      "E17",
		Title:   "Lockstep batch decoding: kernel speedup vs width and the recomputed feasibility frontier",
		Header:  []string{"mcs", "width", "kernel(Mb/s)", "kernel-speedup", "e2e-turbo(ms)", "e2e-speedup", "model-feasible-mcs@1w"},
		Metrics: map[string]float64{},
	}
	m := cluster.DefaultCostModel()
	for _, mcs := range mcsGrid {
		tbs, err := mcs.TransportBlockSize(100)
		if err != nil {
			return res, err
		}
		seg, err := phy.Segment(tbs + 24)
		if err != nil {
			return res, err
		}
		scalarPerBit := 0.0
		scalarTurbo := 0.0
		for _, w := range widths {
			perBit, err := measureBatchKernel(seg.K, w, kernelIters, reps, 1700+int64(mcs))
			if err != nil {
				return res, err
			}
			if w == 1 {
				scalarPerBit = perBit
			}
			speedup := scalarPerBit / perBit
			// Payload throughput at the fixed iteration budget, all lanes live.
			mbps := 1.0 / perBit / float64(kernelIters) / 1e6

			prof := phy.DecodeProfile{Batch: w}
			e2e, err := measureDecode(mcs, 100, reps, int64(mcs)*1701, prof)
			if err != nil {
				return res, err
			}
			turboSec := e2e.TurboDecode.Seconds()
			if w == 1 {
				scalarTurbo = turboSec
			}
			e2eSpeedup := scalarTurbo / turboSec
			frontier := feasibleMCS(m.WithProfile(prof))
			res.Rows = append(res.Rows, []string{
				fmt.Sprintf("%d", mcs),
				fmt.Sprintf("%d", w),
				fmt.Sprintf("%.2f", mbps),
				fmt.Sprintf("%.2fx", speedup),
				ms(turboSec),
				fmt.Sprintf("%.2fx", e2eSpeedup),
				fmt.Sprintf("%d", frontier),
			})
			res.Metrics[fmt.Sprintf("kernel_speedup_mcs%d_w%d", mcs, w)] = speedup
			res.Metrics[fmt.Sprintf("kernel_mbps_mcs%d_w%d", mcs, w)] = mbps
			res.Metrics[fmt.Sprintf("e2e_turbo_speedup_mcs%d_w%d", mcs, w)] = e2eSpeedup
			res.Metrics[fmt.Sprintf("feasible_mcs_w1_batch%d", w)] = float64(frontier)
		}
	}
	res.Notes = append(res.Notes,
		fmt.Sprintf("kernel columns: K per MCS at 100 PRB, %d fixed iterations, all lanes live; Mb/s is per-lane payload throughput × width", kernelIters),
		"every batched timing run is verified bit-identical to the scalar int16 oracle on the same inputs",
		"e2e columns: full transport decode at 100 PRB, fused front-end — batching within one TB's code blocks only",
		"width 1 (Batch: 1, the scalar int16 oracle) is the reference row; width 8 is what a zero Batch resolves to",
		"feasibility frontier: highest MCS whose 100-PRB cost fits the 2 ms HARQ budget on the int16 cost model at that width (the same profile on cluster.CostModel.WithProfile)",
	)
	return res, nil
}

// measureBatchKernel times the int16 turbo kernel at the given lockstep
// width on one K-bit code block (width 1 = the scalar TurboDecoder) and
// returns the cost in seconds per information bit per iteration per lane.
// The batched hard decisions are compared against the scalar oracle's on
// the same LLR streams; a mismatch is an error.
func measureBatchKernel(k, width, iters, reps int, seed int64) (float64, error) {
	enc := phy.NewTurboEncoder()
	rng := rand.New(rand.NewSource(seed))
	input := make([]byte, k)
	for i := range input {
		input[i] = byte(rng.Intn(2))
	}
	d0 := make([]byte, k+4)
	d1 := make([]byte, k+4)
	d2 := make([]byte, k+4)
	if err := enc.Encode(d0, d1, d2, input); err != nil {
		return 0, err
	}
	// Noisy-but-decodable LLRs so the butterflies see realistic metric
	// spreads rather than saturated ±max shortcuts.
	toLLR := func(bits []byte) []float32 {
		l := make([]float32, len(bits))
		for i, b := range bits {
			mag := 1.5 + rng.Float32()
			if b == 1 {
				mag = -mag
			}
			l[i] = mag
		}
		return l
	}
	l0, l1, l2 := toLLR(d0), toLLR(d1), toLLR(d2)

	// Scalar oracle output for the bit-identity check (and the width-1
	// timing path itself).
	dec, err := phy.NewTurboDecoderKernel(phy.KernelInt16)
	if err != nil {
		return 0, err
	}
	dec.MaxIterations = iters
	oracle := make([]byte, k)
	if _, err := dec.Decode(oracle, l0, l1, l2); err != nil {
		return 0, err
	}

	if width == 1 {
		out := make([]byte, k)
		start := time.Now()
		for r := 0; r < reps; r++ {
			if _, err := dec.Decode(out, l0, l1, l2); err != nil {
				return 0, err
			}
		}
		el := time.Since(start).Seconds()
		if !bytes.Equal(out, oracle) {
			return 0, fmt.Errorf("experiments: scalar int16 decode not deterministic at K=%d", k)
		}
		return el / float64(reps) / float64(k*iters), nil
	}

	bd, err := phy.NewBatchDecoderI16(width)
	if err != nil {
		return 0, err
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
	start := time.Now()
	for r := 0; r < reps; r++ {
		if _, _, err := bd.Decode(blocks, bl0, bl1, bl2, nil, nil); err != nil {
			return 0, err
		}
	}
	el := time.Since(start).Seconds()
	for b := 0; b < width; b++ {
		if !bytes.Equal(blocks[b], oracle) {
			return 0, fmt.Errorf("experiments: batch lane %d diverges from the scalar int16 oracle at K=%d width=%d", b, k, width)
		}
	}
	return el / float64(reps) / float64(k*iters*width), nil
}
