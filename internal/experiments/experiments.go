// Package experiments regenerates PRAN's evaluation: one function per
// reconstructed table/figure (E1–E20 less the retired E11, indexed in
// DESIGN.md §4). Each returns
// a Result whose rows cmd/pran-bench prints and whose headline numbers the
// root bench_test.go reports as benchmark metrics. The quick flag trades
// sweep breadth for runtime so `go test -bench` stays fast; the full sweeps
// run via cmd/pran-bench.
//
// Concurrency: experiment functions are plain synchronous calls — each runs
// its sweep on the calling goroutine and returns a self-contained Result.
// Measured experiments spin up their own dataplane pools or transport
// processors internally and tear them down before returning, so concurrent
// experiment runs don't share state; the only process-global is the lazily
// calibrated deadline scale, which is written once and is not safe to race
// from multiple goroutines (the benchmark and CLI drivers run experiments
// sequentially).
package experiments

import (
	"fmt"
	"math"

	"pran/internal/cluster"
	"pran/internal/dataplane"
	"pran/internal/frame"
	"pran/internal/metrics"
	"pran/internal/phy"
)

// Result is one experiment's regenerated table.
type Result struct {
	// ID is the experiment identifier (E1..E20).
	ID string
	// Title describes the paper artifact the experiment reconstructs.
	Title string
	// Header and Rows form the printable table.
	Header []string
	Rows   [][]string
	// Metrics exposes headline scalars for benchmark reporting
	// (name → value).
	Metrics map[string]float64
	// Notes carry caveats (substitutions, scale factors).
	Notes []string
}

// String renders the result as a titled table.
func (r Result) String() string {
	s := fmt.Sprintf("== %s: %s ==\n", r.ID, r.Title)
	s += metrics.Table(r.Header, r.Rows)
	for _, n := range r.Notes {
		s += "note: " + n + "\n"
	}
	return s
}

// f formats a float compactly for table cells.
func f(v float64) string {
	switch {
	case v == 0:
		return "0"
	case math.Abs(v) >= 100:
		return fmt.Sprintf("%.0f", v)
	case math.Abs(v) >= 1:
		return fmt.Sprintf("%.2f", v)
	default:
		return fmt.Sprintf("%.4f", v)
	}
}

// ms formats seconds as milliseconds.
func ms(sec float64) string { return fmt.Sprintf("%.3f", sec*1e3) }

// alloc100 is the fully loaded 100-PRB allocation at an MCS's operating
// point — the provisioning corner case.
func alloc100(mcs phy.MCS) frame.Allocation {
	return frame.Allocation{RNTI: 1, FirstPRB: 0, NumPRB: 100, MCS: mcs, SNRdB: mcs.OperatingSNR()}
}

// feasibleMCS returns the highest MCS whose full-band subframe cost fits the
// HARQ compute budget on the model's reference core, or -1 if none does.
func feasibleMCS(m cluster.CostModel) int {
	best := -1
	for mcs := phy.MCS(0); mcs <= 28; mcs++ {
		if _, err := mcs.TransportBlockSize(100); err != nil {
			continue
		}
		if m.AllocCost(alloc100(mcs)) <= dataplane.HARQBudget {
			best = int(mcs)
		}
	}
	return best
}

// baseSeed shifts the deterministic seeds experiments derive their workloads
// and fault schedules from. The default 1 reproduces the committed baselines
// bit for bit; cmd/pran-bench's -seed flag overrides it so a soak or sweep
// failure is replayable from the seed its report records.
var baseSeed int64 = 1

// SetBaseSeed installs the base seed for subsequent experiment runs. Not
// safe to call concurrently with a running experiment (the drivers run
// experiments sequentially).
func SetBaseSeed(s int64) { baseSeed = s }

// BaseSeed returns the current base seed.
func BaseSeed() int64 { return baseSeed }

// seedFor derives an experiment-local seed from the base seed. With the
// default base the local constant passes through unchanged, keeping every
// pre-existing sweep bit-identical; other bases shift the whole family.
func seedFor(local int64) int64 {
	if baseSeed == 1 {
		return local
	}
	return local + (baseSeed-1)*7919
}

// All runs every experiment in order.
func All(quick bool) ([]Result, error) {
	runs := []func(bool) (Result, error){
		E1SubframeVsMCS,
		E2StageBreakdown,
		E3TraceDiversity,
		E4PoolingGain,
		E5DeadlineMiss,
		E6Scaling,
		func(bool) (Result, error) { return E7Fronthaul() },
		E8Failover,
		E9Controller,
		E10HeadroomAblation,
		E12KernelAblation,
		E13FrontEndAblation,
		E14TelemetryOverhead,
		E15Recovery,
		E16Scale,
		func(q bool) (Result, error) { return E17BatchSpeedup(q, 8) },
		E18VectorFrontEnd,
		E19OverloadCurve,
		E20SoakSLO,
	}
	var out []Result
	for _, fn := range runs {
		r, err := fn(quick)
		if err != nil {
			return out, fmt.Errorf("%s failed: %w", r.ID, err)
		}
		out = append(out, r)
	}
	return out, nil
}
