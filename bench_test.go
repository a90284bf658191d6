// Package pran's root benchmark suite regenerates every reconstructed table
// and figure of the PRAN evaluation (DESIGN.md §4), one benchmark per
// artifact, reporting each experiment's headline numbers as benchmark
// metrics. Benchmarks run the quick sweeps; the full sweeps run via
// cmd/pran-bench.
package pran

import (
	"testing"

	"pran/internal/experiments"
)

// report runs one experiment per benchmark iteration and republishes its
// headline metrics through the benchmark reporter.
func report(b *testing.B, fn func(bool) (experiments.Result, error)) {
	b.Helper()
	var last experiments.Result
	for i := 0; i < b.N; i++ {
		r, err := fn(true)
		if err != nil {
			b.Fatal(err)
		}
		last = r
	}
	for name, v := range last.Metrics {
		b.ReportMetric(v, name)
	}
}

// BenchmarkE1_SubframeVsMCS regenerates the UL processing time vs MCS/PRB
// microbenchmark (paper's software-PHY feasibility figure).
func BenchmarkE1_SubframeVsMCS(b *testing.B) {
	report(b, experiments.E1SubframeVsMCS)
}

// BenchmarkE2_StageBreakdown regenerates the per-stage cost breakdown
// (turbo decoding dominance figure).
func BenchmarkE2_StageBreakdown(b *testing.B) {
	report(b, experiments.E2StageBreakdown)
}

// BenchmarkE3_TraceDiversity regenerates the per-class diurnal load
// diversity figure.
func BenchmarkE3_TraceDiversity(b *testing.B) {
	report(b, experiments.E3TraceDiversity)
}

// BenchmarkE4_PoolingGain regenerates the headline pooling-gain table
// (per-cell static vs elastic pool vs oracle).
func BenchmarkE4_PoolingGain(b *testing.B) {
	report(b, experiments.E4PoolingGain)
}

// BenchmarkE5_DeadlineMiss regenerates the deadline-miss vs utilization
// figure (EDF vs FIFO, GC-pressure ablation) on the measured pool.
func BenchmarkE5_DeadlineMiss(b *testing.B) {
	report(b, experiments.E5DeadlineMiss)
}

// BenchmarkE6_Scaling regenerates the elastic-scaling surge response
// (reactive vs predictive).
func BenchmarkE6_Scaling(b *testing.B) {
	report(b, experiments.E6Scaling)
}

// BenchmarkE7_Fronthaul regenerates the fronthaul bandwidth table (raw CPRI
// vs BFP compression vs functional splits).
func BenchmarkE7_Fronthaul(b *testing.B) {
	report(b, func(bool) (experiments.Result, error) { return experiments.E7Fronthaul() })
}

// BenchmarkE8_Failover regenerates the failover outage comparison (hot
// standby vs cold restart).
func BenchmarkE8_Failover(b *testing.B) {
	report(b, experiments.E8Failover)
}

// BenchmarkE9_Controller regenerates the control-plane microbenchmarks
// (placement time, protocol RTT, migration payload).
func BenchmarkE9_Controller(b *testing.B) {
	report(b, experiments.E9Controller)
}

// BenchmarkE10_HeadroomAblation regenerates the headroom-margin ablation
// (pooling gain vs capacity-deficit tradeoff).
func BenchmarkE10_HeadroomAblation(b *testing.B) {
	report(b, experiments.E10HeadroomAblation)
}

// BenchmarkE12_KernelAblation regenerates the decode-kernel ablation:
// int16 quantized vs float32 max-log-MAP turbo speedup, BLER parity in
// the waterfall, and the per-kernel feasibility frontier.
func BenchmarkE12_KernelAblation(b *testing.B) {
	report(b, experiments.E12KernelAblation)
}

// BenchmarkE13_FrontEndAblation regenerates the decode front-end ablation:
// fused single-pass vs staged demod→descramble→dematch speedup, the
// end-to-end gain per turbo kernel, and the per-front-end feasibility
// frontier.
func BenchmarkE13_FrontEndAblation(b *testing.B) {
	report(b, experiments.E13FrontEndAblation)
}

// BenchmarkE14_TelemetryOverhead regenerates the telemetry-overhead
// measurement: per-task decode wall clock through the pool with recording
// enabled vs disabled, plus the microbenchmarked record-path cost.
func BenchmarkE14_TelemetryOverhead(b *testing.B) {
	report(b, experiments.E14TelemetryOverhead)
}

// BenchmarkE15_Recovery regenerates the live-recovery measurement: a real
// controller and agents over loopback TCP, one agent partitioned away
// mid-traffic by the fault injector, timing lease detection, re-placement
// with warm HARQ state push, and reconnect after healing.
func BenchmarkE15_Recovery(b *testing.B) {
	report(b, experiments.E15Recovery)
}

// BenchmarkE16_Scale regenerates the city-scale control-plane measurement:
// hundreds of cells across dozens of stub agents on one controller, timing
// cold-start placement fan-out, per-push dissemination latency through the
// coalescing streams, incremental-vs-full placement rounds under demand
// churn, and the concurrent telemetry scrape fan-in.
func BenchmarkE16_Scale(b *testing.B) {
	report(b, experiments.E16Scale)
}

// BenchmarkE17_BatchSpeedup regenerates the lockstep batch-decoding
// measurement: raw turbo-kernel throughput at batch widths 1/2/4/8 vs the
// scalar int16 kernel (bit-identity checked against the scalar oracle each
// run), the end-to-end turbo-stage effect through a TransportProcessor, and
// the feasibility frontier the recalibrated batched cost model buys.
func BenchmarkE17_BatchSpeedup(b *testing.B) {
	report(b, func(q bool) (experiments.Result, error) { return experiments.E17BatchSpeedup(q, 8) })
}

// BenchmarkE18_VectorFrontEnd regenerates the vector front-end measurement:
// the fused two-phase tile pass with AVX2 kernels vs the pure-Go tiles vs
// the staged sweeps, per modulation, plus the feasibility frontier on the
// vector-calibrated cost model. On hosts without AVX2 the speedups read
// ~1.00x and the fe_avx2 metric is 0.
func BenchmarkE18_VectorFrontEnd(b *testing.B) {
	report(b, experiments.E18VectorFrontEnd)
}

// BenchmarkE19_OverloadCurve regenerates the graceful-degradation overload
// curve: offered load swept from 0.5× to 3× one worker's capacity, goodput
// and deadline-miss rate with the compute-aware degradation ladder on vs
// off. With the ladder the headroom controller climbs to the int16 kernel
// and capped turbo iterations under overload, so goodput at 2× offered load
// should be well above the undegraded baseline's.
func BenchmarkE19_OverloadCurve(b *testing.B) {
	report(b, experiments.E19OverloadCurve)
}

// BenchmarkE20_SoakSLO regenerates the chaos-soak SLO table: a real
// controller and agents over loopback ctrlproto run compressed simulated
// traffic shaped by workload-diversity events through a scripted fault
// timeline (stalls, half-open and full partitions, crash/restart), and the
// windowed SLO gates — miss rate, goodput floor, detection/MTTR budgets,
// degradation ceiling, zero lost cells — are republished as metrics with a
// single pass bit. Quick mode still covers ≥60 simulated seconds (~22 s
// wall per iteration).
func BenchmarkE20_SoakSLO(b *testing.B) {
	report(b, experiments.E20SoakSLO)
}
