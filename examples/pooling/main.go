// Pooling: reproduce PRAN's core economic argument at library level — run a
// 24-hour synthetic day over 40 diverse cells and compare the compute that
// per-cell peak provisioning strands against what one elastic pool needs.
package main

import (
	"fmt"
	"log"

	"pran/internal/baseline"
	"pran/internal/cluster"
	"pran/internal/experiments"
	"pran/internal/phy"
	"pran/internal/traffic"
)

func main() {
	const (
		nCells   = 40
		step     = 60.0 // one sample per minute
		headroom = 0.2
	)
	model := cluster.DefaultCostModel()

	// Build per-cell compute-demand traces: diurnal utilization shaped by
	// each cell's class, converted to reference-core fractions through the
	// cost model.
	classes := traffic.StandardMix(nCells)
	traces := make([][]float64, nCells)
	for i := 0; i < nCells; i++ {
		prof := traffic.DefaultProfile(classes[i])
		util, err := traffic.DayTrace(prof, int64(i)*311+7, step)
		if err != nil {
			log.Fatal(err)
		}
		mcs := phy.MCSForSNR(prof.SNRMeanDB)
		demand := make([]float64, len(util))
		for j, u := range util {
			demand[j] = model.UtilizationDemand(phy.BW20MHz, 2, u, mcs, prof.SNRMeanDB)
		}
		traces[i] = demand
	}

	static, err := baseline.PerCellStaticCores(traces, headroom)
	if err != nil {
		log.Fatal(err)
	}
	pooled, err := baseline.PRANPooledCores(traces, headroom, 5)
	if err != nil {
		log.Fatal(err)
	}
	oracle, err := baseline.OracleCores(traces)
	if err != nil {
		log.Fatal(err)
	}

	fmt.Println(experiments.Table(
		[]string{"provisioning", "cores", "vs-static"},
		[][]string{
			{"per-cell static (today's RAN)", fmt.Sprintf("%d", static), "1.00x"},
			{"PRAN pool, peak", fmt.Sprintf("%d", pooled.PeakCores), fmt.Sprintf("%.2fx less", baseline.MultiplexingGain(static, float64(pooled.PeakCores)))},
			{"PRAN pool, mean usage", fmt.Sprintf("%.1f", pooled.MeanCores), fmt.Sprintf("%.2fx less", baseline.MultiplexingGain(static, pooled.MeanCores))},
			{"oracle floor", fmt.Sprintf("%d", oracle), fmt.Sprintf("%.2fx less", baseline.MultiplexingGain(static, float64(oracle)))},
		}))

	// Show a few hours of the aggregate curve vs the pool's elastic size.
	agg, _ := baseline.AggregateTrace(traces)
	fmt.Println("\nhour  aggregate-demand  pool-cores")
	for h := 0; h < 24; h += 3 {
		i := int(float64(h) * 3600 / step)
		fmt.Printf("%4d  %16.1f  %10d\n", h, agg[i], pooled.CoreSamples[i])
	}
}
