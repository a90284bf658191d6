// Command pran-sim runs a complete local PRAN instance in measured mode:
// synthetic cells feed real uplink DSP through the worker pool while the
// controller scales and places. It prints data-plane and control-plane
// statistics at the end.
//
// Usage:
//
//	pran-sim -cells 4 -ttis 2000 -workers 4
package main

import (
	"flag"
	"fmt"
	"log"
	"os"

	"pran/internal/controller"
	"pran/internal/core"
	"pran/internal/dataplane"
	"pran/internal/frame"
	"pran/internal/phy"
	"pran/internal/ranapi"
	"pran/internal/telemetry"
)

func main() {
	nCells := flag.Int("cells", 2, "number of cells")
	ttis := flag.Int("ttis", 500, "subframes to run")
	workers := flag.Int("workers", 2, "pool worker goroutines")
	prb := flag.Int("prb", 6, "cell bandwidth in PRB (6, 15, 25, 50, 75, 100)")
	scale := flag.Float64("scale", 0, "deadline scale (0 = host-calibrated)")
	policy := flag.String("policy", "edf", "dispatch policy: edf or fifo")
	icic := flag.Bool("icic", false, "install the ICIC RAN program")
	seed := flag.Int64("seed", 1, "workload seed")
	flag.Parse()

	bw := phy.Bandwidth(*prb)
	if err := bw.Validate(); err != nil {
		log.Fatal(err)
	}
	pol := dataplane.EDF
	if *policy == "fifo" {
		pol = dataplane.FIFO
	}

	cfg := core.Config{
		Cells:             core.DefaultCells(*nCells, bw, 1),
		Pool:              dataplane.Config{Workers: *workers, Policy: pol, DeadlineScale: 1, AbandonLate: true},
		Controller:        controller.DefaultConfig(),
		Cluster:           core.ClusterSpec{Servers: 8, Active: 1, CoresPerServer: *workers, Speed: 1},
		Seed:              *seed,
		StartHour:         12,
		ControlPeriodTTIs: 100,
		Realtime:          true,
	}
	if *scale <= 0 {
		s, err := core.CalibrateScale(cfg, 100)
		if err != nil {
			log.Fatal(err)
		}
		*scale = s
		fmt.Printf("workload-calibrated deadline scale: x%.0f\n", s)
	}
	cfg.Pool.DeadlineScale = *scale
	sys, err := core.New(cfg)
	if err != nil {
		log.Fatal(err)
	}
	defer sys.Close()

	stats := ranapi.NewStatsProgram()
	if err := sys.Programs().Register(stats); err != nil {
		log.Fatal(err)
	}
	if *icic {
		groups := map[frame.CellID]int{}
		for i := 0; i < *nCells; i++ {
			groups[frame.CellID(i)] = i % 3
		}
		prog, err := ranapi.NewICICProgram(bw, 8, groups)
		if err != nil {
			log.Fatal(err)
		}
		if err := sys.Programs().Register(prog); err != nil {
			log.Fatal(err)
		}
	}

	if err := sys.RunTTIs(*ttis); err != nil {
		log.Fatal(err)
	}
	sys.Drain()

	st := sys.Pool().Stats()
	fmt.Printf("\n=== data plane (%d TTIs, %d cells, %s) ===\n", *ttis, *nCells, pol)
	fmt.Printf("tasks: submitted=%d completed=%d abandoned=%d crc-fail=%d\n",
		st.Submitted, st.Completed, st.Abandoned, st.CRCFailures)
	fmt.Printf("deadline misses: %d (%.2f%%)\n", st.DeadlineMisses, st.MissRate()*100)
	snap := sys.Pool().Telemetry().Snapshot()
	var hists telemetry.Snapshot
	for _, name := range []string{dataplane.MetricLatency, dataplane.MetricProcTime} {
		if h, ok := snap.Histogram(name); ok {
			hists.Histograms = append(hists.Histograms, h)
		}
	}
	if err := hists.WriteText(os.Stdout); err != nil {
		log.Fatal(err)
	}

	rounds, migrations, promotions := sys.Controller().Stats()
	fmt.Printf("\n=== control plane ===\n")
	fmt.Printf("rounds=%d migrations=%d promotions=%d demand=%.2f cores\n",
		rounds, migrations, promotions, sys.Controller().Monitor().TotalDemand())
	for _, cell := range stats.Cells() {
		cs, _ := stats.Stats(cell)
		fmt.Printf("cell %d: %.1f PRB, %.1f UEs, %.3f cores (mean over %d subframes)\n",
			cell, cs.MeanPRB, cs.MeanUEs, cs.MeanDemand, cs.Subframes)
	}
}
