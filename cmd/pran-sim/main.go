// Command pran-sim runs a complete local PRAN instance in measured mode: a
// controller node and one agent node talk the real control protocol over
// loopback, and the agent feeds its synthetic cells through RAN programs,
// real uplink DSP on its worker pool and the HARQ retransmission loop while
// the controller scales and places. It prints data-plane, HARQ and
// control-plane statistics at the end.
//
// Usage:
//
//	pran-sim -cells 4 -ttis 2000 -workers 4
package main

import (
	"flag"
	"fmt"
	"log"
	"net"
	"os"
	"time"

	"pran/internal/controller"
	"pran/internal/dataplane"
	"pran/internal/frame"
	"pran/internal/node"
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
	cells := make([]frame.CellConfig, *nCells)
	for i := range cells {
		cells[i] = frame.CellConfig{ID: frame.CellID(i), PCI: uint16((i * 3) % 504), Bandwidth: bw, Antennas: 1}
	}
	agentCfg := node.AgentConfig{
		ServerID: 1,
		Cores:    *workers,
		Pool:     dataplane.Config{Policy: pol, AbandonLate: true},
		Seed:     *seed,
	}
	if *scale <= 0 {
		s, err := node.CalibrateScale(agentCfg, cells, 100)
		if err != nil {
			log.Fatal(err)
		}
		*scale = s
		fmt.Printf("workload-calibrated deadline scale: x%.0f\n", s)
	}
	agentCfg.Pool.DeadlineScale = *scale
	// A worker has scale ms for each 1 ms subframe, so it covers scale
	// cores of the real-time demand the agent reports.
	agentCfg.SpeedMilli = uint32(*scale * 1000)
	tti := time.Duration(float64(time.Millisecond) * *scale)

	ln, err := net.Listen("tcp", "127.0.0.1:0")
	if err != nil {
		log.Fatal(err)
	}
	cn, err := node.NewControllerNode(ln, node.ControllerConfig{
		Controller: controller.DefaultConfig(),
		Cells:      cells,
		Period:     100 * tti,
	})
	if err != nil {
		log.Fatal(err)
	}
	served := make(chan error, 1)
	go func() { served <- cn.Serve() }()
	// Bootstrap demand so the first placement happens before load reports.
	for _, c := range cells {
		cn.Controller().ObserveCell(c.ID, 0.05)
	}

	agentCfg.ControllerAddr = cn.Addr().String()
	an, err := node.NewAgentNode(agentCfg)
	if err != nil {
		log.Fatal(err)
	}
	stats := ranapi.NewStatsProgram()
	if err := an.Programs().Register(stats); err != nil {
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
		if err := an.Programs().Register(prog); err != nil {
			log.Fatal(err)
		}
	}
	ran := make(chan error, 1)
	go func() { ran <- an.Run() }()

	// Count subframes from the moment the controller has placed every
	// cell on the agent, then stop the agent (its pool drains on Close).
	waitUntil := func(what string, limit time.Duration, cond func() bool) {
		for start := time.Now(); !cond(); time.Sleep(tti / 2) {
			if time.Since(start) > limit {
				log.Fatalf("timed out waiting for %s", what)
			}
		}
	}
	waitUntil("cell placement", 30*time.Second+200*tti, func() bool { return an.NumCells() == *nCells })
	start := an.TTI()
	waitUntil("the run", time.Duration(*ttis)*tti+time.Minute, func() bool { return an.TTI()-start >= frame.TTI(*ttis) })
	if err := an.Close(); err != nil {
		log.Fatal(err)
	}
	if err := <-ran; err != nil {
		log.Fatal(err)
	}
	_ = cn.Close()
	<-served

	st := an.Pool().Stats()
	fmt.Printf("\n=== data plane (%d TTIs, %d cells, %s) ===\n", *ttis, *nCells, pol)
	fmt.Printf("tasks: submitted=%d completed=%d abandoned=%d crc-fail=%d\n",
		st.Submitted, st.Completed, st.Abandoned, st.CRCFailures)
	fmt.Printf("deadline misses: %d (%.2f%%)\n", st.DeadlineMisses, st.MissRate()*100)
	hs := an.HARQStats()
	fmt.Printf("harq: first-tx failures=%d retransmissions=%d recovered=%d exhausted=%d\n",
		hs.FirstTxFailures, hs.Retransmissions, hs.Recovered, hs.Exhausted)
	snap := an.Telemetry().Snapshot()
	var hists telemetry.Snapshot
	for _, name := range []string{dataplane.MetricLatency, dataplane.MetricProcTime} {
		if h, ok := snap.Histogram(name); ok {
			hists.Histograms = append(hists.Histograms, h)
		}
	}
	if err := hists.WriteText(os.Stdout); err != nil {
		log.Fatal(err)
	}

	rounds, migrations, promotions := cn.Controller().Stats()
	fmt.Printf("\n=== control plane ===\n")
	fmt.Printf("rounds=%d migrations=%d promotions=%d demand=%.2f cores\n",
		rounds, migrations, promotions, cn.Controller().Monitor().TotalDemand())
	for _, cell := range stats.Cells() {
		cs, _ := stats.Stats(cell)
		fmt.Printf("cell %d: %.1f PRB, %.1f UEs, %.3f cores (mean over %d subframes)\n",
			cell, cs.MeanPRB, cs.MeanUEs, cs.MeanDemand, cs.Subframes)
	}
}
