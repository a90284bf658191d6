// Programmability: install RAN programs on a running PRAN agent through
// its registry — soft-frequency-reuse interference coordination (ICIC) plus
// a passive stats collector — and show the programs reshaping the schedule
// that the agent's measured data plane then executes. The controller and
// the agent run in one process and talk the real control protocol over
// loopback.
package main

import (
	"fmt"
	"log"
	"net"
	"time"

	"pran/internal/controller"
	"pran/internal/dataplane"
	"pran/internal/frame"
	"pran/internal/node"
	"pran/internal/phy"
	"pran/internal/ranapi"
)

func main() {
	const nCells = 3
	ln, err := net.Listen("tcp", "127.0.0.1:0")
	if err != nil {
		log.Fatal(err)
	}
	cells := make([]frame.CellConfig, nCells)
	for i := range cells {
		cells[i] = frame.CellConfig{ID: frame.CellID(i), PCI: uint16(i * 3), Bandwidth: phy.BW1_4MHz, Antennas: 1}
	}
	cn, err := node.NewControllerNode(ln, node.ControllerConfig{
		Controller: controller.DefaultConfig(),
		Cells:      cells,
		Period:     50 * time.Millisecond,
	})
	if err != nil {
		log.Fatal(err)
	}
	go func() { _ = cn.Serve() }()
	defer cn.Close()
	// Bootstrap demand so the first placement happens before load reports.
	for _, c := range cells {
		cn.Controller().ObserveCell(c.ID, 0.05)
	}
	an, err := node.NewAgentNode(node.AgentConfig{
		ControllerAddr: cn.Addr().String(),
		ServerID:       1,
		Cores:          2,
		Pool:           dataplane.Config{Policy: dataplane.EDF, DeadlineScale: 1000},
		TTIInterval:    time.Millisecond,
		Seed:           42,
	})
	if err != nil {
		log.Fatal(err)
	}

	// Three neighbouring cells get the three soft-reuse groups: cell-edge
	// UEs (below 8 dB) are confined to their cell's third of the band so
	// neighbours' edge transmissions never collide.
	groups := map[frame.CellID]int{0: 0, 1: 1, 2: 2}
	icic, err := ranapi.NewICICProgram(phy.BW1_4MHz, 8, groups)
	if err != nil {
		log.Fatal(err)
	}
	stats := ranapi.NewStatsProgram()
	if err := an.Programs().Register(icic); err != nil {
		log.Fatal(err)
	}
	if err := an.Programs().Register(stats); err != nil {
		log.Fatal(err)
	}
	fmt.Printf("installed RAN programs: %v\n", an.Programs().Names())
	go func() { _ = an.Run() }()
	defer an.Close()

	waitUntil := func(what string, cond func() bool) {
		for start := time.Now(); !cond(); time.Sleep(time.Millisecond) {
			if time.Since(start) > time.Minute {
				log.Fatalf("timed out waiting for %s", what)
			}
		}
	}
	waitUntil("cell placement", func() bool { return an.NumCells() == nCells })
	// run lets the agent serve n more subframes of every cell.
	run := func(n int) {
		start := an.TTI()
		waitUntil(fmt.Sprintf("%d subframes", n), func() bool { return an.TTI()-start >= frame.TTI(n) })
	}
	run(400)

	fmt.Printf("\nICIC after 400 TTIs × %d cells:\n", nCells)
	fmt.Printf("  allocations repacked into protected bands: %d\n", icic.Moved())
	fmt.Printf("  allocations shed (protected band full):    %d\n", icic.Dropped())
	for _, cell := range stats.Cells() {
		cs, _ := stats.Stats(cell)
		fmt.Printf("  cell %d (reuse group %d): mean %.1f PRB, %.1f UEs/subframe\n",
			cell, groups[cell], cs.MeanPRB, cs.MeanUEs)
	}
	st := an.Pool().Stats()
	fmt.Printf("\ndata plane processed %d tasks (%d CRC failures) under the reshaped schedule\n",
		st.Submitted, st.CRCFailures)

	// Programs are hot-swappable: drop ICIC and keep running.
	an.Programs().Unregister("icic")
	run(100)
	fmt.Printf("after uninstalling ICIC: programs=%v, tasks=%d\n",
		an.Programs().Names(), an.Pool().Stats().Submitted)
}
