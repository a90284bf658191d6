// Command pran-controller runs the PRAN controller as a network daemon:
// data-plane agents (cmd/pran-agent) connect over TCP, register their
// capacity, and receive cell assignments; the controller scales the active
// set and re-places cells as their load reports evolve.
//
// Usage:
//
//	pran-controller -listen :7100 -cells 6 -prb 6
package main

import (
	"flag"
	"log"
	"net"
	"net/http"
	"time"

	"pran/internal/controller"
	"pran/internal/frame"
	"pran/internal/node"
	"pran/internal/phy"
	"pran/internal/telemetry"
)

func main() {
	listen := flag.String("listen", "127.0.0.1:7100", "TCP listen address")
	nCells := flag.Int("cells", 4, "number of cells to manage")
	prb := flag.Int("prb", 6, "cell bandwidth in PRB")
	predictive := flag.Bool("predictive", true, "predictive (vs reactive) scaling")
	heartbeat := flag.Duration("heartbeat", 100*time.Millisecond, "agent heartbeat interval")
	leaseMisses := flag.Int("lease-misses", 5, "missed heartbeats before an agent's lease expires and its cells fail over")
	telemetryAddr := flag.String("telemetry", "", "HTTP address serving the merged cluster telemetry scrape (empty = off)")
	scrapeEvery := flag.Duration("scrape-interval", 5*time.Second, "cadence for logging the merged cluster snapshot (0 = off)")
	sendQueue := flag.Int("send-queue", 0, "per-agent command stream queue bound (0 = default 256); slow agents coalesce or shed stale pushes past it")
	flag.Parse()

	bw := phy.Bandwidth(*prb)
	if err := bw.Validate(); err != nil {
		log.Fatal(err)
	}
	var cells []frame.CellConfig
	for i := 0; i < *nCells; i++ {
		cells = append(cells, frame.CellConfig{
			ID: frame.CellID(i), PCI: uint16((i * 3) % 504), Bandwidth: bw, Antennas: 1,
		})
	}
	ctlCfg := controller.DefaultConfig()
	if !*predictive {
		ctlCfg.Mode = controller.Reactive
	}

	ln, err := net.Listen("tcp", *listen)
	if err != nil {
		log.Fatal(err)
	}
	cn, err := node.NewControllerNode(ln, node.ControllerConfig{
		Controller:        ctlCfg,
		Cells:             cells,
		HeartbeatInterval: *heartbeat,
		LeaseMisses:       *leaseMisses,
		SendQueue:         *sendQueue,
		Logf:              log.Printf,
	})
	if err != nil {
		log.Fatal(err)
	}
	// Seed demand so the first placement activates capacity before agent
	// load reports arrive.
	for i := 0; i < *nCells; i++ {
		cn.Controller().ObserveCell(frame.CellID(i), 0.05)
	}
	// scrape pulls a merged cluster snapshot from the connected agents
	// (plus the controller's local cluster-state metrics).
	scrape := func() telemetry.Snapshot {
		snap, reported, err := cn.ScrapeTelemetry(2 * time.Second)
		if err != nil {
			log.Printf("telemetry scrape: %v", err)
			return telemetry.Snapshot{}
		}
		log.Printf("telemetry scrape merged %d agents", reported)
		return snap
	}
	if *telemetryAddr != "" {
		go func() {
			log.Printf("telemetry endpoint on http://%s/ (?format=json for JSON)", *telemetryAddr)
			log.Fatal(http.ListenAndServe(*telemetryAddr, telemetry.Handler(scrape)))
		}()
	}
	if *scrapeEvery > 0 {
		go func() {
			for range time.Tick(*scrapeEvery) {
				if snap := scrape(); len(snap.Counters)+len(snap.Gauges) > 0 {
					log.Printf("cluster telemetry:\n%s", snap)
				}
			}
		}()
	}
	log.Printf("pran-controller listening on %s, managing %d cells (%s, lease %v)",
		cn.Addr(), *nCells, ctlCfg.Mode, cn.LeaseBudget())
	log.Fatal(cn.Serve())
}
