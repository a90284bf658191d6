// Failover: run the distributed PRAN deployment in one process — a
// controller node and two agent nodes talking the real TCP control
// protocol — then kill the agent holding cells and watch the controller
// re-place them on the survivor within a detection interval.
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
)

func main() {
	// Controller managing four small cells.
	ln, err := net.Listen("tcp", "127.0.0.1:0")
	if err != nil {
		log.Fatal(err)
	}
	var cells []frame.CellConfig
	for i := 0; i < 4; i++ {
		cells = append(cells, frame.CellConfig{
			ID: frame.CellID(i), PCI: uint16(i * 3), Bandwidth: phy.BW1_4MHz, Antennas: 1,
		})
	}
	cn, err := node.NewControllerNode(ln, node.ControllerConfig{
		Controller: controller.DefaultConfig(),
		Cells:      cells,
		Period:     50 * time.Millisecond,
		Logf:       log.Printf,
	})
	if err != nil {
		log.Fatal(err)
	}
	go func() { _ = cn.Serve() }()
	defer cn.Close()
	// Bootstrap demand so the first placement happens before load reports.
	for i := 0; i < 4; i++ {
		cn.Controller().ObserveCell(frame.CellID(i), 0.05)
	}

	// Two pool servers join.
	newAgent := func(id uint32) *node.AgentNode {
		an, err := node.NewAgentNode(node.AgentConfig{
			ControllerAddr: cn.Addr().String(),
			ServerID:       id,
			Cores:          2,
			Pool:           dataplane.Config{Policy: dataplane.EDF, DeadlineScale: 50},
			TTIInterval:    10 * time.Millisecond,
			Seed:           int64(id),
		})
		if err != nil {
			log.Fatal(err)
		}
		go func() { _ = an.Run() }()
		return an
	}
	a1 := newAgent(1)
	a2 := newAgent(2)
	defer a2.Close()

	waitUntil := func(what string, cond func() bool) {
		for start := time.Now(); !cond(); {
			if time.Since(start) > 10*time.Second {
				log.Fatalf("timed out waiting for %s", what)
			}
			time.Sleep(20 * time.Millisecond)
		}
	}
	waitUntil("initial placement", func() bool { return a1.NumCells()+a2.NumCells() == 4 })
	fmt.Printf("placed: agent1=%d cells, agent2=%d cells\n", a1.NumCells(), a2.NumCells())
	waitUntil("live decoding", func() bool {
		return a1.Pool().Stats().Completed+a2.Pool().Stats().Completed > 20
	})
	fmt.Println("both agents decoding live traffic")

	// Kill whichever agent holds cells.
	victim, survivor := a1, a2
	if a2.NumCells() > a1.NumCells() {
		victim, survivor = a2, a1
	}
	fmt.Printf("\n*** killing agent with %d cells ***\n", victim.NumCells())
	killedAt := time.Now()
	_ = victim.Close()

	waitUntil("failover", func() bool { return survivor.NumCells() == 4 })
	fmt.Printf("recovered: survivor now runs all 4 cells, %v after the kill\n",
		time.Since(killedAt).Round(time.Millisecond))
	st := survivor.Pool().Stats()
	fmt.Printf("survivor pool: %d tasks completed, %d deadline misses\n", st.Completed, st.DeadlineMisses)
}
