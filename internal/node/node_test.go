package node

import (
	"net"
	"testing"
	"time"

	"pran/internal/controller"
	"pran/internal/dataplane"
	"pran/internal/frame"
	"pran/internal/phy"
)

// runUntilCleanup runs serve (a node's Serve or Run) on its own goroutine
// and keeps its result in a channel. The cleanup it registers calls stop
// (the node's Close) and then waits up to 5 s for serve to return, failing
// the test if it does not, so no goroutine of the node logs through t after
// the test has completed.
func runUntilCleanup(t *testing.T, name string, serve, stop func() error) {
	t.Helper()
	done := make(chan error, 1)
	go func() { done <- serve() }()
	t.Cleanup(func() {
		_ = stop()
		select {
		case <-done:
		case <-time.After(5 * time.Second):
			t.Errorf("%s did not return within 5 s of Close", name)
		}
	})
}

// testCells describes n 1.4 MHz single-antenna cells with IDs 0..n-1.
func testCells(n int) []frame.CellConfig {
	cells := make([]frame.CellConfig, n)
	for i := range cells {
		cells[i] = frame.CellConfig{ID: frame.CellID(i), PCI: uint16(i * 3), Bandwidth: phy.BW1_4MHz, Antennas: 1}
	}
	return cells
}

// startControllerNode spins up a controller node on loopback with small
// cells and a fast control loop.
func startControllerNode(t *testing.T, nCells int) *ControllerNode {
	t.Helper()
	ln, err := net.Listen("tcp", "127.0.0.1:0")
	if err != nil {
		t.Fatal(err)
	}
	cfg := ControllerConfig{
		Controller: controller.DefaultConfig(),
		Cells:      testCells(nCells),
		Period:     30 * time.Millisecond,
		Logf:       t.Logf,
	}
	cn, err := NewControllerNode(ln, cfg)
	if err != nil {
		t.Fatal(err)
	}
	runUntilCleanup(t, "controller Serve", cn.Serve, cn.Close)
	return cn
}

func startAgent(t *testing.T, addr string, id uint32) *AgentNode {
	t.Helper()
	an, err := NewAgentNode(AgentConfig{
		ControllerAddr: addr,
		ServerID:       id,
		Cores:          2,
		Pool:           dataplane.Config{DeadlineScale: 1000, Policy: dataplane.EDF},
		TTIInterval:    5 * time.Millisecond,
		Seed:           int64(id),
		Logf:           t.Logf,
	})
	if err != nil {
		t.Fatal(err)
	}
	runUntilCleanup(t, "agent Run", an.Run, an.Close)
	return an
}

// waitFor polls cond until it is true or the deadline passes.
func waitFor(t *testing.T, what string, d time.Duration, cond func() bool) {
	t.Helper()
	deadline := time.Now().Add(d)
	for !cond() {
		if time.Now().After(deadline) {
			t.Fatalf("timed out waiting for %s", what)
		}
		time.Sleep(5 * time.Millisecond)
	}
}

func TestDistributedAssignAndProcess(t *testing.T) {
	cn := startControllerNode(t, 3)
	an := startAgent(t, cn.Addr().String(), 1)

	// Seed the controller with demand so placement has something to do
	// (in steady state demand comes from agent CellLoad reports; before
	// any cell is placed nothing generates load, so the controller must
	// bootstrap from configured cells — emulate the operator enabling
	// them).
	for i := 0; i < 3; i++ {
		cn.Controller().ObserveCell(frame.CellID(i), 0.05)
	}

	waitFor(t, "cells assigned to the agent", 5*time.Second, func() bool {
		return an.NumCells() == 3
	})
	// The agent must actually decode: pool stats should accumulate.
	waitFor(t, "tasks processed", 5*time.Second, func() bool {
		return an.Pool().Stats().Completed > 5
	})
	// And its load reports must reach the controller's monitor.
	waitFor(t, "load reports", 5*time.Second, func() bool {
		return cn.Controller().Monitor().TotalDemand() > 0
	})
	// The controller books a cell as applied when it handles the agent's
	// AssignCell ack, which races the load reports above.
	waitFor(t, "applied placement of 3 cells", 5*time.Second, func() bool {
		return len(cn.Applied()) == 3
	})
}

func TestDistributedFailover(t *testing.T) {
	cn := startControllerNode(t, 2)
	a1 := startAgent(t, cn.Addr().String(), 1)
	a2 := startAgent(t, cn.Addr().String(), 2)
	for i := 0; i < 2; i++ {
		cn.Controller().ObserveCell(frame.CellID(i), 0.05)
	}
	waitFor(t, "initial assignment", 5*time.Second, func() bool {
		return a1.NumCells()+a2.NumCells() == 2
	})
	// Kill whichever agent holds cells; survivors must pick them up.
	victim, survivor := a1, a2
	if a2.NumCells() > a1.NumCells() {
		victim, survivor = a2, a1
	}
	lost := victim.NumCells()
	if lost == 0 {
		t.Skip("placement put everything on one agent; nothing to fail over")
	}
	_ = victim.Close()
	waitFor(t, "failover to survivor", 8*time.Second, func() bool {
		return survivor.NumCells() == 2
	})
}

func TestControllerNodeValidation(t *testing.T) {
	ln, err := net.Listen("tcp", "127.0.0.1:0")
	if err != nil {
		t.Fatal(err)
	}
	defer ln.Close()
	good := testCells(1)[0]
	bad := func(edit func(*frame.CellConfig)) frame.CellConfig {
		c := good
		edit(&c)
		return c
	}
	for _, tc := range []struct {
		name  string
		cells []frame.CellConfig
	}{
		{"no cells", nil},
		{"duplicate ID", []frame.CellConfig{good, bad(func(c *frame.CellConfig) { c.PCI = 7 })}},
		{"0 antennas", []frame.CellConfig{bad(func(c *frame.CellConfig) { c.Antennas = 0 })}},
		{"PCI 504", []frame.CellConfig{bad(func(c *frame.CellConfig) { c.PCI = 504 })}},
	} {
		if _, err := NewControllerNode(ln, ControllerConfig{Controller: controller.DefaultConfig(), Cells: tc.cells}); err == nil {
			t.Errorf("%s: accepted", tc.name)
		}
	}
}

func TestAgentValidation(t *testing.T) {
	if _, err := NewAgentNode(AgentConfig{ControllerAddr: "127.0.0.1:1", Cores: 0}); err == nil {
		t.Fatal("zero cores accepted")
	}
	// Unreachable controller must fail fast-ish.
	if _, err := NewAgentNode(AgentConfig{ControllerAddr: "127.0.0.1:1", Cores: 1}); err == nil {
		t.Fatal("dial to closed port succeeded")
	}
}
