package node

import (
	"net"
	"testing"
	"time"

	"pran/internal/cluster"
	"pran/internal/controller"
	"pran/internal/dataplane"
	"pran/internal/frame"
	"pran/internal/phy"
)

// startControllerNode spins up a controller node on loopback with small
// cells and a fast control loop.
func startControllerNode(t *testing.T, nCells int) *ControllerNode {
	t.Helper()
	ln, err := net.Listen("tcp", "127.0.0.1:0")
	if err != nil {
		t.Fatal(err)
	}
	var cells []CellSpecNet
	for i := 0; i < nCells; i++ {
		cells = append(cells, CellSpecNet{
			ID: frame.CellID(i), PCI: uint16(i * 3), Bandwidth: phy.BW1_4MHz, Antennas: 1,
		})
	}
	cfg := ControllerConfig{
		Controller: controller.DefaultConfig(),
		Cells:      cells,
		Period:     30 * time.Millisecond,
		Logf:       t.Logf,
	}
	cn, err := NewControllerNode(ln, cfg)
	if err != nil {
		t.Fatal(err)
	}
	go func() { _ = cn.Serve() }()
	t.Cleanup(func() { _ = cn.Close() })
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
	go func() { _ = an.Run() }()
	t.Cleanup(func() { _ = an.Close() })
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
	if got := cn.Applied(); len(got) != 3 {
		t.Fatalf("applied placement has %d cells", len(got))
	}
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
	if _, err := NewControllerNode(ln, ControllerConfig{Controller: controller.DefaultConfig()}); err == nil {
		t.Fatal("no cells accepted")
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

// TestAgentModelFollowsPoolProfile is core's TestSystemModelFollowsPoolProfile
// for the agent: the model its load reports are priced with describes the
// pipeline its pool runs.
func TestAgentModelFollowsPoolProfile(t *testing.T) {
	cn := startControllerNode(t, 1)
	f32 := phy.DecodeProfile{Kernel: phy.KernelFloat32}
	an, err := NewAgentNode(AgentConfig{
		ControllerAddr: cn.Addr().String(),
		ServerID:       1,
		Cores:          1,
		Pool:           dataplane.Config{DeadlineScale: 1000, Decode: f32},
		Logf:           t.Logf,
	})
	if err != nil {
		t.Fatal(err)
	}
	defer an.Close()
	if an.model.Profile != f32 {
		t.Fatalf("agent model prices %+v, pool runs %+v", an.model.Profile, f32)
	}
	a := frame.Allocation{RNTI: 1, NumPRB: 6, MCS: 20, SNRdB: phy.MCS(20).OperatingSNR()}
	if got, want := an.model.AllocCost(a), cluster.DefaultCostModel().WithProfile(f32).AllocCost(a); got != want {
		t.Fatalf("AllocCost %v on a float32 agent, float32 model says %v", got, want)
	}
}
