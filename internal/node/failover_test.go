package node

import (
	"net"
	"testing"
	"time"

	"pran/internal/cluster"
	"pran/internal/controller"
	"pran/internal/dataplane"
	"pran/internal/faultinject"
	"pran/internal/frame"
	"pran/internal/phy"
	"pran/internal/telemetry"
)

// startControllerNodeCfg is startControllerNode with explicit lease tuning
// and a private telemetry registry so counter assertions don't see other
// tests' traffic.
func startControllerNodeCfg(t *testing.T, nCells int, hb time.Duration, misses int) *ControllerNode {
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
	cn, err := NewControllerNode(ln, ControllerConfig{
		Controller:        controller.DefaultConfig(),
		Cells:             cells,
		Period:            20 * time.Millisecond,
		HeartbeatInterval: hb,
		LeaseMisses:       misses,
		Logf:              t.Logf,
		Telemetry:         telemetry.New(1),
	})
	if err != nil {
		t.Fatal(err)
	}
	runUntilCleanup(t, "controller Serve", cn.Serve, cn.Close)
	return cn
}

// startFaultyAgent starts an agent whose controller link runs through the
// fault injector, with a private telemetry registry and fast reconnect.
func startFaultyAgent(t *testing.T, addr string, id uint32, inj *faultinject.Injector) *AgentNode {
	t.Helper()
	cfg := AgentConfig{
		ControllerAddr: addr,
		ServerID:       id,
		Cores:          2,
		Pool: dataplane.Config{
			DeadlineScale: 1000, Policy: dataplane.EDF,
			Telemetry: telemetry.New(1),
		},
		TTIInterval:  15 * time.Millisecond,
		Seed:         int64(id),
		ReconnectMin: 20 * time.Millisecond,
		ReconnectMax: 200 * time.Millisecond,
		Logf:         t.Logf,
	}
	if inj != nil {
		cfg.Dial = inj.Dial
	}
	an, err := NewAgentNode(cfg)
	if err != nil {
		t.Fatal(err)
	}
	runUntilCleanup(t, "agent Run", an.Run, an.Close)
	return an
}

// TestLeaseFailoverWithFaultInjection is the live recovery acceptance test:
// two agents under a real controller, one is partitioned away mid-traffic by
// the fault injector, and within the lease budget its cells must land on the
// survivor together with warm HARQ state. After the partition heals, the
// victim re-registers and is reconciled out of its stale cells.
func TestLeaseFailoverWithFaultInjection(t *testing.T) {
	// 400 ms lease budget: generous enough that a multi-hundred-KB HARQ
	// snapshot in flight (which delays heartbeats behind it on the shared
	// stream) can't trigger a spurious expiry on a loaded test machine or
	// under the race detector's slowdown.
	const hb, misses = 50 * time.Millisecond, 8
	cn := startControllerNodeCfg(t, 2, hb, misses)
	inj := faultinject.New(42)
	victim := startFaultyAgent(t, cn.Addr().String(), 1, inj)
	survivor := startFaultyAgent(t, cn.Addr().String(), 2, nil)
	for i := 0; i < 2; i++ {
		cn.Controller().ObserveCell(frame.CellID(i), 0.05)
	}
	waitFor(t, "initial assignment", 5*time.Second, func() bool {
		return victim.NumCells()+survivor.NumCells() == 2
	})
	if victim.NumCells() == 0 {
		t.Skip("placement put everything on the survivor; nothing to fail over")
	}
	// Let traffic build HARQ state and let warm snapshots reach the
	// controller (agents ship them every warmSnapshotEvery reports).
	waitFor(t, "warm state at controller", 5*time.Second, func() bool {
		return cn.Telemetry().Gauge("controller.warm_state_bytes").Value() > 0
	})

	partitionedAt := time.Now()
	inj.Partition()
	budget := cn.LeaseBudget()
	waitFor(t, "lease expiry", 10*budget+2*time.Second, func() bool {
		return cn.Telemetry().Counter("controller.lease_expiries").Value() >= 1
	})
	detection := time.Since(partitionedAt)
	waitFor(t, "failover to survivor", 5*time.Second, func() bool {
		return survivor.NumCells() == 2
	})
	mttr := time.Since(partitionedAt)
	t.Logf("detection %v, MTTR %v (lease budget %v)", detection, mttr, budget)
	// Detection is lease-driven: silence since the victim's last *processed*
	// message must span the budget, so measured from partition onset it can
	// undershoot by at most one report interval plus processing slack — but
	// near-instant detection would mean a disconnect (not the lease) fired.
	if detection < budget-2*hb {
		t.Fatalf("detected after %v — too fast for the %v lease budget; disconnect-driven?", detection, budget)
	}

	// The survivor must have received the victim's HARQ state (restored
	// bytes counted on its registry) and the controller must have pushed it.
	if v := cn.Telemetry().Counter("controller.state_pushed_bytes").Value(); v == 0 {
		t.Fatal("controller pushed no warm state during failover")
	}
	if v := survivor.Telemetry().Counter("agent.state_restored_bytes").Value(); v == 0 {
		t.Fatal("survivor restored no migrated HARQ state")
	}
	// Decoding resumes on the survivor: completions keep growing.
	base := survivor.Pool().Stats().Completed
	waitFor(t, "survivor decoding resumed", 5*time.Second, func() bool {
		return survivor.Pool().Stats().Completed > base
	})

	// Meanwhile the victim, cut off, keeps serving its cells headless.
	waitFor(t, "headless TTIs on the victim", 5*time.Second, func() bool {
		return victim.Telemetry().Counter("agent.headless_ttis").Value() > 0
	})

	// Heal: the victim reconnects, declares its stale cells, and the
	// controller reconciles them away. The controller may afterwards
	// legitimately rebalance a cell back onto the repaired victim, so the
	// postcondition is convergence — each cell served exactly once, no
	// duplicated ownership — not an empty victim.
	inj.Heal()
	waitFor(t, "victim reconnect", 10*time.Second, func() bool {
		return victim.Telemetry().Counter("agent.reconnects").Value() >= 1
	})
	waitFor(t, "ownership reconciled (no duplicate cells)", 10*time.Second, func() bool {
		return victim.NumCells()+survivor.NumCells() == 2
	})
	waitFor(t, "victim repaired in the cluster", 10*time.Second, func() bool {
		got, err := cn.Controller().Cluster().Get(cluster.ServerID(1))
		return err == nil && got.State != cluster.Failed
	})
}

// TestAgentReconnectKeepsCells checks the transient-failure path: the
// agent's connection is killed (not partitioned), it reconnects inside the
// lease budget, and its cells never move.
func TestAgentReconnectKeepsCells(t *testing.T) {
	// Generous lease: 40 misses × 50 ms = 2 s, far above reconnect time.
	cn := startControllerNodeCfg(t, 2, 50*time.Millisecond, 40)
	inj := faultinject.New(7)
	an := startFaultyAgent(t, cn.Addr().String(), 1, inj)
	for i := 0; i < 2; i++ {
		cn.Controller().ObserveCell(frame.CellID(i), 0.05)
	}
	waitFor(t, "initial assignment", 5*time.Second, func() bool {
		return an.NumCells() == 2
	})

	inj.CloseAll() // crash the link; the network itself stays up
	waitFor(t, "reconnect", 5*time.Second, func() bool {
		return an.Telemetry().Counter("agent.reconnects").Value() >= 1
	})
	// The lease never expired, so no failover happened and the agent kept
	// every cell through the blip.
	if v := cn.Telemetry().Counter("controller.lease_expiries").Value(); v != 0 {
		t.Fatalf("%d lease expiries during a sub-budget blip", v)
	}
	if n := an.NumCells(); n != 2 {
		t.Fatalf("agent dropped to %d cells across reconnect", n)
	}
	// Post-reconnect the session is fully live: decoding and load reporting
	// continue on the new connection.
	base := an.Pool().Stats().Completed
	waitFor(t, "decoding continues", 5*time.Second, func() bool {
		return an.Pool().Stats().Completed > base
	})
	if got, err := cn.Controller().Cluster().Get(cluster.ServerID(1)); err != nil || got.State != cluster.Active {
		t.Fatalf("server state after reconnect: %v err=%v", got.State, err)
	}
	if got := cn.Applied(); len(got) != 2 {
		t.Fatalf("applied placement has %d cells after reconnect", len(got))
	}
}
