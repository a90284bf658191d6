package node

import (
	"net"
	"sync"
	"testing"
	"time"

	"pran/internal/cluster"
	"pran/internal/controller"
	"pran/internal/ctrlproto"
	"pran/internal/dataplane"
	"pran/internal/faultinject"
	"pran/internal/frame"
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
	cn, err := NewControllerNode(ln, ControllerConfig{
		Controller:        controller.DefaultConfig(),
		Cells:             testCells(nCells),
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

// rawAgent is a hand-driven protocol client standing in for an agent: it
// heartbeats every hb, acks every command, and keeps what the controller
// sent in arrival order.
type rawAgent struct {
	c    *ctrlproto.Client
	stop chan struct{}
	once sync.Once
	wg   sync.WaitGroup

	mu  sync.Mutex
	got []ctrlproto.Message
}

// dialRawAgent registers a raw agent; the test's cleanup kills it.
func dialRawAgent(t *testing.T, addr string, id uint32, hb time.Duration) *rawAgent {
	t.Helper()
	c, err := ctrlproto.DialAgent(addr, id, 2, 1000)
	if err != nil {
		t.Fatal(err)
	}
	r := &rawAgent{c: c, stop: make(chan struct{})}
	r.wg.Add(2)
	go func() {
		defer r.wg.Done()
		tk := time.NewTicker(hb)
		defer tk.Stop()
		for {
			select {
			case <-r.stop:
				return
			case <-tk.C:
				_ = c.Heartbeat(&ctrlproto.Heartbeat{})
			}
		}
	}()
	go func() {
		defer r.wg.Done()
		for {
			m, err := c.Receive()
			if err != nil {
				return
			}
			r.mu.Lock()
			r.got = append(r.got, m)
			r.mu.Unlock()
			switch t := m.(type) {
			case *ctrlproto.AssignCell:
				_ = c.Ack(t.Seq)
			case *ctrlproto.RemoveCell:
				_ = c.Ack(t.Seq)
			case *ctrlproto.MigrateState:
				_ = c.Ack(t.Seq)
			}
		}
	}()
	t.Cleanup(r.kill)
	return r
}

// kill stops heartbeating and drops the connection, as a crashed agent.
func (r *rawAgent) kill() {
	r.once.Do(func() {
		close(r.stop)
		_ = r.c.Close()
		r.wg.Wait()
	})
}

// received returns the messages so far, in arrival order.
func (r *rawAgent) received() []ctrlproto.Message {
	r.mu.Lock()
	defer r.mu.Unlock()
	return append([]ctrlproto.Message(nil), r.got...)
}

// assigned reports whether every cell has been assigned to the agent.
func (r *rawAgent) assigned(cells ...uint16) bool {
	seen := map[uint16]bool{}
	for _, m := range r.received() {
		if a, ok := m.(*ctrlproto.AssignCell); ok {
			seen[a.Cell] = true
		}
	}
	for _, c := range cells {
		if !seen[c] {
			return false
		}
	}
	return true
}

// TestFailoverShipsStateBeforeAssignment pins restore-before-serve on the
// wire: when a dead agent's cells are re-placed, the survivor must receive
// each cell's warm HARQ snapshot before the cell's assignment, so the
// first subframe it serves already combines into the restored state. Both
// agents are raw protocol clients, so the test sees exactly what the
// controller sends and in which order.
func TestFailoverShipsStateBeforeAssignment(t *testing.T) {
	const hb = 20 * time.Millisecond
	cn := startControllerNodeCfg(t, 2, hb, 5)
	victim := dialRawAgent(t, cn.Addr().String(), 1, hb)
	for i := 0; i < 2; i++ {
		cn.Controller().ObserveCell(frame.CellID(i), 0.05)
	}
	waitFor(t, "both cells on the victim", 5*time.Second, func() bool { return victim.assigned(0, 1) })
	state := []byte("warm harq snapshot")
	for cell := uint16(0); cell < 2; cell++ {
		if err := victim.c.SendMigrateState(cell, state); err != nil {
			t.Fatal(err)
		}
	}
	waitFor(t, "warm state at controller", 5*time.Second, func() bool {
		return cn.Telemetry().Gauge("controller.warm_state_bytes").Value() == int64(2*len(state))
	})

	survivor := dialRawAgent(t, cn.Addr().String(), 2, hb)
	victim.kill()
	waitFor(t, "failover to the survivor", 10*time.Second, func() bool { return survivor.assigned(0, 1) })
	for cell := uint16(0); cell < 2; cell++ {
		stateAt, assignAt := -1, -1
		for i, m := range survivor.received() {
			switch t := m.(type) {
			case *ctrlproto.MigrateState:
				if t.Cell == cell && stateAt < 0 {
					stateAt = i
				}
			case *ctrlproto.AssignCell:
				if t.Cell == cell && assignAt < 0 {
					assignAt = i
				}
			}
		}
		if stateAt < 0 || stateAt > assignAt {
			t.Fatalf("cell %d: warm state arrived at message %d, assignment at %d; the survivor served the cell cold", cell, stateAt, assignAt)
		}
	}
}
