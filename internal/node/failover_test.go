package node

import (
	"bytes"
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

// startFaultyAgent starts an agent whose controller link runs through dial
// (nil means net.Dial), with a private telemetry registry and fast
// reconnect.
func startFaultyAgent(t *testing.T, addr string, id uint32, dial func(network, addr string) (net.Conn, error)) *AgentNode {
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
		Dial:         dial,
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
	victim := startFaultyAgent(t, cn.Addr().String(), 1, inj.Dial)
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

// linkKiller dials like net.Dial and remembers every connection, so a test
// can crash the link (the peer sees a reset or EOF, unlike a partition's
// silence) while the network itself stays up.
type linkKiller struct {
	mu    sync.Mutex
	conns []net.Conn
}

func (k *linkKiller) dial(network, addr string) (net.Conn, error) {
	nc, err := net.Dial(network, addr)
	if err == nil {
		k.mu.Lock()
		k.conns = append(k.conns, nc)
		k.mu.Unlock()
	}
	return nc, err
}

// kill closes every connection dialled so far.
func (k *linkKiller) kill() {
	k.mu.Lock()
	defer k.mu.Unlock()
	for _, nc := range k.conns {
		_ = nc.Close()
	}
	k.conns = nil
}

// TestAgentReconnectKeepsCells checks the transient-failure path: the
// agent's connection is killed (not partitioned), it reconnects inside the
// lease budget, and its cells never move.
func TestAgentReconnectKeepsCells(t *testing.T) {
	// Generous lease: 40 misses × 50 ms = 2 s, far above reconnect time.
	cn := startControllerNodeCfg(t, 2, 50*time.Millisecond, 40)
	var link linkKiller
	an := startFaultyAgent(t, cn.Addr().String(), 1, link.dial)
	for i := 0; i < 2; i++ {
		cn.Controller().ObserveCell(frame.CellID(i), 0.05)
	}
	waitFor(t, "initial assignment", 5*time.Second, func() bool {
		return an.NumCells() == 2
	})

	link.kill() // crash the link; the network itself stays up
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
// heartbeats every hb, answers every command, and keeps what the controller
// sent in arrival order, with arrival times.
type rawAgent struct {
	c    *ctrlproto.Client
	opts rawOpts
	stop chan struct{}
	once sync.Once
	wg   sync.WaitGroup

	mu    sync.Mutex
	got   []ctrlproto.Message
	at    []time.Time
	acked map[uint32]time.Time // when each command's ack was sent
}

// rawOpts shape a raw agent's session.
type rawOpts struct {
	owned  []uint16 // cells declared on connect
	final  []byte   // state shipped for a cell before acking its removal
	refuse bool     // answer AssignCell with an ErrorMsg
}

// dialRawAgent registers a raw agent, which declares opts.owned as a real
// agent declares its cells on every connect; the test's cleanup kills it.
func dialRawAgent(t *testing.T, addr string, id uint32, hb time.Duration, opts rawOpts) *rawAgent {
	t.Helper()
	c, err := ctrlproto.DialAgent(addr, id, 2, 1000)
	if err != nil {
		t.Fatal(err)
	}
	if err := c.SendCellOwned(opts.owned); err != nil {
		t.Fatal(err)
	}
	r := &rawAgent{c: c, opts: opts, stop: make(chan struct{}), acked: map[uint32]time.Time{}}
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
			r.at = append(r.at, time.Now())
			r.mu.Unlock()
			var seq uint32
			switch t := m.(type) {
			case *ctrlproto.AssignCell:
				if r.opts.refuse {
					_ = c.SendError(t.Seq, 1, "refused")
					continue
				}
				seq = t.Seq
			case *ctrlproto.RemoveCell:
				if r.opts.final != nil {
					_ = c.SendMigrateState(t.Cell, r.opts.final)
				}
				seq = t.Seq
			case *ctrlproto.MigrateState:
				seq = t.Seq
			default:
				continue
			}
			r.mu.Lock()
			r.acked[seq] = time.Now()
			r.mu.Unlock()
			_ = c.Ack(seq)
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

// first returns the index and arrival time of the first message of type
// ty for cell, or -1.
func (r *rawAgent) first(ty ctrlproto.MsgType, cell uint16) (int, time.Time) {
	r.mu.Lock()
	defer r.mu.Unlock()
	for i, m := range r.got {
		if m.Type() == ty && msgCell(m) == cell {
			return i, r.at[i]
		}
	}
	return -1, time.Time{}
}

// msgCell is the cell a cell command names.
func msgCell(m ctrlproto.Message) uint16 {
	switch t := m.(type) {
	case *ctrlproto.AssignCell:
		return t.Cell
	case *ctrlproto.RemoveCell:
		return t.Cell
	case *ctrlproto.MigrateState:
		return t.Cell
	}
	return 0
}

// count returns how many messages of the given type the agent received for
// cell.
func (r *rawAgent) count(ty ctrlproto.MsgType, cell uint16) int {
	n := 0
	for _, m := range r.received() {
		if m.Type() == ty && msgCell(m) == cell {
			n++
		}
	}
	return n
}

// assigned reports whether every cell has been assigned to the agent.
func (r *rawAgent) assigned(cells ...uint16) bool {
	for _, c := range cells {
		if r.count(ctrlproto.TAssignCell, c) == 0 {
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
	victim := dialRawAgent(t, cn.Addr().String(), 1, hb, rawOpts{})
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

	survivor := dialRawAgent(t, cn.Addr().String(), 2, hb, rawOpts{})
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

// TestReconnectedVictimStateIsDiscarded is the split-brain regression: a
// victim whose cells failed over comes back declaring them and, removed,
// ships the state it kept building while cut off. That state must not
// reach the survivor, which already serves the cells, and must not replace
// the warm snapshot the failover restored from.
func TestReconnectedVictimStateIsDiscarded(t *testing.T) {
	const hb = 20 * time.Millisecond
	cn := startControllerNodeCfg(t, 2, hb, 5)
	victim := dialRawAgent(t, cn.Addr().String(), 1, hb, rawOpts{})
	for i := 0; i < 2; i++ {
		cn.Controller().ObserveCell(frame.CellID(i), 0.05)
	}
	waitFor(t, "both cells on the victim", 5*time.Second, func() bool { return victim.assigned(0, 1) })
	pre := []byte("pre-partition snapshot")
	for cell := uint16(0); cell < 2; cell++ {
		if err := victim.c.SendMigrateState(cell, pre); err != nil {
			t.Fatal(err)
		}
	}
	warm := cn.Telemetry().Gauge("controller.warm_state_bytes")
	waitFor(t, "warm state at controller", 5*time.Second, func() bool { return warm.Value() == int64(2*len(pre)) })

	survivor := dialRawAgent(t, cn.Addr().String(), 2, hb, rawOpts{})
	victim.kill()
	waitFor(t, "failover to the survivor", 10*time.Second, func() bool { return survivor.assigned(0, 1) })

	back := dialRawAgent(t, cn.Addr().String(), 1, hb, rawOpts{owned: []uint16{0, 1}, final: []byte("state built while partitioned")})
	waitFor(t, "the victim's cells removed", 5*time.Second, func() bool {
		return back.count(ctrlproto.TRemoveCell, 0) > 0 && back.count(ctrlproto.TRemoveCell, 1) > 0
	})
	time.Sleep(10 * 20 * time.Millisecond) // ten control rounds for anything it shipped to travel on
	for cell := uint16(0); cell < 2; cell++ {
		assignAt, _ := survivor.first(ctrlproto.TAssignCell, cell)
		for i, m := range survivor.received() {
			if ms, ok := m.(*ctrlproto.MigrateState); ok && ms.Cell == cell && i > assignAt {
				t.Fatalf("cell %d: the survivor got %q at message %d, after its assignment at %d", cell, ms.State, i, assignAt)
			}
		}
	}
	if v := warm.Value(); v != int64(2*len(pre)) {
		t.Fatalf("warm_state_bytes %d, want the pre-partition %d", v, 2*len(pre))
	}
}

// TestRefusedAssignmentIsRetried: an agent that answers AssignCell with an
// ErrorMsg does not serve the cell, so the controller must neither count
// it as applied nor stop trying.
func TestRefusedAssignmentIsRetried(t *testing.T) {
	const hb = 20 * time.Millisecond
	cn := startControllerNodeCfg(t, 1, hb, 5)
	a := dialRawAgent(t, cn.Addr().String(), 1, hb, rawOpts{refuse: true})
	cn.Controller().ObserveCell(0, 0.05)
	waitFor(t, "the assignment sent again", 5*time.Second, func() bool {
		if _, ok := cn.Applied()[0]; ok {
			t.Fatal("a refused cell is in the applied placement")
		}
		return a.count(ctrlproto.TAssignCell, 0) >= 3
	})
}

// TestPlannedMoveAssignsAfterRemoveAck pins a planned move's order on the
// wire: the old host's RemoveCell is acked, after it shipped its final
// state, before the new host is sent that state and then the assignment.
func TestPlannedMoveAssignsAfterRemoveAck(t *testing.T) {
	const hb = 20 * time.Millisecond
	cn := startControllerNodeCfg(t, 2, hb, 5)
	final := []byte("final state")
	old := dialRawAgent(t, cn.Addr().String(), 1, hb, rawOpts{final: final})
	for i := 0; i < 2; i++ {
		cn.Controller().ObserveCell(frame.CellID(i), 0.05)
	}
	waitFor(t, "both cells on the first agent", 5*time.Second, func() bool { return old.assigned(0, 1) })
	next := dialRawAgent(t, cn.Addr().String(), 2, hb, rawOpts{})
	// Demand neither server can hold twice forces one cell to move.
	waitFor(t, "a cell moved to the second agent", 10*time.Second, func() bool {
		for i := 0; i < 2; i++ {
			cn.Controller().ObserveCell(frame.CellID(i), 1.5)
		}
		return next.assigned(0) || next.assigned(1)
	})
	cell := uint16(0)
	if !next.assigned(0) {
		cell = 1
	}
	removeAt, _ := old.first(ctrlproto.TRemoveCell, cell)
	if removeAt < 0 {
		t.Fatalf("cell %d reached the second agent without a RemoveCell to the first", cell)
	}
	old.mu.Lock()
	ackedAt := old.acked[old.got[removeAt].(*ctrlproto.RemoveCell).Seq]
	old.mu.Unlock()
	stateIdx, stateAt := next.first(ctrlproto.TMigrateState, cell)
	assignIdx, assignAt := next.first(ctrlproto.TAssignCell, cell)
	if stateIdx < 0 || stateIdx > assignIdx {
		t.Fatalf("cell %d: state at message %d, assignment at %d", cell, stateIdx, assignIdx)
	}
	if got := next.received()[stateIdx].(*ctrlproto.MigrateState).State; string(got) != string(final) {
		t.Fatalf("cell %d moved with state %q, not the old host's final %q", cell, got, final)
	}
	if !stateAt.After(ackedAt) || !assignAt.After(ackedAt) {
		t.Fatalf("cell %d: state at %v and assignment at %v, remove acked at %v", cell, stateAt, assignAt, ackedAt)
	}
}

// stateRecorder is a controller side that keeps every reply.
type stateRecorder struct{ msgs chan ctrlproto.Message }

func (h *stateRecorder) OnRegister(*ctrlproto.Agent, *ctrlproto.Register) error { return nil }
func (h *stateRecorder) OnHeartbeat(*ctrlproto.Agent, *ctrlproto.Heartbeat)     {}
func (h *stateRecorder) OnDisconnect(*ctrlproto.Agent, error)                   {}
func (h *stateRecorder) OnMessage(_ *ctrlproto.Agent, m ctrlproto.Message) {
	select {
	case h.msgs <- m:
	default:
	}
}

// TestServedCellRefusesMigratedState: a MigrateState for a cell the agent
// already serves is answered with an ErrorMsg and leaves the cell's live
// HARQ state as it was.
func TestServedCellRefusesMigratedState(t *testing.T) {
	ln, err := net.Listen("tcp", "127.0.0.1:0")
	if err != nil {
		t.Fatal(err)
	}
	// Room for every report the agent streams while the test runs; the
	// recorder drops the rest rather than stall the server's reader.
	h := &stateRecorder{msgs: make(chan ctrlproto.Message, 1024)}
	srv := ctrlproto.NewServer(ln, h)
	runUntilCleanup(t, "server Serve", srv.Serve, srv.Close)
	an, err := NewAgentNode(AgentConfig{
		ControllerAddr: srv.Addr().String(), ServerID: 1, Cores: 1,
		Pool:        dataplane.Config{DeadlineScale: 1000, Telemetry: telemetry.New(1)},
		TTIInterval: time.Hour, // no subframe runs, so the live state holds still
		Logf:        t.Logf,
	})
	if err != nil {
		t.Fatal(err)
	}
	runUntilCleanup(t, "agent Run", an.Run, an.Close)
	var link *ctrlproto.Agent
	waitFor(t, "agent registered", 5*time.Second, func() bool {
		var ok bool
		link, ok = srv.Agent(1)
		return ok
	})
	reply := func(seq uint32) ctrlproto.Message {
		t.Helper()
		deadline := time.After(5 * time.Second)
		for {
			select {
			case m := <-h.msgs:
				switch r := m.(type) {
				case *ctrlproto.Ack:
					if r.Seq == seq {
						return r
					}
				case *ctrlproto.ErrorMsg:
					if r.Seq == seq {
						return r
					}
				}
			case <-deadline:
				t.Fatalf("no reply to command %d", seq)
			}
		}
	}
	if err := link.Send(&ctrlproto.AssignCell{Seq: 1, Cell: 0, PCI: 0, PRB: 6, Antennas: 1}); err != nil {
		t.Fatal(err)
	}
	if _, ok := reply(1).(*ctrlproto.Ack); !ok {
		t.Fatal("assignment refused")
	}
	live := func() []byte {
		an.mu.Lock()
		defer an.mu.Unlock()
		b, err := an.cells[0].proc.HARQ().MarshalBinary()
		if err != nil {
			t.Fatal(err)
		}
		return b
	}
	before := live()
	foreign := dataplane.NewHARQManager()
	foreign.Prepare(frame.Allocation{RNTI: 7, NumPRB: 3, MCS: 8}, 0)
	state, err := foreign.MarshalBinary()
	if err != nil {
		t.Fatal(err)
	}
	if err := link.Send(&ctrlproto.MigrateState{Seq: 2, Cell: 0, State: state}); err != nil {
		t.Fatal(err)
	}
	if _, ok := reply(2).(*ctrlproto.ErrorMsg); !ok {
		t.Fatal("state for a served cell was accepted")
	}
	if after := live(); !bytes.Equal(before, after) {
		t.Fatalf("live HARQ state changed from %d to %d bytes", len(before), len(after))
	}
}
