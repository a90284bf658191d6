package node

import (
	"errors"
	"fmt"
	"io"
	"math/rand"
	"net"
	"sync"
	"sync/atomic"
	"time"

	"pran/internal/cluster"
	"pran/internal/ctrlproto"
	"pran/internal/dataplane"
	"pran/internal/frame"
	"pran/internal/phy"
	"pran/internal/telemetry"
	"pran/internal/traffic"
)

// AgentConfig parameterizes an agent node.
type AgentConfig struct {
	// ControllerAddr is the controller's TCP endpoint.
	ControllerAddr string
	// ServerID is this server's stable pool identity.
	ServerID uint32
	// Cores is the worker count advertised and run.
	Cores int
	// SpeedMilli is the advertised speed factor ×1000.
	SpeedMilli uint32
	// Pool configures the local data plane (Workers is overridden by
	// Cores).
	Pool dataplane.Config
	// TTIInterval is the real-time pacing of subframes; it defaults to the
	// scaled subframe duration (DeadlineScale × 1 ms) so load ratios match
	// the deadline scale.
	TTIInterval time.Duration
	// TTIStride compresses simulated time: each real tick advances the TTI
	// counter by this many subframes (default 1). The data plane still
	// processes one subframe per tick — the stride only moves the traffic
	// model's clock faster, so a minutes-long diurnal/event timeline fits a
	// seconds-long run. Soak and experiment harnesses use it; production-like
	// runs leave it at 1.
	TTIStride int
	// Schedule, when non-nil, installs a system-wide workload-diversity
	// event schedule on every assigned cell's traffic generator. Cell IDs
	// index the schedule directly, so the schedule must cover every cell the
	// controller may assign, and its start hour must match the agent's
	// generator start (12h — midday).
	Schedule *traffic.Schedule
	// Seed drives the agent's local traffic emulation (and reconnect
	// jitter).
	Seed int64
	// Dial overrides the transport dialer — the fault-injection and test
	// hook; nil means net.Dial.
	Dial func(network, addr string) (net.Conn, error)
	// NoReconnect makes Run return when the controller connection ends
	// instead of retrying (the pre-lease behavior).
	NoReconnect bool
	// ReconnectMin and ReconnectMax bound the jittered exponential backoff
	// between reconnect attempts (defaults 50 ms and 2 s).
	ReconnectMin, ReconnectMax time.Duration
	// Logf receives progress lines; nil silences them.
	Logf func(format string, args ...any)
}

// cellRuntime is one assigned cell's emulation and ingest state.
type cellRuntime struct {
	cfg  frame.CellConfig
	rrh  *dataplane.RRHEmulator
	proc *dataplane.CellProcessor
	gen  *traffic.Generator
	// demand is the EWMA compute demand reported to the controller.
	demand float64
	// demandGauge mirrors demand into the telemetry registry (nil when
	// telemetry is disabled).
	demandGauge *telemetry.Gauge
}

// cellDemandMetric names the per-cell demand gauge the agent maintains.
func cellDemandMetric(id frame.CellID) string {
	return fmt.Sprintf("cell.%d.demand_millicores", id)
}

// AgentNode is one pool server: it registers with the controller, runs the
// measured data plane for whatever cells it is assigned (emulating their
// RRH input locally), and streams heartbeats plus per-cell load reports.
// A broken controller connection is survivable: the TTI loop keeps serving
// assigned cells headless while a reconnect loop re-registers with jittered
// exponential backoff.
type AgentNode struct {
	cfg   AgentConfig
	pool  *dataplane.Pool
	model cluster.CostModel
	logf  func(format string, args ...any)
	dial  func(network, addr string) (net.Conn, error)

	// connMu guards the current client; the connection is replaced by the
	// reconnect loop while the TTI and report loops keep running.
	connMu    sync.Mutex
	client    *ctrlproto.Client
	connected atomic.Bool

	mu           sync.Mutex
	cells        map[frame.CellID]*cellRuntime
	pendingState map[frame.CellID][]byte // migrated state arriving pre-assignment
	tti          frame.TTI

	// Resilience telemetry (nil when the pool runs telemetry-disabled).
	reconnects    *telemetry.Counter
	headlessTTIs  *telemetry.Counter
	stateRestored *telemetry.Counter
	stateShipped  *telemetry.Counter

	closeOnce sync.Once
	closeCh   chan struct{} // closed by Close; aborts reconnect backoff
	stopCh    chan struct{} // closed by Run on exit; stops the loops
	wg        sync.WaitGroup
}

// inc bumps a counter that may be nil (telemetry disabled).
func inc(c *telemetry.Counter, n uint64) {
	if c != nil {
		c.Add(0, n)
	}
}

// NewAgentNode dials the controller and registers. Call Run to start the
// TTI and reporting loops.
func NewAgentNode(cfg AgentConfig) (*AgentNode, error) {
	if cfg.Cores < 1 {
		return nil, fmt.Errorf("node: agent needs ≥ 1 core: %w", phy.ErrBadParameter)
	}
	if cfg.SpeedMilli == 0 {
		cfg.SpeedMilli = 1000
	}
	if cfg.Logf == nil {
		cfg.Logf = func(string, ...any) {}
	}
	if cfg.Dial == nil {
		cfg.Dial = net.Dial
	}
	if cfg.ReconnectMin <= 0 {
		cfg.ReconnectMin = 50 * time.Millisecond
	}
	if cfg.ReconnectMax <= 0 {
		cfg.ReconnectMax = 2 * time.Second
	}
	cfg.Pool.Workers = cfg.Cores
	if cfg.Pool.DeadlineScale <= 0 {
		cfg.Pool.DeadlineScale = 1
	}
	if cfg.TTIInterval <= 0 {
		cfg.TTIInterval = time.Duration(float64(time.Millisecond) * cfg.Pool.DeadlineScale)
	}
	if cfg.TTIStride < 1 {
		cfg.TTIStride = 1
	}
	nc, err := cfg.Dial("tcp", cfg.ControllerAddr)
	if err != nil {
		return nil, err
	}
	client, err := ctrlproto.RegisterAgentConn(nc, cfg.ServerID, uint16(cfg.Cores), cfg.SpeedMilli)
	if err != nil {
		return nil, err
	}
	pool, err := dataplane.NewPool(cfg.Pool)
	if err != nil {
		_ = client.Close()
		return nil, err
	}
	a := &AgentNode{
		cfg:     cfg,
		client:  client,
		pool:    pool,
		model:   cluster.DefaultCostModel().WithProfile(cfg.Pool.Decode),
		logf:    cfg.Logf,
		dial:    cfg.Dial,
		cells:   make(map[frame.CellID]*cellRuntime),
		closeCh: make(chan struct{}),
		stopCh:  make(chan struct{}),
	}
	a.connected.Store(true)
	if reg := pool.Telemetry(); reg != nil {
		a.reconnects = reg.Counter("agent.reconnects")
		a.headlessTTIs = reg.Counter("agent.headless_ttis")
		a.stateRestored = reg.Counter("agent.state_restored_bytes")
		a.stateShipped = reg.Counter("agent.state_shipped_bytes")
	}
	return a, nil
}

// cli returns the current controller client.
func (a *AgentNode) cli() *ctrlproto.Client {
	a.connMu.Lock()
	defer a.connMu.Unlock()
	return a.client
}

// isClosing reports whether Close has been called.
func (a *AgentNode) isClosing() bool {
	select {
	case <-a.closeCh:
		return true
	default:
		return false
	}
}

// Pool exposes the local data plane.
func (a *AgentNode) Pool() *dataplane.Pool { return a.pool }

// Telemetry returns the agent's runtime-metrics registry, or nil when the
// pool runs with telemetry disabled.
func (a *AgentNode) Telemetry() *telemetry.Registry { return a.pool.Telemetry() }

// encodeTelemetry serializes the agent's snapshot for a stats report; it
// returns nil when telemetry is disabled or encoding fails (the report then
// carries an empty payload, which the controller counts but does not merge).
func (a *AgentNode) encodeTelemetry() []byte {
	reg := a.pool.Telemetry()
	if reg == nil {
		return nil
	}
	data, err := reg.Snapshot().Encode()
	if err != nil {
		a.logf("agent %d: encode telemetry: %v", a.cfg.ServerID, err)
		return nil
	}
	return data
}

// TTI returns the agent's current subframe counter. With TTIStride > 1 it
// advances stride subframes per real tick, so TTI × 1 ms is the simulated
// time the agent has covered.
func (a *AgentNode) TTI() frame.TTI {
	a.mu.Lock()
	defer a.mu.Unlock()
	return a.tti
}

// NumCells returns how many cells the agent currently runs.
func (a *AgentNode) NumCells() int {
	a.mu.Lock()
	defer a.mu.Unlock()
	return len(a.cells)
}

// Run starts the command, TTI, and reporting loops; it returns when Close
// is called, or — with NoReconnect — when the controller connection ends.
// Otherwise a broken connection sends Run into the reconnect loop while the
// TTI loop keeps serving cells headless.
func (a *AgentNode) Run() error {
	a.wg.Add(2)
	go a.ttiLoop()
	go a.reportLoop()
	// Declare owned cells on the initial session too, not just reconnects: a
	// restarted agent that re-registers before its lease expires would
	// otherwise leave the controller believing its pre-restart cells are
	// still applied — a black hole until the next placement change.
	if err := a.cli().SendCellOwned(a.ownedCells()); err != nil {
		a.logf("agent %d: declare owned cells: %v", a.cfg.ServerID, err)
	}
	var err error
	for {
		err = a.commandLoop()
		a.connected.Store(false)
		if a.isClosing() || a.cfg.NoReconnect {
			break
		}
		a.logf("agent %d: controller connection lost (%v); reconnecting", a.cfg.ServerID, err)
		if rerr := a.reconnect(); rerr != nil {
			err = rerr
			break
		}
	}
	close(a.stopCh)
	a.wg.Wait()
	if a.isClosing() || errors.Is(err, io.EOF) || errors.Is(err, net.ErrClosed) {
		return nil
	}
	return err
}

// reconnect re-establishes the controller session with jittered exponential
// backoff, re-registers, and declares the cells this agent still runs so the
// controller can reconcile. It returns net.ErrClosed if Close interrupts.
func (a *AgentNode) reconnect() error {
	rng := rand.New(rand.NewSource(a.cfg.Seed + int64(a.cfg.ServerID)))
	backoff := a.cfg.ReconnectMin
	for attempt := 1; ; attempt++ {
		// Full jitter: sleep uniformly in [backoff/2, backoff).
		d := backoff/2 + time.Duration(rng.Int63n(int64(backoff/2)+1))
		select {
		case <-a.closeCh:
			return net.ErrClosed
		case <-time.After(d):
		}
		nc, err := a.dial("tcp", a.cfg.ControllerAddr)
		if err == nil {
			var client *ctrlproto.Client
			client, err = ctrlproto.RegisterAgentConn(nc, a.cfg.ServerID, uint16(a.cfg.Cores), a.cfg.SpeedMilli)
			if err == nil {
				a.connMu.Lock()
				if a.isClosing() {
					a.connMu.Unlock()
					_ = client.Close()
					return net.ErrClosed
				}
				a.client = client
				a.connMu.Unlock()
				a.connected.Store(true)
				inc(a.reconnects, 1)
				if err := client.SendCellOwned(a.ownedCells()); err != nil {
					a.logf("agent %d: declare owned cells: %v", a.cfg.ServerID, err)
				}
				a.logf("agent %d: reconnected after %d attempts", a.cfg.ServerID, attempt)
				return nil
			}
		}
		a.logf("agent %d: reconnect attempt %d: %v", a.cfg.ServerID, attempt, err)
		if backoff *= 2; backoff > a.cfg.ReconnectMax {
			backoff = a.cfg.ReconnectMax
		}
	}
}

// ownedCells lists the cells this agent currently runs.
func (a *AgentNode) ownedCells() []uint16 {
	a.mu.Lock()
	defer a.mu.Unlock()
	out := make([]uint16, 0, len(a.cells))
	for id := range a.cells {
		out = append(out, uint16(id))
	}
	return out
}

// Close tears the agent down.
func (a *AgentNode) Close() error {
	a.closeOnce.Do(func() { close(a.closeCh) })
	_ = a.cli().Close()
	return a.pool.Close()
}

// cmdError counts a failed controller command by type.
func (a *AgentNode) cmdError(kind string) {
	if reg := a.pool.Telemetry(); reg != nil {
		reg.Counter("agent.command_errors." + kind).Inc(0)
	}
}

// commandLoop processes controller commands until the connection drops.
func (a *AgentNode) commandLoop() error {
	c := a.cli()
	for {
		m, err := c.Receive()
		if err != nil {
			return err
		}
		switch t := m.(type) {
		case *ctrlproto.AssignCell:
			if err := a.assignCell(t); err != nil {
				a.logf("agent %d: assign cell %d: %v", a.cfg.ServerID, t.Cell, err)
				a.cmdError("assign_cell")
				_ = c.SendError(t.Seq, 1, err.Error())
				continue
			}
			a.logf("agent %d: assigned cell %d", a.cfg.ServerID, t.Cell)
			_ = c.Ack(t.Seq)
		case *ctrlproto.RemoveCell:
			// Ship the cell's HARQ state to the controller before
			// releasing it, so the destination server can resume
			// in-flight retransmissions (PRAN's migration path).
			if state := a.snapshotCellState(frame.CellID(t.Cell)); state != nil {
				if err := c.SendMigrateState(t.Cell, state); err != nil {
					a.cmdError("remove_cell")
				} else {
					inc(a.stateShipped, uint64(len(state)))
				}
			}
			a.removeCell(frame.CellID(t.Cell))
			a.logf("agent %d: removed cell %d", a.cfg.ServerID, t.Cell)
			_ = c.Ack(t.Seq)
		case *ctrlproto.MigrateState:
			if err := a.restoreCellState(frame.CellID(t.Cell), t.State); err != nil {
				a.logf("agent %d: restore cell %d state: %v", a.cfg.ServerID, t.Cell, err)
				a.cmdError("migrate_state")
				_ = c.SendError(t.Seq, 2, err.Error())
				continue
			}
			a.logf("agent %d: restored %d bytes of cell %d state", a.cfg.ServerID, len(t.State), t.Cell)
			_ = c.Ack(t.Seq)
		case *ctrlproto.Drain:
			_ = c.Ack(t.Seq)
		case *ctrlproto.Promote:
			_ = c.Ack(t.Seq)
		case *ctrlproto.StatsRequest:
			if err := c.SendStatsReport(t.Seq, a.encodeTelemetry()); err != nil {
				a.cmdError("stats_request")
			}
		}
	}
}

// assignCell builds the cell's runtime (RRH emulator + ingest + traffic).
func (a *AgentNode) assignCell(cmd *ctrlproto.AssignCell) error {
	cellCfg := frame.CellConfig{
		ID:        frame.CellID(cmd.Cell),
		PCI:       cmd.PCI,
		Bandwidth: phy.Bandwidth(cmd.PRB),
		Antennas:  int(cmd.Antennas),
	}
	if err := cellCfg.Validate(); err != nil {
		return err
	}
	rrh, err := dataplane.NewRRHEmulator(cellCfg, a.cfg.Seed+int64(cmd.Cell)*997)
	if err != nil {
		return err
	}
	proc, err := dataplane.NewCellProcessor(cellCfg, a.pool)
	if err != nil {
		return err
	}
	classes := traffic.StandardMix(int(cmd.Cell) + 1)
	gen, err := traffic.NewGenerator(cellCfg.Bandwidth,
		[]traffic.CellProfile{traffic.DefaultProfile(classes[cmd.Cell])},
		a.cfg.Seed+int64(cmd.Cell), 12)
	if err != nil {
		return err
	}
	if a.cfg.Schedule != nil {
		if err := gen.SetSchedule(a.cfg.Schedule, int(cmd.Cell)); err != nil {
			return err
		}
	}
	rt := &cellRuntime{cfg: cellCfg, rrh: rrh, proc: proc, gen: gen}
	if reg := a.pool.Telemetry(); reg != nil {
		rt.demandGauge = reg.Gauge(cellDemandMetric(cellCfg.ID))
	}
	a.mu.Lock()
	a.cells[cellCfg.ID] = rt
	if state, ok := a.pendingState[cellCfg.ID]; ok {
		delete(a.pendingState, cellCfg.ID)
		if err := proc.HARQ().UnmarshalBinary(state); err != nil {
			a.logf("agent %d: apply parked state for cell %d: %v", a.cfg.ServerID, cellCfg.ID, err)
		} else {
			inc(a.stateRestored, uint64(len(state)))
		}
	}
	a.mu.Unlock()
	return nil
}

func (a *AgentNode) removeCell(id frame.CellID) {
	a.mu.Lock()
	if rt, ok := a.cells[id]; ok && rt.demandGauge != nil {
		rt.demandGauge.Set(0) // the cell no longer demands compute here
	}
	delete(a.cells, id)
	a.mu.Unlock()
}

// snapshotCellState serializes a cell's HARQ state, or nil when the cell is
// unknown or has no state worth shipping.
func (a *AgentNode) snapshotCellState(id frame.CellID) []byte {
	a.mu.Lock()
	defer a.mu.Unlock()
	rt, ok := a.cells[id]
	if !ok || rt.proc.HARQ().Processes() == 0 {
		return nil
	}
	state, err := rt.proc.HARQ().MarshalBinary()
	if err != nil {
		return nil
	}
	return state
}

// restoreCellState loads migrated HARQ state into an assigned cell. State
// arriving before the AssignCell command is parked and applied on
// assignment.
func (a *AgentNode) restoreCellState(id frame.CellID, state []byte) error {
	a.mu.Lock()
	defer a.mu.Unlock()
	rt, ok := a.cells[id]
	if !ok {
		if a.pendingState == nil {
			a.pendingState = make(map[frame.CellID][]byte)
		}
		a.pendingState[id] = append([]byte(nil), state...)
		return nil
	}
	if err := rt.proc.HARQ().UnmarshalBinary(state); err != nil {
		return err
	}
	inc(a.stateRestored, uint64(len(state)))
	return nil
}

// ttiLoop paces subframes: each tick, every assigned cell generates its
// schedule, emits the uplink signal, and ingests it into the shared pool.
func (a *AgentNode) ttiLoop() {
	defer a.wg.Done()
	ticker := time.NewTicker(a.cfg.TTIInterval)
	defer ticker.Stop()
	for {
		select {
		case <-a.stopCh:
			return
		case <-ticker.C:
		}
		a.mu.Lock()
		tti := a.tti
		a.tti += frame.TTI(a.cfg.TTIStride)
		if !a.connected.Load() && len(a.cells) > 0 {
			inc(a.headlessTTIs, 1) // still serving, controller unreachable
		}
		for _, rt := range a.cells {
			work, err := rt.gen.Subframe(0, tti)
			if err != nil {
				continue
			}
			work.Cell = rt.cfg.ID
			payloads, err := rt.rrh.RandomPayloads(work)
			if err != nil {
				continue
			}
			samples, err := rt.rrh.Emit(work, payloads)
			if err != nil {
				continue
			}
			if err := rt.proc.IngestSubframe(samples, work, nil); err != nil {
				continue
			}
			cost := a.model.SubframeCost(work, rt.cfg.Bandwidth, rt.cfg.Antennas)
			d := cluster.CoreFraction(cost)
			rt.demand += 0.2 * (d - rt.demand)
			if rt.demandGauge != nil {
				rt.demandGauge.Set(int64(rt.demand * 1000))
			}
		}
		a.mu.Unlock()
	}
}

// warmSnapshotEvery is how many report intervals pass between HARQ snapshot
// shipments to the controller's warm-state cache (≈ every 500 ms at the
// default 100 ms heartbeat).
const warmSnapshotEvery = 5

// reportLoop streams heartbeats and per-cell loads at the controller's
// requested interval, and periodically ships each cell's HARQ snapshot so
// the controller holds warm state for failover. Send failures don't stop
// the loop: the agent keeps reporting into the current connection, which
// the reconnect loop replaces.
func (a *AgentNode) reportLoop() {
	defer a.wg.Done()
	interval := a.cli().Interval
	if interval <= 0 {
		interval = 100 * time.Millisecond
	}
	ticker := time.NewTicker(interval)
	defer ticker.Stop()
	tick := 0
	for {
		select {
		case <-a.stopCh:
			return
		case <-ticker.C:
		}
		tick++
		c := a.cli()
		st := a.pool.Stats()
		a.mu.Lock()
		tti := uint64(a.tti)
		used := 0.0
		type rep struct {
			cell frame.CellID
			d    float64
		}
		var reps []rep
		for id, rt := range a.cells {
			used += rt.demand
			reps = append(reps, rep{id, rt.demand})
		}
		a.mu.Unlock()
		hb := &ctrlproto.Heartbeat{
			TTI:            tti,
			UsedMilliCores: uint32(used * 1000),
			QueueLen:       uint32(a.pool.QueueLen()),
			Misses:         st.DeadlineMisses,
			Completed:      st.Completed,
		}
		if err := c.Heartbeat(hb); err != nil {
			continue // headless: skip the rest of this report
		}
		for _, r := range reps {
			if err := c.SendCellLoad(uint16(r.cell), uint32(r.d*1000), tti); err != nil {
				break
			}
		}
		if tick%warmSnapshotEvery == 0 {
			for _, r := range reps {
				if state := a.snapshotCellState(r.cell); state != nil {
					if err := c.SendMigrateState(uint16(r.cell), state); err == nil {
						inc(a.stateShipped, uint64(len(state)))
					}
				}
			}
		}
	}
}
