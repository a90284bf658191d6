package node

import (
	"errors"
	"fmt"
	"io"
	"math"
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
	"pran/internal/ranapi"
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

// cellRuntime is one assigned cell's emulation, ingest and retransmission
// state. Its step runs under the agent's mutex on the one goroutine driving
// the agent's subframes; the HARQ loop is also fed from pool workers, under
// its own mutex, through each task's OnDone.
type cellRuntime struct {
	cfg  frame.CellConfig
	rrh  *dataplane.RRHEmulator
	proc *dataplane.CellProcessor
	gen  *traffic.Generator
	harq *harqLoop
	// demand is the EWMA compute demand reported to the controller.
	demand float64
	// demandGauge mirrors demand into the telemetry registry (nil when
	// telemetry is disabled).
	demandGauge *telemetry.Gauge
}

// step serves one subframe of the cell: schedule, RAN programs, due
// retransmissions, signal synthesis, ingest into the pool (whose
// completions feed the HARQ loop), the demand EWMA, and the observation
// fan-out. An error drops this subframe only; the cell keeps serving.
func (rt *cellRuntime) step(tti frame.TTI, programs *ranapi.Registry, model cluster.CostModel) error {
	work, err := rt.gen.Subframe(0, tti)
	if err != nil {
		return err
	}
	work.Cell = rt.cfg.ID
	work = programs.Apply(work)
	if err := work.Validate(rt.cfg.Bandwidth); err != nil {
		return fmt.Errorf("node: RAN program produced invalid work: %w", err)
	}
	// HARQ: due retransmissions preempt fresh traffic on their PRBs.
	overrides := rt.harq.inject(&work)
	payloads, err := rt.rrh.RandomPayloads(work)
	if err != nil {
		return err
	}
	for idx, tb := range overrides {
		payloads[idx] = tb
	}
	samples, err := rt.rrh.Emit(work, payloads)
	if err != nil {
		return err
	}
	// Each decode outcome feeds the HARQ loop together with the TB it
	// carried (allocations are PRB-disjoint, so RNTI+FirstPRB finds it).
	onDone := func(t *dataplane.Task) {
		for i, a := range work.Allocations {
			if a.RNTI == t.Alloc.RNTI && a.FirstPRB == t.Alloc.FirstPRB {
				rt.harq.onTaskDone(t, payloads[i])
				return
			}
		}
	}
	if err := rt.proc.IngestSubframe(samples, work, onDone); err != nil {
		return err
	}
	d := cluster.CoreFraction(model.SubframeCost(work, rt.cfg.Bandwidth, rt.cfg.Antennas))
	rt.demand += 0.2 * (d - rt.demand)
	if rt.demandGauge != nil {
		rt.demandGauge.Set(int64(rt.demand * 1000))
	}
	obs := ranapi.Observation{
		Cell:        work.Cell,
		TTI:         work.TTI,
		UsedPRB:     work.UsedPRB(),
		NumUEs:      len(work.Allocations),
		DemandCores: d,
	}
	for _, a := range work.Allocations {
		obs.AvgSNRdB += a.SNRdB / float64(len(work.Allocations))
	}
	programs.Observe(obs)
	return nil
}

// cellDemandMetric names the per-cell demand gauge the agent maintains.
func cellDemandMetric(id frame.CellID) string {
	return fmt.Sprintf("cell.%d.demand_millicores", id)
}

// AgentNode is one pool server: it registers with the controller, runs the
// measured data plane for whatever cells it is assigned (emulating their
// RRH input locally) through its RAN-program chain and HARQ retransmission
// loop, and streams heartbeats plus per-cell load reports.
// A broken controller connection is survivable: the TTI loop keeps serving
// assigned cells headless while a reconnect loop re-registers with jittered
// exponential backoff.
type AgentNode struct {
	cfg   AgentConfig
	pool  *dataplane.Pool
	model cluster.CostModel
	logf  func(format string, args ...any)
	dial  func(network, addr string) (net.Conn, error)

	// programs is the RAN-program chain every cell's subframes pass
	// through. mcsCap, registered first, carries the pool's degradation
	// level back to the scheduler as each cell's MCS ceiling.
	programs *ranapi.Registry
	mcsCap   *ranapi.MCSCapProgram

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
	// subframeErrors counts cell-subframes a step could not serve.
	subframeErrors *telemetry.Counter

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
	a, err := newAgent(cfg)
	if err != nil {
		return nil, err
	}
	nc, err := a.dial("tcp", a.cfg.ControllerAddr)
	if err == nil {
		a.client, err = ctrlproto.RegisterAgentConn(nc, a.cfg.ServerID, uint16(a.cfg.Cores), a.cfg.SpeedMilli)
	}
	if err != nil {
		_ = a.pool.Close()
		return nil, err
	}
	a.connected.Store(true)
	return a, nil
}

// newAgent applies cfg's defaults and builds the agent's data plane and
// program chain, with no controller connection: NewAgentNode adds one, and
// CalibrateScale drives the agent's subframes without.
func newAgent(cfg AgentConfig) (*AgentNode, error) {
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
	pool, err := dataplane.NewPool(cfg.Pool)
	if err != nil {
		return nil, err
	}
	a := &AgentNode{
		cfg:          cfg,
		pool:         pool,
		model:        cluster.DefaultCostModel(),
		logf:         cfg.Logf,
		dial:         cfg.Dial,
		programs:     ranapi.NewRegistry(),
		mcsCap:       ranapi.NewMCSCapProgram(),
		cells:        make(map[frame.CellID]*cellRuntime),
		closeCh:      make(chan struct{}),
		pendingState: make(map[frame.CellID][]byte),
		stopCh:       make(chan struct{}),
	}
	if err := a.programs.Register(a.mcsCap); err != nil {
		_ = pool.Close()
		return nil, err
	}
	if reg := pool.Telemetry(); reg != nil {
		a.reconnects = reg.Counter("agent.reconnects")
		a.headlessTTIs = reg.Counter("agent.headless_ttis")
		a.stateRestored = reg.Counter("agent.state_restored_bytes")
		a.stateShipped = reg.Counter("agent.state_shipped_bytes")
		a.subframeErrors = reg.Counter("agent.subframe_errors")
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

// Programs exposes the agent's RAN-program chain. Programs registered here
// rewrite every assigned cell's schedule from the next subframe on.
func (a *AgentNode) Programs() *ranapi.Registry { return a.programs }

// HARQStats sums the retransmission-loop outcomes of the cells the agent
// currently serves.
func (a *AgentNode) HARQStats() HARQStats {
	a.mu.Lock()
	defer a.mu.Unlock()
	var total HARQStats
	for _, rt := range a.cells {
		st := rt.harq.snapshot()
		total.FirstTxFailures += st.FirstTxFailures
		total.Retransmissions += st.Retransmissions
		total.Recovered += st.Recovered
		total.Exhausted += st.Exhausted
	}
	return total
}

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
			cfg := frame.CellConfig{ID: frame.CellID(t.Cell), PCI: t.PCI, Bandwidth: phy.Bandwidth(t.PRB), Antennas: int(t.Antennas)}
			if err := a.assign(cfg); err != nil {
				a.logf("agent %d: assign cell %d: %v", a.cfg.ServerID, t.Cell, err)
				a.cmdError("assign_cell")
				_ = c.SendError(t.Seq, 1, err.Error())
				continue
			}
			a.logf("agent %d: assigned cell %d", a.cfg.ServerID, t.Cell)
			_ = c.Ack(t.Seq)
		case *ctrlproto.RemoveCell:
			// Ship the cell's final HARQ state to the controller before
			// acking the removal, so the destination server resumes
			// in-flight retransmissions from it (PRAN's migration path).
			if state := a.cellState(frame.CellID(t.Cell), true); state != nil {
				if err := c.SendMigrateState(t.Cell, state); err != nil {
					a.cmdError("remove_cell")
				} else {
					inc(a.stateShipped, uint64(len(state)))
				}
			}
			a.logf("agent %d: removed cell %d", a.cfg.ServerID, t.Cell)
			_ = c.Ack(t.Seq)
		case *ctrlproto.MigrateState:
			if err := a.parkCellState(frame.CellID(t.Cell), t.State); err != nil {
				a.logf("agent %d: park cell %d state: %v", a.cfg.ServerID, t.Cell, err)
				a.cmdError("migrate_state")
				_ = c.SendError(t.Seq, 2, err.Error())
				continue
			}
			a.logf("agent %d: parked %d bytes of cell %d state", a.cfg.ServerID, len(t.State), t.Cell)
			_ = c.Ack(t.Seq)
		case *ctrlproto.StatsRequest:
			if err := c.SendStatsReport(t.Seq, a.encodeTelemetry()); err != nil {
				a.cmdError("stats_request")
			}
		}
	}
}

// assign serves a cell: it builds the cell's runtime (RRH emulator + ingest
// + traffic + HARQ loop) and applies any state parked for it.
func (a *AgentNode) assign(cellCfg frame.CellConfig) error {
	if err := cellCfg.Validate(); err != nil {
		return err
	}
	a.mu.Lock()
	running, ok := a.cells[cellCfg.ID]
	a.mu.Unlock()
	if ok && running.cfg == cellCfg {
		// Already served as configured (a repeated assignment): keep its
		// runtime and live HARQ state.
		return nil
	}
	id := int(cellCfg.ID)
	rrh, err := dataplane.NewRRHEmulator(cellCfg, a.cfg.Seed+int64(id)*997)
	if err != nil {
		return err
	}
	proc, err := dataplane.NewCellProcessor(cellCfg, a.pool)
	if err != nil {
		return err
	}
	classes := traffic.StandardMix(id + 1)
	gen, err := traffic.NewGenerator(cellCfg.Bandwidth,
		[]traffic.CellProfile{traffic.DefaultProfile(classes[id])},
		a.cfg.Seed+int64(id), 12)
	if err != nil {
		return err
	}
	if a.cfg.Schedule != nil {
		if err := gen.SetSchedule(a.cfg.Schedule, id); err != nil {
			return err
		}
	}
	rt := &cellRuntime{cfg: cellCfg, rrh: rrh, proc: proc, gen: gen, harq: newHARQLoop()}
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

// cellState serializes a cell's HARQ state, or nil when the cell is
// unknown or has no state worth shipping. With remove it also stops serving
// the cell in the same critical section, so no subframe runs between the
// snapshot and the removal and the state is final.
func (a *AgentNode) cellState(id frame.CellID, remove bool) []byte {
	a.mu.Lock()
	defer a.mu.Unlock()
	rt, ok := a.cells[id]
	if ok && remove {
		if rt.demandGauge != nil {
			rt.demandGauge.Set(0) // the cell no longer demands compute here
		}
		delete(a.cells, id)
	}
	if !ok || rt.proc.HARQ().Processes() == 0 {
		return nil
	}
	state, err := rt.proc.HARQ().MarshalBinary()
	if err != nil {
		return nil
	}
	return state
}

// parkCellState holds migrated HARQ state for a cell the agent does not
// serve yet; its assignment applies it. State for a cell already served is
// refused: the live state is newer than anything the controller holds.
func (a *AgentNode) parkCellState(id frame.CellID, state []byte) error {
	a.mu.Lock()
	defer a.mu.Unlock()
	if _, ok := a.cells[id]; ok {
		return fmt.Errorf("node: cell %d is already served: %w", id, phy.ErrBadParameter)
	}
	a.pendingState[id] = state // the decoder's copy; the message is not reused
	return nil
}

// ttiLoop paces subframes: one tick per TTIInterval.
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
		a.tick()
	}
}

// tick serves one subframe of every assigned cell under a.mu and advances
// the TTI counter by the stride. The pool's degradation level reaches the
// scheduler here, as every cell's MCS cap for this subframe.
func (a *AgentNode) tick() {
	a.mu.Lock()
	defer a.mu.Unlock()
	tti := a.tti
	a.tti += frame.TTI(a.cfg.TTIStride)
	if !a.connected.Load() && len(a.cells) > 0 {
		inc(a.headlessTTIs, 1) // still serving, controller unreachable
	}
	mcsCap := a.pool.Level().MCSCap()
	for id, rt := range a.cells {
		a.mcsCap.SetCap(id, mcsCap)
		if err := rt.step(tti, a.programs, a.model); err != nil {
			inc(a.subframeErrors, 1)
		}
	}
}

// CalibrateScale sizes cfg.Pool.DeadlineScale against the actual workload:
// it builds a throwaway agent from cfg with no controller connection,
// assigns it cells, runs its subframes unpaced for warmupTTIs ticks,
// measures the pool's real compute per TTI on this host, and returns the
// scale at which that load fills ~60% of the workers' scaled subframe
// budget — the compute-to-deadline ratio the paper's optimized stack ran
// at. This captures everything a single-decode calibration misses (per-UE
// overheads, iteration spread, retransmissions, cache warm-up). The
// throwaway pool records into a private registry, so none of its tasks
// reach cfg.Pool.Telemetry or telemetry.Default().
func CalibrateScale(cfg AgentConfig, cells []frame.CellConfig, warmupTTIs int) (float64, error) {
	if warmupTTIs <= 0 {
		warmupTTIs = 100
	}
	cfg.Pool.DeadlineScale = 1e6 // never abandon during measurement
	cfg.Pool.AbandonLate = false
	reg := telemetry.New(cfg.Cores)
	cfg.Pool.Telemetry = reg
	cfg.Pool.DisableTelemetry = false
	a, err := newAgent(cfg)
	if err != nil {
		return 0, err
	}
	defer a.pool.Close()
	for _, c := range cells {
		if err := a.assign(c); err != nil {
			return 0, err
		}
	}
	for i := 0; i < warmupTTIs; i++ {
		a.tick()
	}
	a.pool.Drain()
	busy := time.Duration(reg.Counter(dataplane.MetricWorkerBusyNanos).Value())
	perWorkerMs := busy.Seconds() / float64(warmupTTIs) / float64(a.cfg.Cores) / 1e-3
	return math.Max(1, math.Ceil(perWorkerMs/0.6)), nil
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
				if state := a.cellState(r.cell, false); state != nil {
					if err := c.SendMigrateState(uint16(r.cell), state); err == nil {
						inc(a.stateShipped, uint64(len(state)))
					}
				}
			}
		}
	}
}
