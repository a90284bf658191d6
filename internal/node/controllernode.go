// Package node implements PRAN's deployable daemons: the controller node
// (the logically centralized control plane behind a TCP endpoint) and the
// agent node (a pool server running the measured data plane, its RAN
// programs and its HARQ retransmission loop). Together they turn the
// in-process library into the distributed system the paper sketches: agents
// register and stream per-cell load, the controller scales and places, and
// cell assignments flow back as protocol commands.
//
// cmd/pran-controller and cmd/pran-agent are thin wrappers around this
// package, and cmd/pran-sim runs one of each in-process, so the whole
// distributed path stays unit-testable over loopback.
//
// Concurrency: this is where the single-threaded control plane meets the
// network. The controller node serializes placement mutation behind one
// mutex (n.mu), but its fan-in paths are sharded so dozens of per-agent
// reader goroutines never serialize on a single lock: heartbeat leases and
// scrape correlation state live in per-shard maps keyed by agent ID, and
// cell-load reports land in the controller's sharded LoadMonitor. On the
// fan-out side every agent has a dedicated stream writer goroutine
// (ctrlproto.Stream) draining a bounded coalescing queue, so no goroutine
// holding n.mu ever performs socket IO — commands are enqueued after the
// lock is released, and a slow agent backpressures only its own queue. The
// agent node runs a TTI loop goroutine that steps every assigned cell's
// runtime (schedule → RAN programs → HARQ retransmissions → emit → ingest
// into its dataplane pool) plus a report loop goroutine streaming load,
// sharing state under the agent's mutex; pool workers reach a cell's HARQ
// loop only through task completions, under that loop's own mutex.
// Shutdown joins all goroutines via WaitGroups. See
// docs/control-plane.md for the full contract.
package node

import (
	"fmt"
	"net"
	"sync"
	"time"

	"pran/internal/cluster"
	"pran/internal/controller"
	"pran/internal/ctrlproto"
	"pran/internal/frame"
	"pran/internal/phy"
	"pran/internal/telemetry"
)

// CellSpecNet describes a cell the controller is responsible for assigning.
type CellSpecNet struct {
	// ID is the PRAN cell identifier; PCI its physical identity.
	ID  frame.CellID
	PCI uint16
	// Bandwidth and Antennas describe the cell's radio configuration.
	Bandwidth phy.Bandwidth
	Antennas  int
}

// ControllerNode is the networked control plane: a ctrlproto server whose
// registered agents form the controller's cluster, plus a periodic control
// loop that scales, places, pushes cell assignments, and sweeps heartbeat
// leases to detect dead agents.
type ControllerNode struct {
	srv         *ctrlproto.Server
	ctl         *controller.Controller
	cells       map[frame.CellID]CellSpecNet
	logf        func(format string, args ...any)
	period      time.Duration
	reg         *telemetry.Registry
	leaseBudget time.Duration

	mu      sync.Mutex
	applied controller.Placement // what agents have been told
	// pendingRemoves holds removals that could not be delivered (stream
	// closed, queue overflow, or evicted under backpressure); pushPlacement
	// retries them every round until the agent takes them or the placement
	// routes the cell back.
	pendingRemoves map[frame.CellID]cluster.ServerID
	// warm caches the freshest HARQ snapshot per cell (shipped by agents
	// with their load reports) so a failover can re-place a cell together
	// with its soft-combining state even though its host is gone.
	warm    map[frame.CellID][]byte
	stopCh  chan struct{}
	doneCh  chan struct{}
	started bool

	// leases are the heartbeat-lease shards, keyed by agent ID. They are
	// separate from mu because heartbeats arrive on per-agent reader
	// goroutines at high rate and must never wait behind a control round —
	// and sharded so those reader goroutines don't serialize on each other
	// either: a renewal locks only the owning shard.
	leases []leaseShard

	// Fault-tolerance telemetry, resolved once at construction.
	leaseExpiries   *telemetry.Counter
	registrations   *telemetry.Counter
	cellsFailedOver *telemetry.Counter
	statePushed     *telemetry.Counter
	warmBytes       *telemetry.Gauge

	// Control-plane dissemination telemetry.
	streamWait    *telemetry.Histogram // queue wait per delivered push
	roundDur      *telemetry.Histogram // control round duration
	assignsSent   *telemetry.Counter
	removesSent   *telemetry.Counter
	streamSent    *telemetry.Gauge
	streamCoal    *telemetry.Gauge
	streamDropped *telemetry.Gauge
	streamDepth   *telemetry.Gauge

	// stats are the scrape correlation shards: agent ID → the channel
	// awaiting that agent's StatsReport. Sharded like the leases so
	// concurrent report arrivals during a fan-in scrape only lock their
	// own slice of the table.
	stats []statsShard
}

// leaseShard is one lock domain of the heartbeat-lease table.
type leaseShard struct {
	mu       sync.Mutex
	lastSeen map[uint32]time.Time
	hbAge    map[uint32]*telemetry.Gauge
}

// statsShard is one lock domain of the scrape correlation table.
type statsShard struct {
	mu      sync.Mutex
	pending map[uint32]chan []byte
}

// leaseShardFor maps an agent ID onto its lease shard.
func (n *ControllerNode) leaseShardFor(id uint32) *leaseShard {
	return &n.leases[id%uint32(len(n.leases))]
}

// statsShardFor maps an agent ID onto its scrape shard.
func (n *ControllerNode) statsShardFor(id uint32) *statsShard {
	return &n.stats[id%uint32(len(n.stats))]
}

// ControllerConfig parameterizes a controller node.
type ControllerConfig struct {
	// Controller is the control-plane configuration.
	Controller controller.Config
	// Cells lists the cells to manage.
	Cells []CellSpecNet
	// Period is the control-loop cadence (default 500 ms).
	Period time.Duration
	// HeartbeatInterval is the reporting cadence requested from agents
	// (default 100 ms).
	HeartbeatInterval time.Duration
	// LeaseMisses is how many silent heartbeat intervals the lease sweep
	// tolerates before declaring an agent dead and re-placing its cells
	// (default 5). The protocol-level socket timeout is kept at twice this
	// budget so the lease — not the socket — is the failure detector.
	LeaseMisses int
	// Shards is the fan-in shard count for the lease table, the scrape
	// correlation table, the cluster membership, and (unless the embedded
	// controller config sets its own) the load monitor (default 8). Size
	// it to the expected agent/reporter concurrency.
	Shards int
	// SendQueue bounds each agent's outbound command stream (default 256
	// messages); a slow agent coalesces or sheds stale pushes past it.
	SendQueue int
	// Logf receives progress lines; nil silences them.
	Logf func(format string, args ...any)
	// Telemetry selects the controller's local registry (cluster state
	// gauges, merged into scrapes); nil means telemetry.Default().
	Telemetry *telemetry.Registry
}

// NewControllerNode builds a controller node listening on ln. The cluster
// starts empty; servers join by registering over the protocol.
func NewControllerNode(ln net.Listener, cfg ControllerConfig) (*ControllerNode, error) {
	if len(cfg.Cells) == 0 {
		return nil, fmt.Errorf("node: no cells to manage: %w", phy.ErrBadParameter)
	}
	if cfg.Period <= 0 {
		cfg.Period = 500 * time.Millisecond
	}
	if cfg.HeartbeatInterval <= 0 {
		cfg.HeartbeatInterval = 100 * time.Millisecond
	}
	if cfg.LeaseMisses <= 0 {
		cfg.LeaseMisses = 5
	}
	if cfg.Shards <= 0 {
		cfg.Shards = cluster.DefaultShards
	}
	if cfg.Logf == nil {
		cfg.Logf = func(string, ...any) {}
	}
	if cfg.Controller.Shards == 0 {
		cfg.Controller.Shards = cfg.Shards
	}
	ctl, err := controller.New(cfg.Controller, cluster.NewSharded(cfg.Shards))
	if err != nil {
		return nil, err
	}
	reg := cfg.Telemetry
	if reg == nil {
		reg = telemetry.Default()
	}
	ctl.Cluster().SetTelemetry(reg)
	n := &ControllerNode{
		ctl:            ctl,
		cells:          make(map[frame.CellID]CellSpecNet, len(cfg.Cells)),
		logf:           cfg.Logf,
		period:         cfg.Period,
		reg:            reg,
		leaseBudget:    time.Duration(cfg.LeaseMisses) * cfg.HeartbeatInterval,
		applied:        make(controller.Placement),
		pendingRemoves: make(map[frame.CellID]cluster.ServerID),
		warm:           make(map[frame.CellID][]byte),
		stopCh:         make(chan struct{}),
		doneCh:         make(chan struct{}),
		leases:         make([]leaseShard, cfg.Shards),
		stats:          make([]statsShard, cfg.Shards),

		leaseExpiries:   reg.Counter("controller.lease_expiries"),
		registrations:   reg.Counter("controller.registrations"),
		cellsFailedOver: reg.Counter("controller.cells_failed_over"),
		statePushed:     reg.Counter("controller.state_pushed_bytes"),
		warmBytes:       reg.Gauge("controller.warm_state_bytes"),

		streamWait:    reg.LatencyHistogram("controller.stream.queue_wait_s"),
		roundDur:      reg.LatencyHistogram("controller.round_s"),
		assignsSent:   reg.Counter("controller.assigns_sent"),
		removesSent:   reg.Counter("controller.removes_sent"),
		streamSent:    reg.Gauge("controller.stream.sent"),
		streamCoal:    reg.Gauge("controller.stream.coalesced"),
		streamDropped: reg.Gauge("controller.stream.dropped"),
		streamDepth:   reg.Gauge("controller.stream.depth"),
	}
	for i := range n.leases {
		n.leases[i].lastSeen = make(map[uint32]time.Time)
		n.leases[i].hbAge = make(map[uint32]*telemetry.Gauge)
	}
	for i := range n.stats {
		n.stats[i].pending = make(map[uint32]chan []byte)
	}
	for _, c := range cfg.Cells {
		n.cells[c.ID] = c
	}
	n.srv = ctrlproto.NewServer(ln, (*ctrlHandler)(n))
	n.srv.HeartbeatInterval = cfg.HeartbeatInterval
	// Keep the socket timeout well past the lease budget so the sweep, not
	// the read deadline, is the failure detector of record.
	n.srv.ReadMissBudget = 2 * cfg.LeaseMisses
	n.srv.SendQueue = cfg.SendQueue
	// Per-push dissemination latency: each delivered command reports how
	// long it waited in its agent's queue (sharded by agent ID).
	n.srv.OnStreamSend = func(a *ctrlproto.Agent, key ctrlproto.StreamKey, wait time.Duration) {
		n.streamWait.ObserveDuration(int(a.ID), wait)
	}
	// Evictions under backpressure: repair the bookkeeping so the dropped
	// state is re-driven once the agent catches up.
	n.srv.OnStreamDrop = func(a *ctrlproto.Agent, key ctrlproto.StreamKey, m ctrlproto.Message) {
		switch t := m.(type) {
		case *ctrlproto.AssignCell:
			n.mu.Lock()
			if n.applied[frame.CellID(t.Cell)] == cluster.ServerID(a.ID) {
				delete(n.applied, frame.CellID(t.Cell))
			}
			n.mu.Unlock()
		case *ctrlproto.RemoveCell:
			n.mu.Lock()
			n.pendingRemoves[frame.CellID(t.Cell)] = cluster.ServerID(a.ID)
			n.mu.Unlock()
		}
	}
	return n, nil
}

// ctrlHandler adapts protocol events onto the node (separate type so the
// Handler methods don't pollute ControllerNode's public API).
type ctrlHandler ControllerNode

// OnRegister adds the server to the cluster as standby capacity. A known
// server re-registering (agent reconnect) keeps its current state — except a
// Failed one, which is repaired back to Standby — so a transient partition
// does not demote an Active server that kept its cells running headless.
func (h *ctrlHandler) OnRegister(a *ctrlproto.Agent, reg *ctrlproto.Register) error {
	n := (*ControllerNode)(h)
	srv := cluster.Server{
		ID:          cluster.ServerID(reg.ServerID),
		Cores:       int(reg.Cores),
		SpeedFactor: float64(reg.SpeedMilli) / 1000,
		State:       cluster.Standby,
	}
	if err := n.ctl.Cluster().Add(srv); err != nil {
		got, gerr := n.ctl.Cluster().Get(srv.ID)
		if gerr != nil {
			return err
		}
		if got.State == cluster.Failed {
			if err2 := n.ctl.Cluster().SetState(srv.ID, cluster.Standby); err2 != nil {
				return err
			}
			n.logf("controller: server %d repaired on re-register", reg.ServerID)
		}
	}
	n.touchLease(reg.ServerID)
	n.registrations.Inc(0)
	n.logf("controller: server %d registered (%d cores)", reg.ServerID, reg.Cores)
	return nil
}

// OnHeartbeat renews the agent's liveness lease; per-cell load arrives via
// CellLoad messages.
func (h *ctrlHandler) OnHeartbeat(a *ctrlproto.Agent, hb *ctrlproto.Heartbeat) {
	(*ControllerNode)(h).touchLease(a.ID)
}

// touchLease records a proof of life for the agent, locking only the
// agent's lease shard.
func (n *ControllerNode) touchLease(id uint32) {
	sh := n.leaseShardFor(id)
	sh.mu.Lock()
	sh.lastSeen[id] = time.Now()
	if _, ok := sh.hbAge[id]; !ok {
		sh.hbAge[id] = n.reg.Gauge(fmt.Sprintf("controller.agent.%d.heartbeat_age_ms", id))
	}
	sh.hbAge[id].Set(0)
	sh.mu.Unlock()
}

// sweepLeases declares agents whose lease lapsed dead: their connection is
// closed, the cluster marks them Failed, and their cells are re-placed with
// warm HARQ state. Runs on the control loop goroutine, shard by shard.
func (n *ControllerNode) sweepLeases() {
	now := time.Now()
	var expired []uint32
	for i := range n.leases {
		sh := &n.leases[i]
		sh.mu.Lock()
		for id, last := range sh.lastSeen {
			age := now.Sub(last)
			sh.hbAge[id].Set(age.Milliseconds())
			if age > n.leaseBudget {
				expired = append(expired, id)
				delete(sh.lastSeen, id)
			}
		}
		sh.mu.Unlock()
	}
	for _, id := range expired {
		n.leaseExpiries.Inc(0)
		n.logf("controller: server %d lease expired (budget %v)", id, n.leaseBudget)
		if agent, up := n.srv.Agent(id); up {
			_ = agent.Close() // reader goroutine sees the close; OnDisconnect only logs
		}
		n.failover(cluster.ServerID(id))
	}
}

// failover marks the server failed, re-places its cells, and pushes the new
// placement. Must be called without n.mu held.
func (n *ControllerNode) failover(id cluster.ServerID) {
	n.mu.Lock()
	rep, err := n.ctl.OnServerFailure(id)
	n.mu.Unlock()
	if err != nil {
		return // unknown or already failed
	}
	n.cellsFailedOver.Add(0, uint64(len(rep.LostCells)))
	n.logf("controller: failover moved %d cells (%d promotions)", len(rep.LostCells), rep.Promotions)
	n.pushPlacement()
}

// OnMessage feeds cell-load reports into the controller's monitor and
// relays migration state from a cell's old server to its new one. Every
// message renews the sender's lease: a large state transfer can delay
// heartbeats behind it on the shared stream (head-of-line blocking), and
// any inbound message is equally strong proof of life.
func (h *ctrlHandler) OnMessage(a *ctrlproto.Agent, m ctrlproto.Message) {
	n := (*ControllerNode)(h)
	n.touchLease(a.ID)
	switch t := m.(type) {
	case *ctrlproto.CellLoad:
		n.ctl.ObserveCell(frame.CellID(t.Cell), float64(t.MilliCores)/1000)
	case *ctrlproto.StatsReport:
		sh := n.statsShardFor(a.ID)
		sh.mu.Lock()
		ch, ok := sh.pending[a.ID]
		if ok {
			delete(sh.pending, a.ID)
		}
		sh.mu.Unlock()
		if ok {
			ch <- t.Data // buffered; never blocks the reader goroutine
		}
	case *ctrlproto.MigrateState:
		// Always refresh the warm cache: this is the freshest snapshot of
		// the cell's HARQ state and seeds future failovers.
		n.mu.Lock()
		n.warm[frame.CellID(t.Cell)] = append([]byte(nil), t.State...)
		n.setWarmBytesLocked()
		dst, ok := n.ctl.Placement()[frame.CellID(t.Cell)]
		n.mu.Unlock()
		if !ok {
			return
		}
		if agent, up := n.srv.Agent(uint32(dst)); up && agent.ID != a.ID {
			if _, err := agent.MigrateState(t.Cell, t.State); err != nil {
				n.logf("controller: relay state for cell %d to %d: %v", t.Cell, dst, err)
			} else {
				n.statePushed.Add(0, uint64(len(t.State)))
				n.logf("controller: relayed %d bytes of cell %d state %d→%d", len(t.State), t.Cell, a.ID, dst)
			}
		}
	case *ctrlproto.CellOwned:
		n.reconcileOwned(a, t)
	}
}

// reconcileOwned aligns the controller's view with the cell list a
// reconnecting agent claims to run. The controller wins: cells the agent
// owns that are placed elsewhere are removed from it (the agent ships their
// state back, which relays to the current owner); applied entries the agent
// no longer backs are dropped so the next push re-assigns them.
func (n *ControllerNode) reconcileOwned(a *ctrlproto.Agent, co *ctrlproto.CellOwned) {
	srvID := cluster.ServerID(co.ServerID)
	owned := make(map[frame.CellID]bool, len(co.Cells))
	for _, c := range co.Cells {
		owned[frame.CellID(c)] = true
	}
	var stale []frame.CellID
	n.mu.Lock()
	for cell, s := range n.applied {
		if s == srvID && !owned[cell] {
			delete(n.applied, cell) // stale: agent lost it (e.g. restart)
		}
	}
	want := n.ctl.Placement()
	for cell := range owned {
		if dst, ok := want[cell]; ok && dst == srvID {
			n.applied[cell] = srvID // confirmed; no redundant re-assign
			continue
		}
		// Placed elsewhere (or unmanaged) while the agent was away.
		stale = append(stale, cell)
	}
	n.mu.Unlock()
	// Command writes happen outside n.mu (see pushPlacement).
	for _, cell := range stale {
		if _, err := a.RemoveCell(uint16(cell)); err != nil {
			n.logf("controller: reconcile remove cell %d from %d: %v", cell, co.ServerID, err)
		} else {
			n.logf("controller: reconcile: cell %d no longer on %d, removing", cell, co.ServerID)
		}
	}
	n.logf("controller: reconciled server %d (%d cells owned)", co.ServerID, len(co.Cells))
}

// setWarmBytesLocked refreshes the warm-cache size gauge. Callers hold n.mu.
func (n *ControllerNode) setWarmBytesLocked() {
	total := 0
	for _, s := range n.warm {
		total += len(s)
	}
	n.warmBytes.Set(int64(total))
}

// OnDisconnect only logs: a broken connection is no longer treated as a
// server failure. The lease sweep is the single failure detector, which
// gives agents a reconnect window before their cells are re-placed.
func (h *ctrlHandler) OnDisconnect(a *ctrlproto.Agent, err error) {
	n := (*ControllerNode)(h)
	n.logf("controller: server %d disconnected (lease pending): %v", a.ID, err)
}

// Serve runs the protocol listener and the control loop until Close.
func (n *ControllerNode) Serve() error {
	n.mu.Lock()
	n.started = true
	n.mu.Unlock()
	go n.controlLoop()
	return n.srv.Serve()
}

// Addr returns the listen address.
func (n *ControllerNode) Addr() net.Addr { return n.srv.Addr() }

// Controller exposes the control plane for inspection.
func (n *ControllerNode) Controller() *controller.Controller { return n.ctl }

// NumAgents returns the number of currently connected agents.
func (n *ControllerNode) NumAgents() int { return n.srv.NumAgents() }

// Close stops the control loop and the server.
func (n *ControllerNode) Close() error {
	n.mu.Lock()
	started := n.started
	n.started = false
	n.mu.Unlock()
	if started {
		close(n.stopCh)
		<-n.doneCh
	}
	return n.srv.Close()
}

func (n *ControllerNode) controlLoop() {
	defer close(n.doneCh)
	ticker := time.NewTicker(n.period)
	defer ticker.Stop()
	for {
		select {
		case <-n.stopCh:
			return
		case <-ticker.C:
		}
		start := time.Now()
		n.sweepLeases()
		n.mu.Lock()
		rep, err := n.ctl.Step()
		n.mu.Unlock()
		if err != nil {
			n.logf("controller: step failed: %v", err)
			continue
		}
		if rep.Migrations > 0 || rep.Promotions > 0 || len(rep.Dropped) > 0 {
			n.logf("controller: demand=%.2f forecast=%.2f active=%d migrations=%d dropped=%d",
				rep.Demand, rep.Forecast, rep.Active, rep.Migrations, len(rep.Dropped))
		}
		n.pushPlacement()
		n.roundDur.ObserveDuration(0, time.Since(start))
		n.updateStreamGauges()
	}
}

// updateStreamGauges aggregates every connected agent's stream accounting
// into the cluster-wide dissemination gauges. Runs once per control round.
func (n *ControllerNode) updateStreamGauges() {
	var sent, coal, dropped, depth int64
	for _, a := range n.srv.Agents() {
		st := a.StreamStats()
		sent += int64(st.Sent)
		coal += int64(st.Coalesced)
		dropped += int64(st.Dropped)
		depth += int64(st.Depth)
	}
	n.streamSent.Set(sent)
	n.streamCoal.Set(coal)
	n.streamDropped.Set(dropped)
	n.streamDepth.Set(depth)
}

// pushPlacement diffs the controller's placement against what agents have
// been told and enqueues remove/assign commands onto the per-agent streams.
// It must run WITHOUT n.mu held — PR 5's rule, which the streams now make
// cheap to honor: enqueues never block on a socket, but keeping command
// dispatch outside the lock also keeps the stream drop hooks (which take
// n.mu to repair bookkeeping) deadlock-free. The diff is computed and
// n.applied updated optimistically under the lock; a failed or evicted
// assign rolls its entry back, and undeliverable removes park in
// pendingRemoves for retry next round.
func (n *ControllerNode) pushPlacement() {
	type removeOp struct {
		agent *ctrlproto.Agent
		cell  frame.CellID
		srv   cluster.ServerID
	}
	type assignOp struct {
		agent *ctrlproto.Agent
		cell  frame.CellID
		srv   cluster.ServerID
		spec  CellSpecNet
		warm  []byte
	}
	var removes []removeOp
	var assigns []assignOp
	n.mu.Lock()
	want := n.ctl.Placement()
	// Retry removals that previously failed to reach their agent; a cell
	// routed back to the same server no longer needs one.
	for cell, srv := range n.pendingRemoves {
		if dst, ok := want[cell]; ok && dst == srv {
			delete(n.pendingRemoves, cell)
			continue
		}
		if agent, up := n.srv.Agent(uint32(srv)); up {
			removes = append(removes, removeOp{agent, cell, srv})
			delete(n.pendingRemoves, cell)
		}
	}
	// Removals first (cells that moved or vanished).
	for cell, oldSrv := range n.applied {
		if newSrv, ok := want[cell]; !ok || newSrv != oldSrv {
			if agent, up := n.srv.Agent(uint32(oldSrv)); up {
				removes = append(removes, removeOp{agent, cell, oldSrv})
			}
			delete(n.applied, cell)
		}
	}
	// Additions.
	for cell, srv := range want {
		if cur, ok := n.applied[cell]; ok && cur == srv {
			continue
		}
		spec, ok := n.cells[cell]
		if !ok {
			continue // load reported for a cell we don't manage
		}
		agent, up := n.srv.Agent(uint32(srv))
		if !up {
			continue
		}
		// Warm snapshots are replaced wholesale on arrival, never mutated
		// in place, so the slice is safe to read after unlocking.
		assigns = append(assigns, assignOp{agent, cell, srv, spec, n.warm[cell]})
		n.applied[cell] = srv
	}
	n.mu.Unlock()
	for _, op := range removes {
		if _, err := op.agent.RemoveCell(uint16(op.cell)); err != nil {
			n.logf("controller: remove cell %d from %d: %v", op.cell, op.srv, err)
			n.mu.Lock()
			n.pendingRemoves[op.cell] = op.srv
			n.mu.Unlock()
			continue
		}
		n.removesSent.Inc(0)
	}
	for _, op := range assigns {
		// Ship the warm HARQ snapshot ahead of the assignment: the agent
		// parks state for a cell it does not run yet and applies it when
		// the assignment lands, so the first subframe it serves already
		// combines into the old host's soft state. A fresher snapshot
		// relayed directly from the old host (if it is still up)
		// supersedes this one on arrival.
		if len(op.warm) > 0 {
			if _, err := op.agent.MigrateState(uint16(op.cell), op.warm); err != nil {
				n.logf("controller: push warm state for cell %d to %d: %v", op.cell, op.srv, err)
			} else {
				n.statePushed.Add(0, uint64(len(op.warm)))
				n.logf("controller: pushed %d bytes of warm cell %d state to %d", len(op.warm), op.cell, op.srv)
			}
		}
		if _, err := op.agent.AssignCell(uint16(op.cell), op.spec.PCI, uint16(op.spec.Bandwidth.PRB()), uint8(op.spec.Antennas)); err != nil {
			n.logf("controller: assign cell %d to %d: %v", op.cell, op.srv, err)
			n.mu.Lock()
			if n.applied[op.cell] == op.srv {
				delete(n.applied, op.cell)
			}
			n.mu.Unlock()
			continue
		}
		n.assignsSent.Inc(0)
	}
}

// Telemetry returns the controller's local registry.
func (n *ControllerNode) Telemetry() *telemetry.Registry { return n.reg }

// LeaseBudget returns how long an agent may stay silent before the sweep
// declares it dead.
func (n *ControllerNode) LeaseBudget() time.Duration { return n.leaseBudget }

// ScrapeTelemetry asks every connected agent for its telemetry snapshot and
// returns the cluster-wide merge (agent pool/cell metrics summed by name,
// histograms merged bucket-wise, plus the controller's own cluster-state
// metrics). The fan-in is fully concurrent: every agent is awaited and its
// report decoded on its own goroutine against one shared deadline, so a
// slow or wedged agent costs only its own slot of the budget, never the
// whole scrape (it is simply not counted). It reports how many agents
// answered within the timeout; agents running with telemetry disabled
// answer with an empty snapshot and still count. A histogram spec mismatch
// between agents is returned as an error (wrapping
// telemetry.ErrSpecMismatch) rather than blending buckets.
func (n *ControllerNode) ScrapeTelemetry(timeout time.Duration) (telemetry.Snapshot, int, error) {
	agents := n.srv.Agents()
	deadline := time.Now().Add(timeout)
	type scrapeResult struct {
		id   uint32
		snap telemetry.Snapshot
		ok   bool // answered within the deadline
		has  bool // carried a non-empty snapshot
		err  error
	}
	results := make(chan scrapeResult, len(agents))
	for _, a := range agents {
		wait := make(chan []byte, 1)
		sh := n.statsShardFor(a.ID)
		sh.mu.Lock()
		sh.pending[a.ID] = wait
		sh.mu.Unlock()
		go func(a *ctrlproto.Agent, wait chan []byte) {
			clear := func() {
				sh := n.statsShardFor(a.ID)
				sh.mu.Lock()
				if sh.pending[a.ID] == wait {
					delete(sh.pending, a.ID)
				}
				sh.mu.Unlock()
			}
			if _, err := a.RequestStats(); err != nil {
				clear()
				n.logf("controller: stats request to %d: %v", a.ID, err)
				results <- scrapeResult{id: a.ID}
				return
			}
			select {
			case data := <-wait:
				if len(data) == 0 {
					results <- scrapeResult{id: a.ID, ok: true}
					return
				}
				snap, err := telemetry.DecodeSnapshot(data)
				results <- scrapeResult{id: a.ID, ok: true, has: err == nil, snap: snap, err: err}
			case <-time.After(time.Until(deadline)):
				clear()
				n.logf("controller: stats scrape of %d timed out", a.ID)
				results <- scrapeResult{id: a.ID}
			}
		}(a, wait)
	}

	merged := n.reg.Snapshot()
	reported := 0
	for range agents {
		r := <-results
		if !r.ok {
			continue
		}
		reported++
		if r.err != nil {
			return telemetry.Snapshot{}, reported, fmt.Errorf("node: agent %d: %w", r.id, r.err)
		}
		if !r.has {
			continue // agent runs with telemetry disabled
		}
		var err error
		if merged, err = merged.Merge(r.snap); err != nil {
			return telemetry.Snapshot{}, reported, fmt.Errorf("node: agent %d: %w", r.id, err)
		}
	}
	return merged, reported, nil
}

// Applied returns a copy of the placement as pushed to agents.
func (n *ControllerNode) Applied() controller.Placement {
	n.mu.Lock()
	defer n.mu.Unlock()
	return n.applied.Clone()
}
