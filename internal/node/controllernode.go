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
// Concurrency: the controller node's goroutines (control loop, lease sweep,
// per-agent readers) turn protocol callbacks into events for one pure cell
// ownership machine, apply each under n.mu (which also guards the
// controller's calls), and send the returned commands after unlocking, so
// no goroutine holding n.mu performs socket IO. Heartbeat leases, scrape
// correlation and cell-load reports are sharded by agent ID instead; every
// agent has its own stream writer goroutine (ctrlproto.Stream). The agent
// node's TTI loop and report loop share its state under the agent's mutex;
// pool workers reach a cell's HARQ loop only through task completions,
// under that loop's own mutex. Shutdown joins all goroutines via
// WaitGroups. See docs/control-plane.md and docs/concurrency.md.
package node

import (
	"fmt"
	"net"
	"slices"
	"sync"
	"time"

	"pran/internal/cluster"
	"pran/internal/controller"
	"pran/internal/ctrlproto"
	"pran/internal/frame"
	"pran/internal/phy"
	"pran/internal/telemetry"
)

// ControllerNode is the networked control plane: a ctrlproto server whose
// registered agents form the controller's cluster, plus a periodic control
// loop that scales and places, a cell-ownership state machine that turns
// the placement into acked commands, and a heartbeat-lease sweep that
// detects dead agents.
type ControllerNode struct {
	srv         *ctrlproto.Server
	ctl         *controller.Controller
	logf        func(format string, args ...any)
	period      time.Duration
	reg         *telemetry.Registry
	leaseBudget time.Duration

	mu      sync.Mutex
	own     *ownership // who serves which cell, with each cell's warm HARQ state
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
	Cells []frame.CellConfig
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
	seen := make(map[frame.CellID]bool, len(cfg.Cells))
	for _, c := range cfg.Cells {
		if err := c.Validate(); err != nil {
			return nil, fmt.Errorf("node: %w", err)
		}
		if seen[c.ID] {
			return nil, fmt.Errorf("node: cell %d listed twice: %w", c.ID, phy.ErrBadParameter)
		}
		seen[c.ID] = true
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
		ctl:         ctl,
		logf:        cfg.Logf,
		period:      cfg.Period,
		reg:         reg,
		leaseBudget: time.Duration(cfg.LeaseMisses) * cfg.HeartbeatInterval,
		own:         newOwnership(slices.Clone(cfg.Cells)),
		stopCh:      make(chan struct{}),
		doneCh:      make(chan struct{}),
		leases:      make([]leaseShard, cfg.Shards),
		stats:       make([]statsShard, cfg.Shards),

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
	// An evicted cell command fails its step; the next round re-drives it.
	n.srv.OnStreamDrop = func(a *ctrlproto.Agent, _ ctrlproto.StreamKey, m ctrlproto.Message) { n.fail(a.ID, m) }
	return n, nil
}

// fail fails the step cell command m to agent was for. Any other message
// (an evicted stats request just times its scrape out) is ignored.
func (n *ControllerNode) fail(agent uint32, m ctrlproto.Message) {
	var seq uint32
	switch t := m.(type) {
	case *ctrlproto.AssignCell:
		seq = t.Seq
	case *ctrlproto.RemoveCell:
		seq = t.Seq
	case *ctrlproto.MigrateState:
		seq = t.Seq
	default:
		return
	}
	n.handle(event{kind: evFail, agent: cluster.ServerID(agent), seq: seq})
}

// handle applies one event under n.mu and sends the commands it returns.
func (n *ControllerNode) handle(e event) {
	n.mu.Lock()
	cmds := n.own.apply(e)
	n.warmBytes.Set(int64(n.own.warmBytes))
	n.mu.Unlock()
	n.send(cmds)
}

// send enqueues the commands on their agents' streams, in order. A command
// that cannot be queued fails its step at once.
func (n *ControllerNode) send(cmds []command) {
	for _, c := range cmds {
		if err := c.link.Send(c.msg); err != nil {
			n.logf("controller: %v to %d: %v", c.msg.Type(), c.link.ID, err)
			n.fail(c.link.ID, c.msg)
			continue
		}
		switch t := c.msg.(type) {
		case *ctrlproto.RemoveCell:
			n.removesSent.Inc(0)
		case *ctrlproto.MigrateState:
			n.statePushed.Add(0, uint64(len(t.State)))
			n.logf("controller: pushed %d bytes of warm cell %d state to %d", len(t.State), t.Cell, c.link.ID)
		case *ctrlproto.AssignCell:
			n.assignsSent.Inc(0)
		}
	}
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
		if link, up := n.srv.Agent(id); up {
			_ = link.Close() // its reader goroutine delivers the disconnect
		}
		n.mu.Lock()
		rep, err := n.ctl.OnServerFailure(cluster.ServerID(id))
		cmds := n.own.apply(event{kind: evExpire, agent: cluster.ServerID(id), want: n.ctl.Placement()})
		n.mu.Unlock()
		if err == nil {
			n.cellsFailedOver.Add(0, uint64(len(rep.LostCells)))
			n.logf("controller: failover moved %d cells (%d promotions)", len(rep.LostCells), rep.Promotions)
		}
		n.send(cmds)
	}
}

// OnMessage feeds cell-load reports into the controller's monitor and
// everything about cell ownership into the ownership machine. Every message
// renews the sender's lease: a large state transfer can delay heartbeats
// behind it on the shared stream, and any message is proof of life.
func (h *ctrlHandler) OnMessage(a *ctrlproto.Agent, m ctrlproto.Message) {
	n := (*ControllerNode)(h)
	n.touchLease(a.ID)
	id := cluster.ServerID(a.ID)
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
	case *ctrlproto.Ack:
		n.handle(event{kind: evAck, agent: id, seq: t.Seq})
	case *ctrlproto.ErrorMsg:
		n.logf("controller: server %d refused command %d: %s", a.ID, t.Seq, t.Text)
		n.handle(event{kind: evFail, agent: id, seq: t.Seq})
	case *ctrlproto.MigrateState:
		// The decoder copied the state out of the frame, so the event owns
		// its bytes and nothing is copied under n.mu.
		n.handle(event{kind: evState, agent: id, cell: frame.CellID(t.Cell), state: t.State})
	case *ctrlproto.CellOwned:
		n.logf("controller: server %d declares %d cells", a.ID, len(t.Cells))
		n.handle(event{kind: evOwned, agent: id, link: a, cells: t.Cells})
	}
}

// OnDisconnect ends the agent's session: commands in flight to it are
// abandoned, but it keeps its cells. A broken connection is not a server
// failure; the lease sweep is the single failure detector, which gives
// agents a reconnect window before their cells are re-placed.
func (h *ctrlHandler) OnDisconnect(a *ctrlproto.Agent, err error) {
	n := (*ControllerNode)(h)
	n.logf("controller: server %d disconnected (lease pending): %v", a.ID, err)
	n.handle(event{kind: evDisconnect, agent: cluster.ServerID(a.ID), link: a})
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
		cmds := n.own.apply(event{kind: evPlace, want: n.ctl.Placement()}) // re-drives on error too
		n.mu.Unlock()
		n.send(cmds)
		if err != nil {
			n.logf("controller: step failed: %v", err)
			continue
		}
		if rep.Migrations > 0 || rep.Promotions > 0 || len(rep.Dropped) > 0 {
			n.logf("controller: demand=%.2f forecast=%.2f active=%d migrations=%d dropped=%d",
				rep.Demand, rep.Forecast, rep.Active, rep.Migrations, len(rep.Dropped))
		}
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

// Applied returns the placement agents have confirmed: every cell with an
// owner and no command in flight.
func (n *ControllerNode) Applied() controller.Placement {
	n.mu.Lock()
	defer n.mu.Unlock()
	return n.own.applied()
}
