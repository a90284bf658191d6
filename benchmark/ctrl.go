package main

import (
	"errors"
	"fmt"
	"math/rand"
	"net"
	"sync"
	"sync/atomic"
	"time"

	"pran/internal/cluster"
	"pran/internal/controller"
	"pran/internal/ctrlproto"
	"pran/internal/frame"
	"pran/internal/telemetry"
)

const (
	ctrlCells       = 1000
	ctrlServers     = 32
	ctrlActive      = 16
	ctrlCores       = 4
	ctrlAgents      = 2 // loopback connections; server s is reached through agent s % 2
	ctrlWarmRounds  = 300
	ctrlScrapeEvery = 100
	ctrlHotEvery    = 50 // rounds between rotations of the hot decile
	// ctrlPushWindow bounds the commands in flight, below the 256-message
	// stream queue of each agent, so that a cold-start fan-out of 1000
	// assignments is not evicted from it.
	ctrlPushWindow = 128
	ctrlAckTimeout = 5 * time.Second
	ctrlStubCells  = 60 // per-cell metric families in a stub agent's registry
)

// countingConn counts the bytes an agent's connection carries.
type countingConn struct {
	net.Conn
	bytes *atomic.Int64
}

func (c countingConn) Read(p []byte) (int, error) {
	n, err := c.Conn.Read(p)
	c.bytes.Add(int64(n))
	return n, err
}

func (c countingConn) Write(p []byte) (int, error) {
	n, err := c.Conn.Write(p)
	c.bytes.Add(int64(n))
	return n, err
}

// stubAgent is a data-plane agent without a data plane: it enacts placement
// commands by bookkeeping and answers scrapes from a registry about the
// size a real agent's is.
type stubAgent struct {
	client *ctrlproto.Client
	reg    *telemetry.Registry
	cmds   *telemetry.Counter
	closed chan struct{}
	wg     sync.WaitGroup

	mu               sync.Mutex
	cells            map[uint16]struct{}
	snapshot, encode time.Duration
	scrapes          int
}

func newStubAgent(client *ctrlproto.Client) *stubAgent {
	a := &stubAgent{client: client, reg: telemetry.New(1), cells: make(map[uint16]struct{}), closed: make(chan struct{})}
	// About 200 metrics, in the proportions of a pool with 60 cells.
	a.cmds = a.reg.Counter("stub.commands")
	for i := 0; i < ctrlStubCells; i++ {
		a.reg.Counter(fmt.Sprintf("cell.%d.tasks", i)).Add(0, uint64(i))
		a.reg.Counter(fmt.Sprintf("cell.%d.harq_retransmits", i)).Add(0, uint64(i))
		a.reg.Gauge(fmt.Sprintf("cell.%d.degradation_level", i)).Set(0)
	}
	for i := 0; i < 8; i++ {
		h := a.reg.LatencyHistogram(fmt.Sprintf("stub.stage_%d_s", i))
		for j := 1; j <= 64; j++ {
			h.Observe(0, float64(j)*1e-4)
		}
		a.reg.Counter(fmt.Sprintf("stub.counter_%d", i)).Add(0, 1)
	}
	a.wg.Add(2)
	go a.readLoop()
	go a.heartbeatLoop()
	return a
}

// heartbeatLoop reports at the interval the server asked for, as an agent
// does; the server drops a connection that stays silent for ten intervals.
func (a *stubAgent) heartbeatLoop() {
	defer a.wg.Done()
	ticker := time.NewTicker(a.client.Interval)
	defer ticker.Stop()
	for tti := uint64(1); ; tti++ {
		select {
		case <-a.closed:
			return
		case <-ticker.C:
		}
		if err := a.client.Heartbeat(&ctrlproto.Heartbeat{ServerID: a.client.ServerID(), TTI: tti}); err != nil {
			return // closed by the harness
		}
	}
}

// stop ends the agent's goroutines and its connection.
func (a *stubAgent) stop() error {
	close(a.closed)
	err := a.client.Close()
	a.wg.Wait()
	return err
}

func (a *stubAgent) readLoop() {
	defer a.wg.Done()
	for {
		m, err := a.client.Receive()
		if err != nil {
			return // closed by the harness
		}
		switch t := m.(type) {
		case *ctrlproto.AssignCell:
			a.mu.Lock()
			a.cells[t.Cell] = struct{}{}
			a.mu.Unlock()
			a.cmds.Inc(0)
			_ = a.client.Ack(t.Seq) // a lost ack shows as an un-acked command
		case *ctrlproto.RemoveCell:
			a.mu.Lock()
			delete(a.cells, t.Cell)
			a.mu.Unlock()
			a.cmds.Inc(0)
			_ = a.client.Ack(t.Seq)
		case *ctrlproto.StatsRequest:
			t0 := time.Now()
			snap := a.reg.Snapshot()
			t1 := time.Now()
			data, err := snap.Encode()
			if err != nil {
				continue // the scrape then times out and fails the round
			}
			t2 := time.Now()
			a.mu.Lock()
			a.snapshot += t1.Sub(t0)
			a.encode += t2.Sub(t1)
			a.scrapes++
			a.mu.Unlock()
			_ = a.client.SendStatsReport(t.Seq, data)
		}
	}
}

func (a *stubAgent) owns(cell uint16) bool {
	a.mu.Lock()
	defer a.mu.Unlock()
	_, ok := a.cells[cell]
	return ok
}

func (a *stubAgent) numCells() int {
	a.mu.Lock()
	defer a.mu.Unlock()
	return len(a.cells)
}

type ackKey struct {
	agent int
	cell  uint16
}

type ackWait struct {
	seq  uint32
	sent time.Time
}

// ctrlEngine is one set-up of ctrl_churn: a controller over a 32-server
// cluster, a real protocol server, and two stub agents on loopback.
type ctrlEngine struct {
	tr      *tracer
	ctl     *controller.Controller
	srv     *ctrlproto.Server
	serveWG sync.WaitGroup
	stubs   [ctrlAgents]*stubAgent
	agents  [ctrlAgents]*ctrlproto.Agent
	bytes   atomic.Int64
	applied controller.Placement
	rng     *rand.Rand
	base    []float64 // per-cell mean demand, cores
	round   int

	reports chan *ctrlproto.StatsReport
	idle    chan struct{} // signalled when the last outstanding ack arrives

	mu         sync.Mutex
	pending    map[ackKey]ackWait
	seqCell    [ctrlAgents]map[uint32]uint16
	roundStart time.Time
	roundYard  time.Duration   // the yardstick run before the current round
	rtts       []time.Duration // push -> ack, per command
	cmdLatency []time.Duration // round start -> ack, per command
	cmdYard    []time.Duration // the round's yardstick time, per command
	msgs       int64
	recordAcks bool
}

// The controller side of the protocol.

func (e *ctrlEngine) OnRegister(*ctrlproto.Agent, *ctrlproto.Register) error { return nil }
func (e *ctrlEngine) OnHeartbeat(*ctrlproto.Agent, *ctrlproto.Heartbeat)     {}
func (e *ctrlEngine) OnDisconnect(*ctrlproto.Agent, error)                   {}

func (e *ctrlEngine) OnMessage(a *ctrlproto.Agent, m ctrlproto.Message) {
	switch t := m.(type) {
	case *ctrlproto.Ack:
		now := time.Now()
		idx := int(a.ID)
		e.mu.Lock()
		e.msgs++
		cell, ok := e.seqCell[idx][t.Seq]
		delete(e.seqCell[idx], t.Seq)
		key := ackKey{idx, cell}
		// An ack for a command a newer one superseded settles nothing.
		if w, waiting := e.pending[key]; ok && waiting && w.seq == t.Seq {
			delete(e.pending, key)
			if e.recordAcks {
				e.rtts = append(e.rtts, now.Sub(w.sent))
				e.cmdLatency = append(e.cmdLatency, now.Sub(e.roundStart))
				e.cmdYard = append(e.cmdYard, e.roundYard)
			}
			if len(e.pending) == 0 {
				select {
				case e.idle <- struct{}{}:
				default:
				}
			}
		}
		e.mu.Unlock()
	case *ctrlproto.StatsReport:
		e.mu.Lock()
		e.msgs++
		e.mu.Unlock()
		e.reports <- t
	}
}

func newCtrlEngine(seed int64, tr *tracer) (*ctrlEngine, error) {
	cl, err := cluster.Uniform(ctrlServers, ctrlActive, ctrlCores, 1.0)
	if err != nil {
		return nil, err
	}
	ctl, err := controller.New(controller.DefaultConfig(), cl)
	if err != nil {
		return nil, err
	}
	ln, err := net.Listen("tcp", "127.0.0.1:0")
	if err != nil {
		return nil, err
	}
	e := &ctrlEngine{
		tr: tr, ctl: ctl, applied: controller.Placement{},
		rng:     rand.New(rand.NewSource(seed)),
		reports: make(chan *ctrlproto.StatsReport, ctrlAgents),
		idle:    make(chan struct{}, 1),
		pending: make(map[ackKey]ackWait),
	}
	e.srv = ctrlproto.NewServer(ln, e)
	e.serveWG.Add(1)
	go func() {
		defer e.serveWG.Done()
		_ = e.srv.Serve() // returns net.ErrClosed once close() runs
	}()
	for i := 0; i < ctrlAgents; i++ {
		e.seqCell[i] = make(map[uint32]uint16)
		nc, err := net.Dial("tcp", ln.Addr().String())
		if err != nil {
			return nil, errors.Join(err, e.close())
		}
		client, err := ctrlproto.RegisterAgentConn(countingConn{nc, &e.bytes}, uint32(i), ctrlCores, 1000)
		if err != nil {
			return nil, errors.Join(err, e.close())
		}
		e.stubs[i] = newStubAgent(client)
		// The server publishes an agent, with its send stream, just after
		// the registration ack the client has now read.
		for deadline := time.Now().Add(ctrlAckTimeout); ; time.Sleep(50 * time.Microsecond) {
			if a, ok := e.srv.Agent(uint32(i)); ok {
				e.agents[i] = a
				break
			}
			if time.Now().After(deadline) {
				return nil, errors.Join(fmt.Errorf("agent %d registered but was not published", i), e.close())
			}
		}
	}
	e.base = make([]float64, ctrlCells)
	for c := range e.base {
		e.base[c] = 0.03 + 0.04*e.rng.Float64()
	}
	return e, nil
}

func (e *ctrlEngine) close() error {
	var errs []error
	for _, s := range e.stubs {
		if s != nil {
			errs = append(errs, s.stop())
		}
	}
	errs = append(errs, e.srv.Close())
	e.serveWG.Wait()
	return errors.Join(errs...)
}

// roundRec is the harness's timing of one control round.
type roundRec struct {
	yard                 time.Duration // the yardstick run before the round
	total, observe, step time.Duration
	migrations           int
	dropped              int
	commands, unacked    int
	scrape               *scrapeRec
}

type scrapeRec struct{ rtt, decodeMerge time.Duration }

// demand draws this round's per-cell demand: the cell's mean, 10 % jitter,
// and three times as much for the decile that is currently hot.
func (e *ctrlEngine) demand(cell int) float64 {
	d := e.base[cell] * (0.9 + 0.2*e.rng.Float64())
	if cell%10 == (e.round/ctrlHotEvery)%10 {
		d *= 3
	}
	return d
}

// send queues one placement command and registers the ack it expects.
func (e *ctrlEngine) send(agent int, cell frame.CellID, assign bool) error {
	a := e.agents[agent]
	e.mu.Lock()
	defer e.mu.Unlock()
	var seq uint32
	var err error
	if assign {
		seq, err = a.AssignCell(uint16(cell), uint16(cell%504), 6, 1)
	} else {
		seq, err = a.RemoveCell(uint16(cell))
	}
	if err != nil {
		return err
	}
	e.msgs++
	e.seqCell[agent][seq] = uint16(cell)
	e.pending[ackKey{agent, uint16(cell)}] = ackWait{seq: seq, sent: time.Now()}
	return nil
}

// awaitAcks blocks until every expected ack is back and returns how many
// commands were still unanswered at the timeout.
func (e *ctrlEngine) awaitAcks() int {
	deadline := time.NewTimer(ctrlAckTimeout)
	defer deadline.Stop()
	for {
		e.mu.Lock()
		n := len(e.pending)
		e.mu.Unlock()
		if n == 0 {
			return 0
		}
		select {
		case <-e.idle:
		case <-deadline.C:
			e.mu.Lock()
			n := len(e.pending)
			clear(e.pending)
			e.mu.Unlock()
			return n
		}
	}
}

// runRound is one pass of the decision loop: demand in, Step, placement
// diff, commands out through the protocol server, all acks back.
func (e *ctrlEngine) runRound() (roundRec, error) {
	rec := roundRec{yard: yardstick()}
	root := e.tr.id()
	t0 := time.Now()
	e.mu.Lock()
	e.roundStart, e.roundYard = t0, rec.yard
	e.mu.Unlock()
	demands := make([]float64, ctrlCells)
	for c := range demands {
		demands[c] = e.demand(c)
	}

	t1 := time.Now()
	for c, d := range demands {
		e.ctl.ObserveCell(frame.CellID(c), d)
	}
	t2 := time.Now()
	rep, err := e.ctl.Step()
	if err != nil {
		return rec, fmt.Errorf("round %d: %w", e.round, err)
	}
	t3 := time.Now()
	rec.observe, rec.step = t2.Sub(t1), t3.Sub(t2)
	rec.migrations, rec.dropped = rep.Migrations, len(rep.Dropped)

	// Diff the wanted placement against what the agents were told: removals
	// first, as the controller node pushes them.
	type op struct {
		agent  int
		cell   frame.CellID
		assign bool
	}
	var ops []op
	want := e.ctl.Placement()
	for cell, old := range e.applied {
		if srv, ok := want[cell]; !ok || srv != old {
			ops = append(ops, op{int(old) % ctrlAgents, cell, false})
			delete(e.applied, cell)
		}
	}
	for cell, srv := range want {
		if _, ok := e.applied[cell]; !ok {
			ops = append(ops, op{int(srv) % ctrlAgents, cell, true})
			e.applied[cell] = srv
		}
	}
	t4 := time.Now()

	for i, o := range ops {
		if err := e.send(o.agent, o.cell, o.assign); err != nil {
			return rec, fmt.Errorf("round %d: push cell %d: %w", e.round, o.cell, err)
		}
		if (i+1)%ctrlPushWindow == 0 {
			rec.unacked += e.awaitAcks()
		}
	}
	rec.unacked += e.awaitAcks()
	rec.commands = len(ops)
	t5 := time.Now()

	if (e.round+1)%ctrlScrapeEvery == 0 {
		s, err := e.scrape()
		if err != nil {
			return rec, fmt.Errorf("round %d: %w", e.round, err)
		}
		rec.scrape = &s
	}
	t6 := time.Now()
	rec.total = t6.Sub(t0)
	e.round++

	if root != 0 {
		e.tr.add(spanObserve, t1, t2, 0, root, root)
		e.tr.add(spanStep, t2, t3, 0, root, root)
		e.tr.add(spanDiff, t3, t4, 0, root, root)
		if len(ops) > 0 {
			e.tr.add(spanPushAck, t4, t5, 0, root, root)
		}
		if rec.scrape != nil {
			e.tr.add(spanScrape, t5, t6, 0, root, root)
		}
		e.tr.add(spanRound, t0, t6, root, 0, root)
	}
	return rec, nil
}

// scrape asks both agents for their telemetry and merges the answers.
func (e *ctrlEngine) scrape() (scrapeRec, error) {
	var rec scrapeRec
	t0 := time.Now()
	for _, a := range e.agents {
		if _, err := a.RequestStats(); err != nil {
			return rec, fmt.Errorf("request stats from agent %d: %w", a.ID, err)
		}
	}
	e.mu.Lock()
	e.msgs += ctrlAgents
	e.mu.Unlock()
	snaps := make([]telemetry.Snapshot, 0, ctrlAgents)
	timeout := time.NewTimer(ctrlAckTimeout)
	defer timeout.Stop()
	for len(snaps) < ctrlAgents {
		select {
		case r := <-e.reports:
			t1 := time.Now()
			s, err := telemetry.DecodeSnapshot(r.Data)
			if err != nil {
				return rec, fmt.Errorf("decode stats report of agent %d: %w", r.ServerID, err)
			}
			snaps = append(snaps, s)
			rec.decodeMerge += time.Since(t1)
		case <-timeout.C:
			return rec, fmt.Errorf("telemetry scrape: %d of %d agents answered", len(snaps), ctrlAgents)
		}
	}
	t1 := time.Now()
	if _, err := telemetry.MergeAll(snaps...); err != nil {
		return rec, fmt.Errorf("merge stats reports: %w", err)
	}
	rec.decodeMerge += time.Since(t1)
	rec.rtt = time.Since(t0)
	return rec, nil
}

func (e *ctrlEngine) warmup() error {
	for i := 0; i < ctrlWarmRounds; i++ {
		rec, err := e.runRound()
		if err != nil {
			return err
		}
		if rec.unacked > 0 {
			return fmt.Errorf("warm-up round %d: %d commands were not acknowledged", i, rec.unacked)
		}
	}
	return nil
}

// checkPlacement compares the controller's final placement with the cells
// the stub agents own.
func (e *ctrlEngine) checkPlacement(placement controller.Placement, owns func(agent int, cell uint16) bool) []string {
	var problems []string
	for cell, srv := range placement {
		at := int(srv) % ctrlAgents
		for a := 0; a < ctrlAgents; a++ {
			if owns(a, uint16(cell)) != (a == at) {
				problems = append(problems, fmt.Sprintf("cell %d is placed on server %d (agent %d) but agent %d ownership is %v",
					cell, srv, at, a, a != at))
			}
		}
	}
	owned := 0
	for _, s := range e.stubs {
		owned += s.numCells()
	}
	if owned != len(placement) {
		problems = append(problems, fmt.Sprintf("agents own %d cells, the controller placed %d", owned, len(placement)))
	}
	if len(problems) > 5 {
		problems = append(problems[:5], fmt.Sprintf("and %d more placement disagreements", len(problems)-5))
	}
	return problems
}

func (e *ctrlEngine) measure(d time.Duration, trace bool) (*window, error) {
	e.mu.Lock()
	e.rtts, e.cmdLatency, e.cmdYard = nil, nil, nil
	e.recordAcks = true
	msgs0 := e.msgs
	e.mu.Unlock()
	for _, s := range e.stubs {
		s.mu.Lock()
		s.snapshot, s.encode, s.scrapes = 0, 0, 0
		s.mu.Unlock()
	}
	bytes0 := e.bytes.Load()
	fast0, full0 := e.ctl.PlaceStats()
	var stream0 [ctrlAgents]ctrlproto.StreamStats
	for i, a := range e.agents {
		stream0[i] = a.StreamStats()
	}
	if trace {
		e.tr.start(1 << 17)
	}
	var recs []roundRec
	start := time.Now()
	for time.Since(start) < d {
		rec, err := e.runRound()
		if err != nil {
			return nil, err
		}
		recs = append(recs, rec)
	}
	e.tr.stop()
	e.mu.Lock()
	e.recordAcks = false
	rtts, cmdLat, cmdYard, msgs := e.rtts, e.cmdLatency, e.cmdYard, e.msgs-msgs0
	e.mu.Unlock()

	out := &window{vals: values{}, primary: "control_round_p50_ms"}
	v := out.vals
	rounds := float64(len(recs))
	var total, yard, steps, scrapeRTT []float64
	var observe, decodeMerge time.Duration
	var migrations, dropped, commands, unacked, scrapes float64
	for _, r := range recs {
		total = append(total, ms(r.total))
		yard = append(yard, ms(r.yard))
		steps = append(steps, ms(r.step))
		observe += r.observe
		migrations += float64(r.migrations)
		dropped += float64(r.dropped)
		commands += float64(r.commands)
		unacked += float64(r.unacked)
		if r.scrape != nil {
			scrapes++
			scrapeRTT = append(scrapeRTT, ms(r.scrape.rtt))
			decodeMerge += r.scrape.decodeMerge
		}
	}
	out.attempted = int64(commands + rounds*ctrlCells)
	out.failed = int64(unacked + dropped)
	out.failedShare = ratio(float64(out.failed), float64(out.attempted))
	out.problems = e.checkPlacement(e.ctl.Placement(), func(a int, cell uint16) bool { return e.stubs[a].owns(cell) })

	// End to end: a round is the unit of work, a placement command the task.
	v.set("rt_slowdown", steady(total, yard, mean))
	v.set("control_round_p50_ms", steadyQuantile(total, yard, 0.50))
	v.set("control_round_p99_ms", steadyQuantile(total, yard, 0.99))
	lat, latYard := make([]float64, len(cmdLat)), make([]float64, len(cmdLat))
	for i := range cmdLat {
		lat[i], latYard[i] = ms(cmdLat[i]), ms(cmdYard[i])
	}
	v.set("task_latency_p50_ms", steadyQuantile(lat, latYard, 0.50))
	v.set("task_latency_p99_ms", steadyQuantile(lat, latYard, 0.99))
	v.set("bench.host_speed", hostSpeed(yard))

	// Layers.
	v.set("controller.observe_per_cell_ns", ratio(float64(observe.Nanoseconds()), rounds*ctrlCells))
	v.set("controller.step_p50_ms", quantile(steps, 0.50))
	v.set("controller.step_p99_ms", quantile(steps, 0.99))
	v.set("controller.migrations_per_round", ratio(migrations, rounds))
	fast1, full1 := e.ctl.PlaceStats()
	v.set("controller.full_place_share", ratio(float64(full1-full0), float64(fast1-fast0+full1-full0)))
	v.set("controller.dropped_cells", dropped)

	rtt := make([]float64, len(rtts))
	for i, r := range rtts {
		rtt[i] = us(r)
	}
	v.set("ctrlproto.push_ack_rtt_p50_us", quantile(rtt, 0.50))
	v.set("ctrlproto.push_ack_rtt_p99_us", quantile(rtt, 0.99))
	v.set("ctrlproto.msgs_per_round", ratio(float64(msgs), rounds))
	v.set("ctrlproto.bytes_per_round", ratio(float64(e.bytes.Load()-bytes0), rounds))
	var coalesced, streamDropped float64
	for i, a := range e.agents {
		st := a.StreamStats()
		coalesced += float64(st.Coalesced - stream0[i].Coalesced)
		streamDropped += float64(st.Dropped - stream0[i].Dropped)
	}
	v.set("ctrlproto.stream_coalesced", coalesced)
	v.set("ctrlproto.stream_dropped", streamDropped)

	var snapshot, encode time.Duration
	stubScrapes := 0
	for _, s := range e.stubs {
		s.mu.Lock()
		snapshot += s.snapshot
		encode += s.encode
		stubScrapes += s.scrapes
		s.mu.Unlock()
	}
	v.set("telemetry.snapshot_us", ratio(us(snapshot), float64(stubScrapes)))
	v.set("telemetry.encode_us", ratio(us(encode), float64(stubScrapes)))
	v.set("telemetry.decode_merge_us", ratio(us(decodeMerge), scrapes))
	v.set("telemetry.scrape_rtt_ms", median(scrapeRTT))

	v.set("bench.failed_share", out.failedShare)
	if trace {
		v.set("bench.self_time_share", e.tr.selfTimeShare())
	}
	return out, nil
}
