package experiments

import (
	"fmt"
	"net"
	"sync"
	"sync/atomic"
	"time"

	"pran/internal/controller"
	"pran/internal/ctrlproto"
	"pran/internal/frame"
	"pran/internal/node"
	"pran/internal/phy"
	"pran/internal/telemetry"
)

// stubAgent is a protocol-faithful data-plane agent without the data plane:
// it registers, heartbeats, streams per-cell load from a shared demand table,
// and enacts assignment/removal/state commands by bookkeeping only. E16 runs
// dozens of them against one controller to load the control plane with
// city-scale fan-out and fan-in while spending no cycles on PHY decode —
// the measured object is dissemination, not demodulation.
type stubAgent struct {
	client *ctrlproto.Client
	reg    *telemetry.Registry
	demand []atomic.Uint32 // shared, indexed by cell ID, in millicores

	mu      sync.Mutex
	cells   map[uint16]struct{}
	assigns uint64
	removes uint64

	closed chan struct{}
	wg     sync.WaitGroup
}

// startStubAgent dials, registers, and runs the reader + reporter loops.
func startStubAgent(addr string, id uint32, cores uint16, demand []atomic.Uint32) (*stubAgent, error) {
	cl, err := ctrlproto.DialAgent(addr, id, cores, 1000)
	if err != nil {
		return nil, err
	}
	a := &stubAgent{
		client: cl,
		reg:    telemetry.New(1),
		demand: demand,
		cells:  make(map[uint16]struct{}),
		closed: make(chan struct{}),
	}
	if err := cl.SendCellOwned(nil); err != nil {
		_ = cl.Close()
		return nil, err
	}
	a.wg.Add(2)
	go a.readLoop()
	go a.reportLoop()
	return a, nil
}

// readLoop enacts controller commands until the connection closes.
func (a *stubAgent) readLoop() {
	defer a.wg.Done()
	for {
		m, err := a.client.Receive()
		if err != nil {
			return
		}
		switch t := m.(type) {
		case *ctrlproto.AssignCell:
			a.mu.Lock()
			a.cells[t.Cell] = struct{}{}
			a.assigns++
			a.mu.Unlock()
			_ = a.client.Ack(t.Seq)
		case *ctrlproto.RemoveCell:
			a.mu.Lock()
			delete(a.cells, t.Cell)
			a.removes++
			a.mu.Unlock()
			_ = a.client.Ack(t.Seq)
		case *ctrlproto.MigrateState:
			_ = a.client.Ack(t.Seq)
		case *ctrlproto.StatsRequest:
			a.reg.Gauge("stub.cells").Set(int64(a.numCells()))
			data, err := a.reg.Snapshot().Encode()
			if err == nil {
				_ = a.client.SendStatsReport(t.Seq, data)
			}
		}
	}
}

// reportLoop streams heartbeats and per-cell load at the interval the
// controller requested, reading each owned cell's current demand from the
// shared table (the experiment mutates it to create churn).
func (a *stubAgent) reportLoop() {
	defer a.wg.Done()
	ticker := time.NewTicker(a.client.Interval)
	defer ticker.Stop()
	var tti uint64
	for {
		select {
		case <-a.closed:
			return
		case <-ticker.C:
		}
		tti++
		a.mu.Lock()
		owned := make([]uint16, 0, len(a.cells))
		for c := range a.cells {
			owned = append(owned, c)
		}
		a.mu.Unlock()
		if err := a.client.Heartbeat(&ctrlproto.Heartbeat{TTI: tti}); err != nil {
			return
		}
		for _, c := range owned {
			if err := a.client.SendCellLoad(c, a.demand[c].Load(), tti); err != nil {
				return
			}
		}
	}
}

// numCells returns how many cells the stub currently runs.
func (a *stubAgent) numCells() int {
	a.mu.Lock()
	defer a.mu.Unlock()
	return len(a.cells)
}

// counts returns cumulative enacted assigns and removes.
func (a *stubAgent) counts() (uint64, uint64) {
	a.mu.Lock()
	defer a.mu.Unlock()
	return a.assigns, a.removes
}

// close stops the loops and the connection.
func (a *stubAgent) close() {
	close(a.closed)
	_ = a.client.Close()
	a.wg.Wait()
}

// e16Outcome is one scale run's measured control-plane numbers.
type e16Outcome struct {
	cells, agents   int
	placeTime       time.Duration // demand ingest → every cell enacted on an agent
	assignRate      float64       // enacted placement pushes per second during fan-out
	dissemP50       float64       // stream queue wait, seconds
	dissemP99       float64
	scrapeTime      time.Duration // concurrent cluster-wide telemetry fan-in
	scrapeReported  int
	fastRounds      uint64 // incremental placements during steady churn
	fullRounds      uint64
	coalesced       uint64 // pushes absorbed by queue coalescing
	surgeMigrations uint64 // removals enacted after the demand surge
}

// runScale stands up a controller and nAgents stub agents over loopback TCP
// managing nCells cells, then measures three control-plane phases: cold-start
// placement fan-out, steady demand churn (the incremental placer's regime),
// and a demand surge that forces repacking, with a cluster-wide telemetry
// scrape at the end.
func runScale(nCells, nAgents int, churn time.Duration) (e16Outcome, error) {
	out := e16Outcome{cells: nCells, agents: nAgents}
	const period = 50 * time.Millisecond
	cells := make([]frame.CellConfig, nCells)
	for i := range cells {
		cells[i] = frame.CellConfig{
			ID: frame.CellID(i), PCI: uint16(i % 504), Bandwidth: phy.BW1_4MHz, Antennas: 1,
		}
	}
	ln, err := net.Listen("tcp", "127.0.0.1:0")
	if err != nil {
		return out, err
	}
	// WorstFit keeps load balanced so every server retains slack: under
	// first-fit-decreasing the leading bins are packed to the brim and any
	// positive demand jitter overflows one, forcing a full recompute every
	// round. Balanced placement is what makes steady churn incremental.
	ctlCfg := controller.DefaultConfig()
	ctlCfg.Policy = controller.WorstFit
	cn, err := node.NewControllerNode(ln, node.ControllerConfig{
		Controller:        ctlCfg,
		Cells:             cells,
		Period:            period,
		HeartbeatInterval: period,
		// The run deliberately saturates shared CI hosts; failover is E15's
		// subject, so the lease budget is set beyond this run's horizon.
		LeaseMisses: 600,
		Telemetry:   telemetry.New(1),
	})
	if err != nil {
		return out, err
	}
	go func() { _ = cn.Serve() }()
	defer cn.Close()

	// Shared demand table: ~50 millicores per cell so the city fits the pool
	// with headroom (nAgents × 4 cores ≫ nCells × 0.05).
	demand := make([]atomic.Uint32, nCells)
	for i := range demand {
		demand[i].Store(uint32(40 + i%20))
	}
	agents := make([]*stubAgent, nAgents)
	for i := range agents {
		if agents[i], err = startStubAgent(cn.Addr().String(), uint32(i+1), 4, demand); err != nil {
			return out, err
		}
		defer agents[i].close()
	}
	if !waitUntil(10*time.Second, func() bool { return cn.NumAgents() == nAgents }) {
		return out, fmt.Errorf("experiments: E16 agents never all registered")
	}

	placed := func() int {
		total := 0
		for _, a := range agents {
			total += a.numCells()
		}
		return total
	}

	// Phase 1 — cold-start fan-out: ingest the whole city's demand at once
	// and time until every cell is enacted on some agent.
	start := time.Now()
	for i := 0; i < nCells; i++ {
		cn.Controller().ObserveCell(frame.CellID(i), float64(demand[i].Load())/1000)
	}
	if !waitUntil(60*time.Second, func() bool { return placed() == nCells }) {
		return out, fmt.Errorf("experiments: E16 placement incomplete: %d/%d cells enacted", placed(), nCells)
	}
	out.placeTime = time.Since(start)
	var assigns uint64
	for _, a := range agents {
		na, _ := a.counts()
		assigns += na
	}
	out.assignRate = float64(assigns) / out.placeTime.Seconds()

	// Phase 2 — steady churn: jitter every cell's demand ±10% while agents
	// stream load reports; the placer should absorb this incrementally.
	fast0, full0 := cn.Controller().PlaceStats()
	churnEnd := time.Now().Add(churn)
	for round := 0; time.Now().Before(churnEnd); round++ {
		for i := range demand {
			base := uint32(40 + i%20)
			jitter := base / 10
			if (round+i)%2 == 0 {
				demand[i].Store(base + jitter)
			} else {
				demand[i].Store(base - jitter)
			}
		}
		time.Sleep(period)
	}
	fast1, full1 := cn.Controller().PlaceStats()
	out.fastRounds, out.fullRounds = fast1-fast0, full1-full0

	// Phase 3 — demand surge: one cell in ten grows 8×, forcing promotions
	// and real migrations through the streams.
	for i := 0; i < nCells; i += 10 {
		demand[i].Store(8 * uint32(40+i%20))
	}
	waitUntil(10*time.Second, func() bool {
		var removes uint64
		for _, a := range agents {
			_, nr := a.counts()
			removes += nr
		}
		out.surgeMigrations = removes
		return removes > 0
	})
	// Let the surge settle so its pushes land in the histogram.
	waitUntil(10*time.Second, func() bool { return placed() == nCells })

	// Cluster-wide telemetry fan-in across every agent.
	scrapeStart := time.Now()
	_, reported, err := cn.ScrapeTelemetry(5 * time.Second)
	if err != nil {
		return out, err
	}
	out.scrapeTime = time.Since(scrapeStart)
	out.scrapeReported = reported

	snap := cn.Telemetry().Snapshot()
	if h, ok := snap.Histogram("controller.stream.queue_wait_s"); ok {
		out.dissemP50 = h.Quantile(0.50)
		out.dissemP99 = h.Quantile(0.99)
	}
	if v, ok := snap.Gauge("controller.stream.coalesced"); ok {
		out.coalesced = uint64(v)
	}
	return out, nil
}

// E16Scale measures the control plane at city scale: hundreds of cells
// across dozens of agents on one controller, exercising the streaming
// fan-out (per-agent coalescing queues), the locked fan-in (load reports,
// leases), the incremental placer, and the concurrent telemetry scrape.
// Expected shape: cold-start placement completes within a few control
// periods of ingesting the whole city's demand; per-push dissemination
// latency (stream queue wait) stays in the microsecond-to-millisecond range
// because enqueues never touch sockets; steady demand churn is absorbed
// almost entirely by incremental fast-path rounds; and the scrape fans in
// from every agent in far less time than agents × timeout.
func E16Scale(quick bool) (Result, error) {
	nCells, nAgents, churn := 1000, 32, 4*time.Second
	if quick {
		nCells, nAgents, churn = 500, 16, 1500*time.Millisecond
	}
	res := Result{
		ID:      "E16",
		Title:   "City-scale control plane: streaming fan-out, incremental placement, scrape fan-in",
		Header:  []string{"quantity", "value"},
		Metrics: map[string]float64{},
	}
	o, err := runScale(nCells, nAgents, churn)
	if err != nil {
		return res, err
	}
	res.Rows = [][]string{
		{"cells / agents", fmt.Sprintf("%d / %d", o.cells, o.agents)},
		{"cold-start placement (ms)", ms(o.placeTime.Seconds())},
		{"placement pushes/s during fan-out", f(o.assignRate)},
		{"dissemination p50 (ms)", ms(o.dissemP50)},
		{"dissemination p99 (ms)", ms(o.dissemP99)},
		{"churn rounds fast/full", fmt.Sprintf("%d / %d", o.fastRounds, o.fullRounds)},
		{"pushes coalesced", fmt.Sprintf("%d", o.coalesced)},
		{"surge removals enacted", fmt.Sprintf("%d", o.surgeMigrations)},
		{"scrape fan-in (ms), agents reported", fmt.Sprintf("%s, %d", ms(o.scrapeTime.Seconds()), o.scrapeReported)},
	}
	res.Metrics["cells"] = float64(o.cells)
	res.Metrics["agents"] = float64(o.agents)
	res.Metrics["placement_ms"] = o.placeTime.Seconds() * 1e3
	res.Metrics["assign_rate_per_s"] = o.assignRate
	res.Metrics["dissemination_p50_ms"] = o.dissemP50 * 1e3
	res.Metrics["dissemination_p99_ms"] = o.dissemP99 * 1e3
	res.Metrics["fast_rounds"] = float64(o.fastRounds)
	res.Metrics["full_rounds"] = float64(o.fullRounds)
	res.Metrics["coalesced"] = float64(o.coalesced)
	res.Metrics["scrape_ms"] = o.scrapeTime.Seconds() * 1e3
	res.Metrics["scrape_reported"] = float64(o.scrapeReported)
	res.Notes = append(res.Notes,
		"agents are protocol-faithful stubs (register, heartbeat, load streams, command enactment) with no PHY work: the measured object is the control plane",
		"dissemination latency is each delivered push's wait in its agent's stream queue (controller.stream.queue_wait_s), the time between the control loop deciding and the writer goroutine sending",
		"steady ±10% demand churn should be absorbed by incremental fast-path rounds; the 8× surge forces full recomputes, promotions, and real migrations",
	)
	return res, nil
}
