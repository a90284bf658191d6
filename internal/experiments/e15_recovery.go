package experiments

import (
	"fmt"
	"net"
	"time"

	"pran/internal/controller"
	"pran/internal/dataplane"
	"pran/internal/faultinject"
	"pran/internal/frame"
	"pran/internal/node"
	"pran/internal/phy"
	"pran/internal/telemetry"
)

// recoveryOutcome is one live failure's measured timeline and accounting,
// the experimental counterpart of E8's analytical failoverOutcome.
type recoveryOutcome struct {
	victimCells   int
	detection     time.Duration // partition onset → lease expiry
	replacement   time.Duration // lease expiry → cells live on the survivor
	mttr          time.Duration // partition onset → cells live on the survivor
	statePushed   uint64        // warm HARQ bytes the controller pushed
	stateRestored uint64        // HARQ bytes the survivor unpacked
	lostSubframes int           // victim cells × outage, in TTIs
	headlessTTIs  uint64        // subframes the cut-off victim kept serving
	reconnects    uint64        // victim reconnect attempts after heal
	leaseExpiries uint64
}

// waitUntil polls cond every few milliseconds until it holds or the timeout
// lapses, reporting which.
func waitUntil(timeout time.Duration, cond func() bool) bool {
	deadline := time.Now().Add(timeout)
	for time.Now().Before(deadline) {
		if cond() {
			return true
		}
		time.Sleep(5 * time.Millisecond)
	}
	return cond()
}

// runLiveRecovery stands up a real controller and two agents over loopback
// TCP, drives uplink traffic long enough for warm HARQ snapshots to reach
// the controller, then partitions one agent away with the fault injector and
// times the recovery: lease-expiry detection, re-placement onto the
// survivor with warm-state push, and — after healing the partition — the
// victim's reconnect and ownership reconciliation.
func runLiveRecovery(nCells int, hb time.Duration, misses int, ttiInterval time.Duration) (recoveryOutcome, error) {
	var out recoveryOutcome
	var cells []frame.CellConfig
	for i := 0; i < nCells; i++ {
		cells = append(cells, frame.CellConfig{
			ID: frame.CellID(i), PCI: uint16(i * 3), Bandwidth: phy.BW1_4MHz, Antennas: 1,
		})
	}
	ln, err := net.Listen("tcp", "127.0.0.1:0")
	if err != nil {
		return out, err
	}
	cn, err := node.NewControllerNode(ln, node.ControllerConfig{
		Controller:        controller.DefaultConfig(),
		Cells:             cells,
		Period:            20 * time.Millisecond,
		HeartbeatInterval: hb,
		LeaseMisses:       misses,
		Telemetry:         telemetry.New(1),
	})
	if err != nil {
		return out, err
	}
	go func() { _ = cn.Serve() }()
	defer cn.Close()

	// Both agents dial through their own injector so whichever ends up
	// hosting cells can be the partition victim.
	startAgent := func(id uint32, inj *faultinject.Injector) (*node.AgentNode, error) {
		an, err := node.NewAgentNode(node.AgentConfig{
			ControllerAddr: cn.Addr().String(),
			ServerID:       id,
			Cores:          2,
			Pool: dataplane.Config{
				DeadlineScale: 1000, Policy: dataplane.EDF,
				Telemetry: telemetry.New(1),
			},
			TTIInterval:  ttiInterval,
			Seed:         seedFor(int64(id)),
			ReconnectMin: 20 * time.Millisecond,
			ReconnectMax: 200 * time.Millisecond,
			Dial:         inj.Dial,
		})
		if err != nil {
			return nil, err
		}
		go func() { _ = an.Run() }()
		return an, nil
	}
	injs := []*faultinject.Injector{faultinject.New(15), faultinject.New(16)}
	agents := make([]*node.AgentNode, 2)
	for i := range agents {
		if agents[i], err = startAgent(uint32(i+1), injs[i]); err != nil {
			return out, err
		}
		defer agents[i].Close()
	}
	for i := 0; i < nCells; i++ {
		cn.Controller().ObserveCell(frame.CellID(i), 0.05)
	}
	if !waitUntil(10*time.Second, func() bool {
		return agents[0].NumCells()+agents[1].NumCells() == nCells
	}) {
		return out, fmt.Errorf("experiments: E15 initial placement never enacted")
	}
	// Pick the agent hosting cells as the victim; the other is the survivor.
	vi := 0
	if agents[0].NumCells() == 0 {
		vi = 1
	}
	victim, survivor := agents[vi], agents[1-vi]
	inj := injs[vi]
	out.victimCells = victim.NumCells()
	if out.victimCells == 0 {
		return out, fmt.Errorf("experiments: E15 placement left both agents empty")
	}
	// Let traffic build HARQ state and warm snapshots reach the controller.
	if !waitUntil(10*time.Second, func() bool {
		return cn.Telemetry().Gauge("controller.warm_state_bytes").Value() > 0
	}) {
		return out, fmt.Errorf("experiments: E15 no warm HARQ snapshot reached the controller")
	}

	partitionedAt := time.Now()
	inj.Partition()
	budget := cn.LeaseBudget()
	if !waitUntil(10*budget+5*time.Second, func() bool {
		return cn.Telemetry().Counter("controller.lease_expiries").Value() >= 1
	}) {
		return out, fmt.Errorf("experiments: E15 lease never expired after the partition")
	}
	out.detection = time.Since(partitionedAt)
	if !waitUntil(10*time.Second, func() bool {
		return survivor.NumCells() == nCells
	}) {
		return out, fmt.Errorf("experiments: E15 cells never re-placed on the survivor")
	}
	out.mttr = time.Since(partitionedAt)
	out.replacement = out.mttr - out.detection
	// Outage accounting mirrors E8: each lost cell misses one subframe per
	// TTI interval until it is live again on the survivor.
	out.lostSubframes = out.victimCells * int(out.mttr/ttiInterval)

	// Heal and let the victim rejoin so the run also measures reconnect.
	inj.Heal()
	waitUntil(10*time.Second, func() bool {
		return victim.Telemetry().Counter("agent.reconnects").Value() >= 1
	})
	waitUntil(10*time.Second, func() bool {
		return victim.NumCells()+survivor.NumCells() == nCells
	})

	out.statePushed = cn.Telemetry().Counter("controller.state_pushed_bytes").Value()
	out.stateRestored = survivor.Telemetry().Counter("agent.state_restored_bytes").Value()
	out.headlessTTIs = victim.Telemetry().Counter("agent.headless_ttis").Value()
	out.reconnects = victim.Telemetry().Counter("agent.reconnects").Value()
	out.leaseExpiries = cn.Telemetry().Counter("controller.lease_expiries").Value()
	return out, nil
}

// E15Recovery measures live failure recovery end to end — the enacted
// counterpart of E8's analytical hot-standby row. A real controller and two
// agents run measured uplink traffic over loopback TCP; the fault injector
// partitions the cell-hosting agent away mid-traffic, and the experiment
// times detection (heartbeat-lease expiry), re-placement with warm HARQ
// state push, and the victim's reconnect after the partition heals.
// Expected shape: detection lands within one heartbeat of the configured
// lease budget and dominates the MTTR (re-placement over loopback is a few
// control periods), matching E8's prediction that hot-standby outage is
// detection-bound; warm state actually moves (pushed and restored bytes are
// nonzero), and the cut-off victim keeps serving headless TTIs.
func E15Recovery(quick bool) (Result, error) {
	// 50 ms heartbeats with an 8-miss budget (400 ms): generous enough that
	// a multi-hundred-KB HARQ snapshot in flight cannot trigger a spurious
	// expiry on a loaded host (see docs/fault-tolerance.md).
	const hb, misses = 50 * time.Millisecond, 8
	nCells, ttiInterval := 4, 15*time.Millisecond
	if quick {
		nCells = 2
	}
	res := Result{
		ID:      "E15",
		Title:   "Live recovery: enacted failover with lease detection and HARQ state migration",
		Header:  []string{"quantity", "detect(ms)", "replace(ms)", "mttr(ms)", "state(KB)", "lost-subframes"},
		Metrics: map[string]float64{},
	}
	o, err := runLiveRecovery(nCells, hb, misses, ttiInterval)
	if err != nil {
		return res, err
	}
	budget := time.Duration(misses) * hb
	res.Rows = append(res.Rows,
		[]string{
			"measured (live)",
			fmt.Sprintf("%d", o.detection/time.Millisecond),
			fmt.Sprintf("%d", o.replacement/time.Millisecond),
			fmt.Sprintf("%d", o.mttr/time.Millisecond),
			fmt.Sprintf("%.1f", float64(o.statePushed)/1024),
			fmt.Sprintf("%d", o.lostSubframes),
		},
		[]string{
			"analytical (E8 model, this lease)",
			fmt.Sprintf("%d", budget/time.Millisecond),
			"~0",
			fmt.Sprintf("%d", budget/time.Millisecond),
			"-",
			fmt.Sprintf("%d", o.victimCells*int(budget/ttiInterval)),
		},
	)
	res.Metrics["detection_ms"] = float64(o.detection) / float64(time.Millisecond)
	res.Metrics["replacement_ms"] = float64(o.replacement) / float64(time.Millisecond)
	res.Metrics["mttr_ms"] = float64(o.mttr) / float64(time.Millisecond)
	res.Metrics["lease_budget_ms"] = float64(budget) / float64(time.Millisecond)
	res.Metrics["state_pushed_bytes"] = float64(o.statePushed)
	res.Metrics["state_restored_bytes"] = float64(o.stateRestored)
	res.Metrics["lost_subframes"] = float64(o.lostSubframes)
	res.Metrics["headless_ttis"] = float64(o.headlessTTIs)
	res.Metrics["reconnects"] = float64(o.reconnects)
	res.Metrics["lease_expiries"] = float64(o.leaseExpiries)
	res.Notes = append(res.Notes,
		fmt.Sprintf("lease: %d × %v heartbeats = %v budget; %d cells on the victim, TTI interval %v (scaled from 1 ms)",
			misses, hb, budget, o.victimCells, ttiInterval),
		"detection is measured from partition onset, so it can undershoot the budget by up to one report interval (silence runs from the victim's last processed message)",
		"the analytical row replays E8's hot-standby accounting at this experiment's lease, heartbeat, and TTI settings",
		"the cut-off victim kept serving its cells headless until the partition healed, then reconnected and was reconciled")
	return res, nil
}
