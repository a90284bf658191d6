package experiments

import (
	"fmt"
	"time"

	"pran/internal/cluster"
	"pran/internal/controller"
	"pran/internal/dataplane"
	"pran/internal/frame"
	"pran/internal/phy"
	"pran/internal/sim"
)

// failoverScenario runs one failure: place nCells on a pool, kill the most
// loaded server, and account the outage per recovery strategy.
type failoverOutcome struct {
	lostCells      int
	detection      time.Duration
	capacityWait   time.Duration // until replacement capacity exists
	stateTransfer  time.Duration // HARQ state restore
	totalOutage    time.Duration
	lostSubframes  int
	promotions     int
	stateBytesCell int
}

// typicalHARQStateBytes builds a warmed HARQ manager for a busy cell and
// returns its migration payload size.
func typicalHARQStateBytes() (int, error) {
	h := dataplane.NewHARQManager()
	for p := uint8(0); p < 8; p++ {
		a := frame.Allocation{
			RNTI: frame.RNTI(100 + p), NumPRB: 25, MCS: 16,
			HARQProcess: p, SNRdB: phy.MCS(16).OperatingSNR(),
		}
		if h.Prepare(a, frame.TTI(p)) == nil {
			return 0, fmt.Errorf("experiments: HARQ buffer build failed")
		}
	}
	return h.StateBytes(), nil
}

func runFailover(hotStandby bool, nCells int) (failoverOutcome, error) {
	var out failoverOutcome
	total, active := 6, 4
	if !hotStandby {
		total = 4 // no spare capacity anywhere
	}
	cl, err := cluster.Uniform(total, active, 8, 1)
	if err != nil {
		return out, err
	}
	cfg := controller.DefaultConfig()
	cfg.Mode = controller.Reactive
	ctl, err := controller.New(cfg, cl)
	if err != nil {
		return out, err
	}
	for c := 0; c < nCells; c++ {
		ctl.ObserveCell(frame.CellID(c), 1.5)
	}
	if _, err := ctl.Step(); err != nil {
		return out, err
	}
	// Kill the server hosting the most cells.
	counts := map[cluster.ServerID]int{}
	for _, srv := range ctl.Placement() {
		counts[srv]++
	}
	var victim cluster.ServerID
	best := -1
	for srv, n := range counts {
		if n > best || (n == best && srv < victim) {
			victim, best = srv, n
		}
	}
	rep, err := ctl.OnServerFailure(victim)
	if err != nil {
		return out, err
	}
	out.lostCells = len(rep.LostCells)
	out.promotions = rep.Promotions

	stateBytes, err := typicalHARQStateBytes()
	if err != nil {
		return out, err
	}
	out.stateBytesCell = stateBytes
	return runFailoverTimeline(&out, hotStandby), nil
}

// runFailoverTimeline plays the recovery out as discrete events on the
// simulation engine: missed heartbeats → detection, (cold only) server
// boot, then sequential per-cell state restores over the pool fabric. The
// engine's clock at each milestone supplies the outage accounting.
func runFailoverTimeline(out *failoverOutcome, hotStandby bool) failoverOutcome {
	const (
		heartbeat     = 100 * time.Millisecond
		missedBeats   = 3
		bootTime      = 30 * time.Second
		fabricBitsPer = 10e9 // 10 Gb/s
	)
	var eng sim.Engine
	var detectedAt, capacityAt time.Duration
	restoreDone := make([]time.Duration, 0, out.lostCells)

	transferPerCell := time.Duration(float64(out.stateBytesCell*8) / fabricBitsPer * float64(time.Second))

	restoreCells := func(start time.Duration) {
		// Cells restore sequentially over the shared fabric link.
		at := start
		for c := 0; c < out.lostCells; c++ {
			at += transferPerCell
			done := at
			eng.Schedule(done, func() {
				restoreDone = append(restoreDone, eng.Now())
			})
		}
	}
	// Failure at t=0 is silent; the controller notices after 3 missed
	// heartbeats.
	eng.Schedule(missedBeats*heartbeat, func() {
		detectedAt = eng.Now()
		if hotStandby {
			capacityAt = eng.Now() // standby already booted
			restoreCells(eng.Now())
			return
		}
		eng.After(bootTime, func() {
			capacityAt = eng.Now()
			restoreCells(eng.Now())
		})
	})
	eng.RunAll()

	out.detection = detectedAt
	out.capacityWait = capacityAt - detectedAt
	last := capacityAt
	if n := len(restoreDone); n > 0 {
		last = restoreDone[n-1]
	}
	out.stateTransfer = last - capacityAt
	out.totalOutage = last
	// Each cell misses one uplink subframe per ms it was down; per-cell
	// downtime ends at its own restore event.
	lost := 0
	for _, done := range restoreDone {
		lost += int(done / time.Millisecond)
	}
	if len(restoreDone) == 0 {
		lost = out.lostCells * int(last/time.Millisecond)
	}
	out.lostSubframes = lost
	return *out
}

// E8Failover reconstructs the fault-tolerance figure: outage and lost
// subframes after a server failure, hot standby vs cold restart. Expected
// shape: with standbys the outage is dominated by failure *detection*
// (sub-second, tens of subframes per cell); without them it is dominated by
// server boot (tens of seconds, four orders of magnitude more loss).
func E8Failover(quick bool) (Result, error) {
	nCells := 20
	if quick {
		nCells = 12
	}
	res := Result{
		ID:      "E8",
		Title:   "Failover: outage after a server failure, hot standby vs cold restart",
		Header:  []string{"strategy", "lost-cells", "detect(ms)", "capacity(ms)", "state(ms)", "outage(ms)", "lost-subframes", "state-bytes/cell"},
		Metrics: map[string]float64{},
	}
	for _, hot := range []bool{true, false} {
		o, err := runFailover(hot, nCells)
		if err != nil {
			return res, err
		}
		name := "hot-standby"
		if !hot {
			name = "cold-restart"
		}
		res.Rows = append(res.Rows, []string{
			name,
			fmt.Sprintf("%d", o.lostCells),
			fmt.Sprintf("%d", o.detection/time.Millisecond),
			fmt.Sprintf("%d", o.capacityWait/time.Millisecond),
			fmt.Sprintf("%.2f", float64(o.stateTransfer)/float64(time.Millisecond)),
			fmt.Sprintf("%d", o.totalOutage/time.Millisecond),
			fmt.Sprintf("%d", o.lostSubframes),
			fmt.Sprintf("%d", o.stateBytesCell),
		})
		res.Metrics[name+"_outage_ms"] = float64(o.totalOutage) / float64(time.Millisecond)
		res.Metrics[name+"_lost_subframes"] = float64(o.lostSubframes)
	}
	res.Notes = append(res.Notes,
		"detection = 3 × 100 ms heartbeats; cold boot = 30 s; state restore over 10 Gb/s fabric",
		"HARQ soft-buffer state measured from a warmed 8-process manager at MCS 16 / 25 PRB")
	return res, nil
}
