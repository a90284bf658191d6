// Package soak is PRAN's chaos soak harness: it stands up a real controller
// and N agent nodes over loopback TCP, drives minutes of simulated traffic
// through the workload-diversity event layer (flash crowds, mobility waves,
// regional surges), injects a scripted chaos timeline (agent crashes, full
// and one-sided partitions, worker stalls), scrapes telemetry continuously,
// and evaluates windowed SLOs on the result. The output is a machine-
// readable Report with a single pass bit, designed to be gated in CI.
//
// Simulated time is compressed with the agent TTI stride: each real tick
// advances the traffic model by Stride subframes, so a ≥60 s diurnal/event
// timeline fits a ~20 s wall-clock run. All randomness — traffic, event
// schedule, chaos jitter — derives from one seed recorded in the report, so
// a failing soak replays exactly with `pran-soak -seed`.
//
// Concurrency: the harness runs three kinds of goroutine — the nodes' own
// loops (controller control loop, per-agent TTI/report loops), one chaos
// executor walking the scripted timeline, and the main Run loop evaluating
// SLO windows. Shared harness state (the live agent slots, chaos records)
// is guarded by one mutex; per-agent telemetry is read through the
// registries' own lock-free snapshots, and window deltas are computed with
// telemetry.Delta, which tolerates agent restarts (counter resets) by
// construction.
package soak

import (
	"fmt"
	"net"
	"sync"
	"time"

	"pran/internal/controller"
	"pran/internal/dataplane"
	"pran/internal/faultinject"
	"pran/internal/frame"
	"pran/internal/node"
	"pran/internal/phy"
	"pran/internal/telemetry"
	"pran/internal/traffic"
)

// Config parameterizes one soak run. The zero value is not runnable; use
// DefaultConfig (or QuickConfig) and override.
type Config struct {
	// Cells is the number of managed cells; Agents the number of pool
	// servers; Cores the worker count per agent.
	Cells, Agents, Cores int
	// Duration is the wall-clock soak length.
	Duration time.Duration
	// Window is the SLO evaluation window (wall clock).
	Window time.Duration
	// TTIInterval paces each agent's subframe loop; Stride compresses
	// simulated time (TTIs advanced per tick).
	TTIInterval time.Duration
	Stride      int
	// DeadlineScale stretches the HARQ deadline budget (measured mode).
	DeadlineScale float64
	// Bandwidth is the per-cell radio bandwidth.
	Bandwidth phy.Bandwidth
	// Seed drives traffic, the event schedule, and chaos jitter.
	Seed int64
	// HeartbeatInterval and LeaseMisses set the failure detector;
	// ControlPeriod the controller's loop cadence.
	HeartbeatInterval time.Duration
	LeaseMisses       int
	ControlPeriod     time.Duration
	// NoChaos disables the fault timeline; NoEvents the traffic events.
	NoChaos  bool
	NoEvents bool
	// SLO holds the gate thresholds.
	SLO SLOConfig
	// Logf receives progress lines; nil silences them.
	Logf func(format string, args ...any)
}

// DefaultConfig is the full soak: minutes of wall clock, a chaos action
// roughly every 15 s.
func DefaultConfig() Config {
	return Config{
		Cells:             12,
		Agents:            3,
		Cores:             2,
		Duration:          2 * time.Minute,
		Window:            2 * time.Second,
		TTIInterval:       15 * time.Millisecond,
		Stride:            50,
		DeadlineScale:     1000,
		Bandwidth:         phy.BW1_4MHz,
		Seed:              1,
		HeartbeatInterval: 50 * time.Millisecond,
		LeaseMisses:       8,
		ControlPeriod:     20 * time.Millisecond,
		SLO:               DefaultSLOConfig(),
	}
}

// QuickConfig is the CI smoke shape: ~22 s wall covering ≥60 s simulated,
// 8 cells on 2 agents, every chaos kind fired once.
func QuickConfig() Config {
	cfg := DefaultConfig()
	cfg.Cells = 8
	cfg.Agents = 2
	cfg.Duration = 22 * time.Second
	// The TTI loop drops ticks when an agent concentrates every cell (e.g.
	// after a failover), so delivered simulated time runs below the ideal
	// Duration/TTIInterval × Stride. The stride is sized so even a ~30%
	// delivery ratio on a slow CI runner clears the 60 s gate.
	cfg.Stride = 150
	cfg.SLO.MinSimSeconds = 60
	return cfg
}

// SmokeConfig is the race-detector shape: the instrumented DSP runs an
// order of magnitude slower, so the smoke offers proportionally less load
// (fewer cells, slower ticks) while a larger stride keeps tens of simulated
// seconds in a ~10 s wall run. CI's chaos job runs this under -race.
func SmokeConfig() Config {
	cfg := DefaultConfig()
	cfg.Cells = 2
	cfg.Agents = 2
	cfg.Duration = 10 * time.Second
	cfg.Window = 2 * time.Second
	cfg.TTIInterval = 100 * time.Millisecond
	cfg.Stride = 300
	return cfg
}

// normalize fills defaults and validates.
func (c *Config) normalize() error {
	if c.Cells < 1 || c.Agents < 1 || c.Cores < 1 {
		return fmt.Errorf("soak: need ≥1 cell, agent, core: %w", phy.ErrBadParameter)
	}
	if c.Duration <= 0 || c.Window <= 0 || c.TTIInterval <= 0 {
		return fmt.Errorf("soak: durations must be positive: %w", phy.ErrBadParameter)
	}
	if c.Stride < 1 {
		c.Stride = 1
	}
	if c.DeadlineScale <= 0 {
		c.DeadlineScale = 1000
	}
	if c.Bandwidth == 0 {
		c.Bandwidth = phy.BW1_4MHz
	}
	if c.HeartbeatInterval <= 0 {
		c.HeartbeatInterval = 50 * time.Millisecond
	}
	if c.LeaseMisses <= 0 {
		c.LeaseMisses = 8
	}
	if c.ControlPeriod <= 0 {
		c.ControlPeriod = 20 * time.Millisecond
	}
	if c.Logf == nil {
		c.Logf = func(string, ...any) {}
	}
	c.SLO.normalize(*c)
	return nil
}

// SimSeconds returns the ideal simulated time the configured run covers if
// no TTI tick is dropped; delivered time runs below it under load (the
// report's sim_seconds records what was actually covered).
func (c Config) SimSeconds() float64 {
	ticks := float64(c.Duration) / float64(c.TTIInterval)
	return ticks * float64(c.Stride) * 0.001
}

// agentSlot is one pool server's handle set: the node (replaced across
// crash/restart), its fault injector and worker-fault source (stable across
// restarts), and the previous telemetry snapshot for window deltas.
type agentSlot struct {
	id  uint32
	inj *faultinject.Injector
	wf  *faultinject.WorkerFault

	mu      sync.Mutex
	agent   *node.AgentNode
	running bool
	prev    telemetry.Snapshot
}

// get returns the slot's agent and whether it is running.
func (s *agentSlot) get() (*node.AgentNode, bool) {
	s.mu.Lock()
	defer s.mu.Unlock()
	return s.agent, s.running
}

// Harness is one soak run's live state.
type Harness struct {
	cfg   Config
	cn    *node.ControllerNode
	slots []*agentSlot
	sched *traffic.Schedule

	mu       sync.Mutex
	chaos    []ChaosRecord
	simTTI   uint64 // high-water agent TTI across all incarnations
	stopCh   chan struct{}
	startSec time.Time
}

// leaseBudget returns the configured failure-detection budget.
func (c Config) leaseBudget() time.Duration {
	return time.Duration(c.LeaseMisses) * c.HeartbeatInterval
}

// startAgent builds, registers, and runs one agent into its slot.
func (h *Harness) startAgent(slot *agentSlot) error {
	an, err := node.NewAgentNode(node.AgentConfig{
		ControllerAddr: h.cn.Addr().String(),
		ServerID:       slot.id,
		Cores:          h.cfg.Cores,
		Pool: dataplane.Config{
			DeadlineScale: h.cfg.DeadlineScale,
			Policy:        dataplane.EDF,
			AbandonLate:   true,
			Degrade:       dataplane.DegradeConfig{Enable: true},
			Telemetry:     telemetry.New(1),
			FaultHook:     slot.wf.Hook,
		},
		TTIInterval:  h.cfg.TTIInterval,
		TTIStride:    h.cfg.Stride,
		Schedule:     h.sched,
		Seed:         h.cfg.Seed + int64(slot.id)*1009,
		ReconnectMin: 20 * time.Millisecond,
		ReconnectMax: 250 * time.Millisecond,
		Dial:         slot.inj.Dial,
		Logf:         h.cfg.Logf,
	})
	if err != nil {
		return err
	}
	slot.mu.Lock()
	slot.agent = an
	slot.running = true
	slot.mu.Unlock()
	go func() { _ = an.Run() }()
	return nil
}

// stopAgent closes the slot's agent (chaos crash or teardown).
func (h *Harness) stopAgent(slot *agentSlot) {
	slot.mu.Lock()
	an := slot.agent
	slot.running = false
	slot.mu.Unlock()
	if an != nil {
		_ = an.Close()
	}
}

// allCellsServed reports whether every managed cell is applied to a live
// agent and the live agents together run at least the full cell count.
func (h *Harness) allCellsServed() bool {
	applied := h.cn.Applied()
	if len(applied) != h.cfg.Cells {
		return false
	}
	live := make(map[uint32]bool, len(h.slots))
	total := 0
	for _, s := range h.slots {
		if an, ok := s.get(); ok {
			live[s.id] = true
			total += an.NumCells()
		}
	}
	for _, srv := range applied {
		if !live[uint32(srv)] {
			return false
		}
	}
	return total >= h.cfg.Cells
}

// lostCells counts managed cells not applied to any live agent.
func (h *Harness) lostCells() int {
	applied := h.cn.Applied()
	live := make(map[uint32]bool, len(h.slots))
	for _, s := range h.slots {
		if _, ok := s.get(); ok {
			live[s.id] = true
		}
	}
	lost := h.cfg.Cells
	for _, srv := range applied {
		if live[uint32(srv)] {
			lost--
		}
	}
	return lost
}

// waitUntil polls cond until it holds or the timeout lapses.
func waitUntil(stop <-chan struct{}, timeout time.Duration, cond func() bool) bool {
	deadline := time.Now().Add(timeout)
	for time.Now().Before(deadline) {
		if cond() {
			return true
		}
		select {
		case <-stop:
			return cond()
		case <-time.After(10 * time.Millisecond):
		}
	}
	return cond()
}

// Run executes the soak and returns its report. The error covers harness
// failures (listen, registration); SLO violations are not errors — they are
// the report's failing gates.
func Run(cfg Config) (*Report, error) {
	if err := cfg.normalize(); err != nil {
		return nil, err
	}
	classes := traffic.StandardMix(cfg.Cells)
	profiles := make([]traffic.CellProfile, cfg.Cells)
	for i := range profiles {
		profiles[i] = traffic.DefaultProfile(classes[i])
	}
	var sched *traffic.Schedule
	var eventDescs []string
	if !cfg.NoEvents {
		// Lay the events out over half the ideal simulated span so every
		// event plays even when dropped TTI ticks shrink delivered time.
		var err error
		sched, err = traffic.RandomSchedule(profiles, 12, cfg.Seed, 0.5*cfg.SimSeconds())
		if err != nil {
			return nil, err
		}
		for _, ev := range sched.Events() {
			eventDescs = append(eventDescs, ev.String())
		}
	}

	var cells []frame.CellConfig
	for i := 0; i < cfg.Cells; i++ {
		cells = append(cells, frame.CellConfig{
			ID: frame.CellID(i), PCI: uint16(i * 3), Bandwidth: cfg.Bandwidth, Antennas: 1,
		})
	}
	ln, err := net.Listen("tcp", "127.0.0.1:0")
	if err != nil {
		return nil, err
	}
	cn, err := node.NewControllerNode(ln, node.ControllerConfig{
		Controller:        controller.DefaultConfig(),
		Cells:             cells,
		Period:            cfg.ControlPeriod,
		HeartbeatInterval: cfg.HeartbeatInterval,
		LeaseMisses:       cfg.LeaseMisses,
		Telemetry:         telemetry.New(1),
		Logf:              cfg.Logf,
	})
	if err != nil {
		return nil, err
	}
	go func() { _ = cn.Serve() }()
	defer cn.Close()

	h := &Harness{cfg: cfg, cn: cn, sched: sched, stopCh: make(chan struct{})}
	for i := 0; i < cfg.Agents; i++ {
		slot := &agentSlot{
			id:  uint32(i + 1),
			inj: faultinject.New(cfg.Seed + int64(i)*31),
			wf:  faultinject.NewWorkerFault(cfg.Seed + int64(i)*37),
		}
		h.slots = append(h.slots, slot)
		if err := h.startAgent(slot); err != nil {
			return nil, err
		}
	}
	defer func() {
		for _, s := range h.slots {
			h.stopAgent(s)
		}
	}()

	// Seed demand so the first control rounds place every cell.
	for i := 0; i < cfg.Cells; i++ {
		cn.Controller().ObserveCell(frame.CellID(i), 0.05)
	}
	if !waitUntil(h.stopCh, 15*time.Second, h.allCellsServed) {
		return nil, fmt.Errorf("soak: initial placement never enacted (%d/%d cells)",
			cfg.Cells-h.lostCells(), cfg.Cells)
	}
	cfg.Logf("soak: %d cells placed on %d agents; running %v (≈%.0f s simulated)",
		cfg.Cells, cfg.Agents, cfg.Duration, cfg.SimSeconds())

	var chaosWG sync.WaitGroup
	if !cfg.NoChaos {
		chaosWG.Add(1)
		go func() {
			defer chaosWG.Done()
			h.runChaos()
		}()
	}

	rep := h.runWindows(eventDescs)
	close(h.stopCh)
	chaosWG.Wait()
	h.finish(rep)
	return rep, nil
}

// runWindows is the main measurement loop: it ticks until the configured
// duration elapses, keeping the simulated-time high-water mark and closing
// an SLO window every cfg.Window.
func (h *Harness) runWindows(eventDescs []string) *Report {
	rep := newReport(h.cfg, eventDescs)
	start := time.Now()
	h.mu.Lock()
	h.startSec = start
	h.mu.Unlock()
	windowStart := start
	ticker := time.NewTicker(50 * time.Millisecond)
	defer ticker.Stop()
	for {
		<-ticker.C
		for _, s := range h.slots {
			if an, ok := s.get(); ok {
				if tti := uint64(an.TTI()); tti > h.simHighWater() {
					h.setSimHighWater(tti)
				}
			}
		}
		now := time.Now()
		if now.Sub(windowStart) >= h.cfg.Window {
			rep.addWindow(h.evalWindow(start, windowStart, now))
			windowStart = now
		}
		if now.Sub(start) >= h.cfg.Duration {
			if now.Sub(windowStart) >= h.cfg.Window/4 {
				rep.addWindow(h.evalWindow(start, windowStart, now))
			}
			rep.WallSeconds = now.Sub(start).Seconds()
			return rep
		}
	}
}

func (h *Harness) simHighWater() uint64 {
	h.mu.Lock()
	defer h.mu.Unlock()
	return h.simTTI
}

func (h *Harness) setSimHighWater(tti uint64) {
	h.mu.Lock()
	if tti > h.simTTI {
		h.simTTI = tti
	}
	h.mu.Unlock()
}

// finish runs the post-soak quiesce: heal every injector, clear worker
// faults, wait for full recovery, then evaluate the SLO gates.
func (h *Harness) finish(rep *Report) {
	for _, s := range h.slots {
		s.inj.Heal()
		s.inj.SetDelay(0)
		s.inj.SetDropRate(0)
		s.wf.SetStall(0, 0)
		s.wf.SetCrash(0)
	}
	recovered := waitUntil(nil, h.cfg.SLO.MaxMTTR, h.allCellsServed)
	rep.SimSeconds = float64(h.simHighWater()) * 0.001
	rep.Recovered = recovered
	rep.LostCells = h.lostCells()
	h.mu.Lock()
	rep.Chaos = append([]ChaosRecord(nil), h.chaos...)
	h.mu.Unlock()
	h.evalSLOs(rep)
}
