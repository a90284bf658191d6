// Package core assembles the PRAN system: RRH emulators feeding cell ingest
// paths, the shared worker pool running the real uplink DSP, the RAN-program
// registry rewriting schedules, and the controller observing demand and
// scaling/placing the pool. It is the library facade the examples and
// command-line tools build on; everything underneath remains individually
// usable.
//
// Concurrency: a System is driven by one goroutine calling Tick; the
// dataplane pool it owns runs its own worker goroutines, and results
// are joined back into the Tick goroutine before observations and control
// steps run. Only Tick's caller may touch the System; everything the pool
// touches crosses via the pool's channels.
package core

import (
	"errors"
	"fmt"
	"math"
	"time"

	"pran/internal/cluster"
	"pran/internal/controller"
	"pran/internal/dataplane"
	"pran/internal/frame"
	"pran/internal/phy"
	"pran/internal/ranapi"
	"pran/internal/traffic"
)

// CellSpec pairs a cell's radio configuration with its workload profile.
type CellSpec struct {
	// Config is the radio configuration.
	Config frame.CellConfig
	// Profile is the traffic profile.
	Profile traffic.CellProfile
}

// ClusterSpec sizes the simulated server pool the controller manages.
type ClusterSpec struct {
	// Servers is the total pool size; Active of them start active.
	Servers, Active int
	// CoresPerServer and Speed describe each (homogeneous) server.
	CoresPerServer int
	Speed          float64
}

// Config assembles a System.
type Config struct {
	// Cells lists the cells to run. All must share one bandwidth.
	Cells []CellSpec
	// Pool configures the worker pool (measured-mode data plane).
	Pool dataplane.Config
	// Controller configures the control plane.
	Controller controller.Config
	// Cluster sizes the managed pool.
	Cluster ClusterSpec
	// CostModel attributes compute demand; zero value selects
	// cluster.DefaultCostModel. Whichever it is, it prices Pool.Decode — the
	// pipeline the pool runs — not the profile it arrived with.
	CostModel cluster.CostModel
	// Seed makes runs reproducible.
	Seed int64
	// StartHour is the time-of-day at TTI 0.
	StartHour float64
	// ControlPeriodTTIs is the controller step cadence (default 100).
	ControlPeriodTTIs int
	// Realtime paces RunTTIs so each subframe occupies DeadlineScale × 1 ms
	// of wall-clock time, matching the deadline budget the pool enforces.
	// Without it the run floods the pool as fast as signals can be
	// synthesized (useful for throughput tests, meaningless for deadline
	// measurements).
	Realtime bool
}

// System is a running PRAN instance.
type System struct {
	cfg      Config
	model    cluster.CostModel
	gen      *traffic.Generator
	rrhs     []*dataplane.RRHEmulator
	cells    []*dataplane.CellProcessor
	pool     *dataplane.Pool
	ctl      *controller.Controller
	registry *ranapi.Registry

	tti        frame.TTI
	cellDemand []float64 // per-cell demand accumulated this control period
	demandTTIs int
	harq       []*harqLoop // per-cell HARQ retransmission loops

	// mcsCap is the auto-registered scheduler-feedback program: every
	// control period it receives each cell's degradation-ladder MCS cap, so
	// a degraded cell's future subframes arrive with cheaper transport
	// blocks.
	mcsCap *ranapi.MCSCapProgram
	// ctlLevels is the controller's last pushed per-cell level set, kept
	// to reset cells the controller stops degrading.
	ctlLevels map[frame.CellID]cluster.DegradationLevel

	closed bool
}

// New validates the configuration and builds the system.
func New(cfg Config) (*System, error) {
	if len(cfg.Cells) == 0 {
		return nil, fmt.Errorf("core: no cells: %w", phy.ErrBadParameter)
	}
	bw := cfg.Cells[0].Config.Bandwidth
	profiles := make([]traffic.CellProfile, len(cfg.Cells))
	for i, c := range cfg.Cells {
		if err := c.Config.Validate(); err != nil {
			return nil, err
		}
		if c.Config.Bandwidth != bw {
			return nil, fmt.Errorf("core: cell %d bandwidth differs: %w", c.Config.ID, phy.ErrBadParameter)
		}
		if err := c.Profile.Validate(); err != nil {
			return nil, err
		}
		profiles[i] = c.Profile
	}
	if cfg.ControlPeriodTTIs <= 0 {
		cfg.ControlPeriodTTIs = 100
	}
	model := cfg.CostModel
	if model.Validate() != nil {
		model = cluster.DefaultCostModel()
	}
	model = model.WithProfile(cfg.Pool.Decode)

	gen, err := traffic.NewGenerator(bw, profiles, cfg.Seed, cfg.StartHour)
	if err != nil {
		return nil, err
	}
	pool, err := dataplane.NewPool(cfg.Pool)
	if err != nil {
		return nil, err
	}
	cl, err := cluster.Uniform(cfg.Cluster.Servers, cfg.Cluster.Active, cfg.Cluster.CoresPerServer, cfg.Cluster.Speed)
	if err != nil {
		_ = pool.Close()
		return nil, err
	}
	ctl, err := controller.New(cfg.Controller, cl)
	if err != nil {
		_ = pool.Close()
		return nil, err
	}

	s := &System{
		cfg:        cfg,
		model:      model,
		gen:        gen,
		pool:       pool,
		ctl:        ctl,
		registry:   ranapi.NewRegistry(),
		cellDemand: make([]float64, len(cfg.Cells)),
		ctlLevels:  make(map[frame.CellID]cluster.DegradationLevel),
	}
	s.mcsCap = ranapi.NewMCSCapProgram()
	if err := s.registry.Register(s.mcsCap); err != nil {
		_ = pool.Close()
		return nil, err
	}
	for i, c := range cfg.Cells {
		rrh, err := dataplane.NewRRHEmulator(c.Config, cfg.Seed+int64(i)*131)
		if err != nil {
			_ = pool.Close()
			return nil, err
		}
		cp, err := dataplane.NewCellProcessor(c.Config, pool)
		if err != nil {
			_ = pool.Close()
			return nil, err
		}
		s.rrhs = append(s.rrhs, rrh)
		s.cells = append(s.cells, cp)
		s.harq = append(s.harq, newHARQLoop())
	}
	return s, nil
}

// Programs exposes the RAN-program registry.
func (s *System) Programs() *ranapi.Registry { return s.registry }

// Controller exposes the control plane.
func (s *System) Controller() *controller.Controller { return s.ctl }

// Pool exposes the data-plane worker pool.
func (s *System) Pool() *dataplane.Pool { return s.pool }

// CostModel returns the demand-attribution model in use.
func (s *System) CostModel() cluster.CostModel { return s.model }

// TTI returns the current subframe counter.
func (s *System) TTI() frame.TTI { return s.tti }

// NumCells returns the cell count.
func (s *System) NumCells() int { return len(s.cells) }

// RunTTIs advances the system n subframes in measured mode: per cell it
// generates the schedule, applies RAN programs, synthesizes the uplink
// signal, and ingests it into the pool; the controller steps every
// ControlPeriodTTIs with the cost model's demand attribution.
func (s *System) RunTTIs(n int) error {
	if s.closed {
		return errors.New("core: system closed")
	}
	ttiWall := time.Duration(float64(time.Millisecond) * s.cfg.Pool.DeadlineScale)
	next := time.Now()
	for i := 0; i < n; i++ {
		if s.cfg.Realtime {
			if now := time.Now(); next.After(now) {
				time.Sleep(next.Sub(now))
			}
			next = next.Add(ttiWall)
		}
		for ci := range s.cells {
			work, err := s.gen.Subframe(ci, s.tti)
			if err != nil {
				return err
			}
			work = s.registry.Apply(work)
			if err := work.Validate(s.cfg.Cells[ci].Config.Bandwidth); err != nil {
				return fmt.Errorf("core: RAN program produced invalid work: %w", err)
			}
			// HARQ: due retransmissions preempt fresh traffic on their PRBs.
			loop := s.harq[ci]
			overrides := loop.inject(&work)
			payloads, err := s.rrhs[ci].RandomPayloads(work)
			if err != nil {
				return err
			}
			for idx, tb := range overrides {
				payloads[idx] = tb
			}
			samples, err := s.rrhs[ci].Emit(work, payloads)
			if err != nil {
				return err
			}
			// Map each task back to its transmitted TB for the HARQ loop
			// (allocations are PRB-disjoint, so RNTI+FirstPRB is unique).
			type akey struct {
				rnti  frame.RNTI
				first int
			}
			byAlloc := make(map[akey][]byte, len(work.Allocations))
			for idx, a := range work.Allocations {
				byAlloc[akey{a.RNTI, a.FirstPRB}] = payloads[idx]
			}
			onDone := func(t *dataplane.Task) {
				loop.onTaskDone(t, byAlloc[akey{t.Alloc.RNTI, t.Alloc.FirstPRB}])
			}
			if err := s.cells[ci].IngestSubframe(samples, work, onDone); err != nil {
				return err
			}
			// Demand attribution and observation fan-out.
			cost := s.model.SubframeCost(work, s.cfg.Cells[ci].Config.Bandwidth, s.cfg.Cells[ci].Config.Antennas)
			demand := cluster.CoreFraction(cost)
			s.cellDemand[ci] += demand
			var snrSum float64
			for _, a := range work.Allocations {
				snrSum += a.SNRdB
			}
			obs := ranapi.Observation{
				Cell:        work.Cell,
				TTI:         work.TTI,
				UsedPRB:     work.UsedPRB(),
				NumUEs:      len(work.Allocations),
				DemandCores: demand,
			}
			if len(work.Allocations) > 0 {
				obs.AvgSNRdB = snrSum / float64(len(work.Allocations))
			}
			s.registry.Observe(obs)
		}
		s.demandTTIs++
		s.tti++
		if s.demandTTIs >= s.cfg.ControlPeriodTTIs {
			for ci := range s.cells {
				avg := s.cellDemand[ci] / float64(s.demandTTIs)
				s.ctl.ObserveCell(s.cfg.Cells[ci].Config.ID, avg)
				s.cellDemand[ci] = 0
			}
			s.demandTTIs = 0
			if _, err := s.ctl.Step(); err != nil {
				return err
			}
			s.syncDegradation()
		}
	}
	return nil
}

// MCSCaps exposes the auto-registered scheduler-feedback program.
func (s *System) MCSCaps() *ranapi.MCSCapProgram { return s.mcsCap }

// syncDegradation runs after every control step: the controller's
// degradation-aware placement decisions flow down to the data-plane pool
// (per-cell levels), and each cell's effective level — whether set by the
// controller or by the pool's own headroom loop — flows back to the
// scheduler as an MCS cap. With no DegradePolicy on the controller the
// level map is always empty and only the cap feedback runs.
func (s *System) syncDegradation() {
	levels := s.ctl.DegradationLevels()
	for cell, prev := range s.ctlLevels {
		if _, still := levels[cell]; !still && prev != cluster.DegradeNone {
			_ = s.pool.SetCellLevel(cell, cluster.DegradeNone)
		}
	}
	for cell, lvl := range levels {
		_ = s.pool.SetCellLevel(cell, lvl)
	}
	s.ctlLevels = levels
	for ci := range s.cells {
		id := s.cfg.Cells[ci].Config.ID
		s.mcsCap.SetCap(id, s.pool.CellLevel(id).MCSCap())
	}
}

// Drain waits for all in-flight decode tasks to finish.
func (s *System) Drain() { s.pool.Drain() }

// Close shuts the data plane down. Safe to call twice.
func (s *System) Close() error {
	if s.closed {
		return nil
	}
	s.closed = true
	return s.pool.Close()
}

// DefaultCells builds n small cells with the standard class mix — the
// convenient starting point for examples and tests. bw must be a standard
// bandwidth; antennas applies to every cell.
func DefaultCells(n int, bw phy.Bandwidth, antennas int) []CellSpec {
	classes := traffic.StandardMix(n)
	out := make([]CellSpec, n)
	for i := range out {
		out[i] = CellSpec{
			Config: frame.CellConfig{
				ID:        frame.CellID(i),
				PCI:       uint16((i * 3) % 504),
				Bandwidth: bw,
				Antennas:  antennas,
			},
			Profile: traffic.DefaultProfile(classes[i]),
		}
	}
	return out
}

// HARQStatsTotal sums the per-cell HARQ retransmission statistics.
func (s *System) HARQStatsTotal() HARQStats {
	var total HARQStats
	for _, h := range s.harq {
		st := h.snapshot()
		total.FirstTxFailures += st.FirstTxFailures
		total.Retransmissions += st.Retransmissions
		total.Recovered += st.Recovered
		total.Exhausted += st.Exhausted
	}
	return total
}

// MeasuredMissRate is a convenience: run n TTIs and report the pool's task
// deadline-miss rate at the end (after draining).
func (s *System) MeasuredMissRate(n int) (float64, error) {
	if err := s.RunTTIs(n); err != nil {
		return 0, err
	}
	s.Drain()
	return s.pool.Stats().MissRate(), nil
}

// SuggestedDeadlineScale calibrates a deadline scale for the given
// bandwidth so measured-mode runs behave like the paper's optimized stack
// (see dataplane.CalibrateDeadlineScale, which times the default decode
// path — what a pool built from this package's Config runs). The scale is
// rounded up to avoid borderline flakiness across runs.
func SuggestedDeadlineScale(bw phy.Bandwidth) (float64, error) {
	s, err := dataplane.CalibrateDeadlineScale(bw, 16)
	if err != nil {
		return 0, err
	}
	return math.Ceil(s), nil
}

// CalibrateScale sizes Config.Pool.DeadlineScale against the *actual*
// workload: it runs a throwaway copy of the configuration unpaced for
// warmupTTIs subframes, measures the pool's real compute per TTI on this
// host, and returns the scale at which that load fills ~60% of the workers'
// scaled subframe budget — the compute-to-deadline ratio the paper's
// optimized stack ran at. This captures everything the single-decode
// calibration misses (per-UE overheads, iteration spread, cache warm-up).
func CalibrateScale(cfg Config, warmupTTIs int) (float64, error) {
	if warmupTTIs <= 0 {
		warmupTTIs = 100
	}
	trial := cfg
	trial.Realtime = false
	trial.Pool.DeadlineScale = 1e6 // never abandon during measurement
	trial.Pool.AbandonLate = false
	sys, err := New(trial)
	if err != nil {
		return 0, err
	}
	defer sys.Close()
	if err := sys.RunTTIs(warmupTTIs); err != nil {
		return 0, err
	}
	sys.Drain()
	st := sys.Pool().Stats()
	procPerTTI := st.ProcTime.Mean() * float64(st.ProcTime.Count()) / float64(warmupTTIs)
	perWorkerMs := procPerTTI / float64(cfg.Pool.Workers) / 1e-3
	scale := math.Ceil(perWorkerMs / 0.6)
	if scale < 1 {
		scale = 1
	}
	return scale, nil
}
