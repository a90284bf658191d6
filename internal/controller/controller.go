package controller

import (
	"errors"
	"fmt"
	"sync/atomic"

	"pran/internal/cluster"
	"pran/internal/frame"
	"pran/internal/phy"
)

// Mode selects how the controller sizes capacity.
type Mode int

// Scaling modes (compared in E6).
const (
	// Reactive sizes capacity from current smoothed demand only.
	Reactive Mode = iota
	// Predictive sizes capacity from the Holt forecast, pre-provisioning
	// ahead of ramps.
	Predictive
)

// String implements fmt.Stringer.
func (m Mode) String() string {
	if m == Predictive {
		return "predictive"
	}
	return "reactive"
}

// Config parameterizes a Controller.
type Config struct {
	// Mode selects reactive or predictive scaling.
	Mode Mode
	// MonitorAlpha is the per-cell demand EWMA gain.
	MonitorAlpha float64
	// HoltAlpha and HoltBeta are the forecast gains.
	HoltAlpha, HoltBeta float64
	// ForecastSteps is how many control rounds ahead predictive mode
	// provisions for.
	ForecastSteps int
	// Scale is the headroom/hysteresis policy; nil selects defaults.
	Scale *ScalePolicy
	// Policy is the placement heuristic.
	Policy PlacePolicy
}

// DefaultConfig returns the controller defaults used by the experiments.
func DefaultConfig() Config {
	return Config{
		Mode:          Predictive,
		MonitorAlpha:  0.3,
		HoltAlpha:     0.4,
		HoltBeta:      0.2,
		ForecastSteps: 3,
		Scale:         DefaultScalePolicy(),
		Policy:        FirstFitDecreasing,
	}
}

// StepReport summarizes one control round.
type StepReport struct {
	// Demand is the current total smoothed demand (core fractions).
	Demand float64
	// Forecast is the demand the round provisioned for.
	Forecast float64
	// Active and Standby are the post-round server counts.
	Active, Standby int
	// Promotions and Demotions count server state changes this round.
	Promotions, Demotions int
	// Migrations counts cells moved this round.
	Migrations int
	// Unplaceable is true when demand exceeded all capacity even after
	// promoting every standby, so the round shed cells.
	Unplaceable bool
	// Dropped are cells that could not be placed (overload shedding).
	Dropped []frame.CellID
}

// Controller is PRAN's logically centralized control plane.
// Not safe for concurrent use except where noted: feed demands from any
// goroutine (the monitor locks), but Step and OnServerFailure must be
// serialized.
type Controller struct {
	cfg     Config
	cluster *cluster.Cluster
	monitor *LoadMonitor
	pred    *Predictor

	placement Placement
	// cache backs the incremental fast path (see incremental.go).
	cache placeCache
	// fullRecompute skips the fast path every round. The fast path falls
	// back to exactly that computation, so only the equivalence property
	// test sets it, as the fast path's oracle.
	fullRecompute bool

	// cumulative statistics
	rounds, totalMigrations, totalPromotions uint64
	// fast/full round counters are atomic so observers (experiments,
	// telemetry) may read them while the control loop runs.
	fastRounds, fullRounds atomic.Uint64
}

// New builds a controller over the cluster.
func New(cfg Config, cl *cluster.Cluster) (*Controller, error) {
	if cfg.Scale == nil {
		cfg.Scale = DefaultScalePolicy()
	}
	if err := cfg.Scale.Validate(); err != nil {
		return nil, err
	}
	if cfg.ForecastSteps < 0 {
		return nil, fmt.Errorf("controller: forecast steps %d: %w", cfg.ForecastSteps, phy.ErrBadParameter)
	}
	mon, err := NewLoadMonitor(cfg.MonitorAlpha)
	if err != nil {
		return nil, err
	}
	pred, err := NewPredictor(cfg.HoltAlpha, cfg.HoltBeta)
	if err != nil {
		return nil, err
	}
	return &Controller{
		cfg:       cfg,
		cluster:   cl,
		monitor:   mon,
		pred:      pred,
		placement: make(Placement),
	}, nil
}

// Monitor exposes the demand monitor (heartbeat handlers feed it).
func (c *Controller) Monitor() *LoadMonitor { return c.monitor }

// Placement returns the current cell→server assignment (live map; treat as
// read-only).
func (c *Controller) Placement() Placement { return c.placement }

// Cluster returns the managed cluster.
func (c *Controller) Cluster() *cluster.Cluster { return c.cluster }

// Stats returns cumulative (rounds, migrations, promotions).
func (c *Controller) Stats() (rounds, migrations, promotions uint64) {
	return c.rounds, c.totalMigrations, c.totalPromotions
}

// ObserveCell feeds one demand sample for a cell (reference-core
// fractions). In networked deployments the heartbeat handler calls this.
func (c *Controller) ObserveCell(cell frame.CellID, demand float64) {
	c.monitor.Observe(cell, demand)
}

// meanServerCapacity returns the mean capacity of non-failed servers
// (homogeneous pools in practice; the mean keeps heterogeneous ones sane).
func (c *Controller) meanServerCapacity() float64 {
	total, n := 0.0, 0
	for _, s := range c.cluster.Servers() {
		if s.State == cluster.Failed {
			continue
		}
		total += float64(s.Cores) * s.SpeedFactor
		n++
	}
	if n == 0 {
		return 0
	}
	return total / float64(n)
}

// Step runs one control round: forecast, scale, place.
func (c *Controller) Step() (StepReport, error) {
	c.rounds++
	var rep StepReport
	rep.Demand = c.monitor.TotalDemand()
	c.pred.Observe(rep.Demand)
	rep.Forecast = rep.Demand
	if c.cfg.Mode == Predictive {
		rep.Forecast = c.pred.Forecast(c.cfg.ForecastSteps)
		if rep.Forecast < rep.Demand {
			// Never provision below what is already observed.
			rep.Forecast = rep.Demand
		}
	}

	perServer := c.meanServerCapacity()
	current := len(c.cluster.InState(cluster.Active))
	target := c.cfg.Scale.Target(rep.Forecast, perServer, current)

	// Scale up: promote standbys (lowest IDs first for determinism).
	for current < target {
		standbys := c.cluster.InState(cluster.Standby)
		if len(standbys) == 0 {
			break
		}
		if err := c.cluster.SetState(standbys[0].ID, cluster.Active); err != nil {
			return rep, err
		}
		rep.Promotions++
		c.totalPromotions++
		current++
	}
	// Scale down: drain the active server with the least placed load.
	for current > target && current > 1 {
		victim, ok := c.leastLoadedActive()
		if !ok {
			break
		}
		if err := c.cluster.SetState(victim, cluster.Draining); err != nil {
			return rep, err
		}
		rep.Demotions++
		current--
	}

	if err := c.place(&rep); err != nil {
		return rep, err
	}

	// Draining servers that lost all their cells become standby.
	for _, s := range c.cluster.InState(cluster.Draining) {
		if !c.hasCells(s.ID) {
			if err := c.cluster.SetState(s.ID, cluster.Standby); err != nil {
				return rep, err
			}
		}
	}
	counts := c.cluster.Counts()
	rep.Active = counts[cluster.Active]
	rep.Standby = counts[cluster.Standby]
	return rep, nil
}

// place updates the placement, promoting extra standbys if demand does not
// fit, and shedding cells only when the whole pool is exhausted. Rounds
// whose change set leaves the current placement provably optimal-by-
// construction take the incremental fast path (see incremental.go); the
// rest recompute fully, which is also the fallback that defines the fast
// path's correctness.
func (c *Controller) place(rep *StepReport) error {
	if !c.fullRecompute && c.tryIncremental(c.monitor.TakeChanges()) {
		rep.Migrations = 0
		c.fastRounds.Add(1)
		return nil
	}
	c.fullRounds.Add(1)
	demands := c.monitor.Demands()
	for {
		res, err := Place(demands, c.cluster.Servers(), c.placement, c.cfg.Policy)
		if err == nil {
			rep.Migrations = res.Migrations
			c.totalMigrations += uint64(res.Migrations)
			c.placement = res.Placement
			c.cache.rebuild(demands, res.ServerLoad, c.cluster.Servers())
			return nil
		}
		if !errors.Is(err, ErrUnplaceable) {
			c.cache.invalidate()
			return err
		}
		// Try promoting one more standby.
		standbys := c.cluster.InState(cluster.Standby)
		if len(standbys) == 0 {
			// Shed the smallest cells until the rest fits.
			return c.placeWithShedding(demands, rep)
		}
		if err := c.cluster.SetState(standbys[0].ID, cluster.Active); err != nil {
			c.cache.invalidate()
			return err
		}
		rep.Promotions++
		c.totalPromotions++
	}
}

// placeWithShedding drops the lightest cells until placement succeeds. The
// incremental cache stays invalid while shedding: an overloaded pool must
// re-evaluate what fits every round.
func (c *Controller) placeWithShedding(demands map[frame.CellID]float64, rep *StepReport) error {
	c.cache.invalidate()
	rep.Unplaceable = true
	remaining := make(map[frame.CellID]float64, len(demands))
	for k, v := range demands {
		remaining[k] = v
	}
	for len(remaining) > 0 {
		res, err := Place(remaining, c.cluster.Servers(), c.placement, c.cfg.Policy)
		if err == nil {
			rep.Migrations = res.Migrations
			c.totalMigrations += uint64(res.Migrations)
			c.placement = res.Placement
			return nil
		}
		if !errors.Is(err, ErrUnplaceable) {
			return err
		}
		// Drop the lightest remaining cell (least service impact).
		var victim frame.CellID
		best := -1.0
		for cell, d := range remaining {
			if best < 0 || d < best || (d == best && cell < victim) {
				best = d
				victim = cell
			}
		}
		delete(remaining, victim)
		rep.Dropped = append(rep.Dropped, victim)
	}
	c.placement = make(Placement)
	return nil
}

// hasCells reports whether any cell is placed on the server.
func (c *Controller) hasCells(id cluster.ServerID) bool {
	for _, srv := range c.placement {
		if srv == id {
			return true
		}
	}
	return false
}

// leastLoadedActive picks the active server with the least placed demand.
func (c *Controller) leastLoadedActive() (cluster.ServerID, bool) {
	demands := c.monitor.Demands()
	load := make(map[cluster.ServerID]float64)
	for cell, srv := range c.placement {
		load[srv] += demands[cell]
	}
	var best cluster.ServerID
	bestLoad := -1.0
	found := false
	for _, s := range c.cluster.InState(cluster.Active) {
		l := load[s.ID]
		if !found || l < bestLoad || (l == bestLoad && s.ID < best) {
			best, bestLoad, found = s.ID, l, true
		}
	}
	return best, found
}

// FailureReport summarizes failover handling.
type FailureReport struct {
	// LostCells are the cells that were on the failed server.
	LostCells []frame.CellID
	// Promotions counts standbys activated to absorb them.
	Promotions int
	// Dropped are cells that could not be recovered anywhere.
	Dropped []frame.CellID
}

// OnServerFailure marks the server failed and immediately re-places its
// cells onto the survivors, promoting standbys as needed — PRAN's fast
// failover path (E8).
func (c *Controller) OnServerFailure(id cluster.ServerID) (FailureReport, error) {
	var rep FailureReport
	if err := c.cluster.Fail(id); err != nil {
		return rep, err
	}
	// The placement is about to be mutated out from under the cache.
	c.cache.invalidate()
	for cell, srv := range c.placement {
		if srv == id {
			rep.LostCells = append(rep.LostCells, cell)
			delete(c.placement, cell)
		}
	}
	var step StepReport
	if err := c.place(&step); err != nil {
		return rep, err
	}
	rep.Promotions = step.Promotions
	rep.Dropped = step.Dropped
	return rep, nil
}
