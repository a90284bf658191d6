package controller

import (
	"errors"
	"fmt"

	"pran/internal/cluster"
	"pran/internal/frame"
	"pran/internal/phy"
)

// DegradePolicy parameterizes degradation-aware placement: when demand
// exceeds every active and standby server, the controller raises hot
// cells' degradation levels — shrinking their priced demand by the
// per-level factor — and retries placement, shedding cells only once the
// whole pool runs at the deepest rung and still does not fit. This is the
// control-plane half of the ladder in cluster.DegradationLevel: the data
// plane's headroom controller reacts to queue pressure it can already see,
// while this path lets placement *plan* to run a cell degraded instead of
// rejecting it outright.
type DegradePolicy struct {
	// MaxLevel bounds how deep placement degrades a cell
	// (≤ cluster.MaxDegradationLevel).
	MaxLevel cluster.DegradationLevel
	// Factors[l] is the fraction of a cell's full-fidelity compute demand
	// it is priced at when running at level l. Factors[0] must be 1 and
	// the sequence must be positive and non-increasing — deeper rungs
	// never cost more.
	Factors [cluster.MaxDegradationLevel + 1]float64
}

// DefaultDegradePolicy returns demand factors matching the ladder's knobs
// under the cluster cost model: level 1's iteration cap trims the decode
// tail (~0.8×), level 2's forced int16 kernel is the big step (~0.35× —
// the int16 kernel's ~3× arithmetic speedup over float32, phy's
// BenchmarkTurboDecodeK6144Int16 against BenchmarkTurboDecodeK6144, plus a
// tighter cap), and level 3 only shaves further iterations on top (~0.3×;
// its HARQ shedding saves memory traffic, not modeled cycles).
func DefaultDegradePolicy() *DegradePolicy {
	return &DegradePolicy{
		MaxLevel: cluster.MaxDegradationLevel,
		Factors:  [cluster.MaxDegradationLevel + 1]float64{1, 0.8, 0.35, 0.3},
	}
}

// Validate checks the policy.
func (p *DegradePolicy) Validate() error {
	if err := p.MaxLevel.Validate(); err != nil {
		return err
	}
	if p.Factors[0] != 1 {
		return fmt.Errorf("controller: degrade factor at level 0 is %v, want 1: %w", p.Factors[0], phy.ErrBadParameter)
	}
	for l := 1; l < len(p.Factors); l++ {
		if p.Factors[l] <= 0 || p.Factors[l] > p.Factors[l-1] {
			return fmt.Errorf("controller: degrade factors %v not positive non-increasing: %w", p.Factors, phy.ErrBadParameter)
		}
	}
	return nil
}

// factor returns the demand multiplier for a level, clamped to the ladder.
func (p *DegradePolicy) factor(l cluster.DegradationLevel) float64 {
	return p.Factors[l.Clamp()]
}

// DegradationLevels returns a copy of the per-cell levels the last
// placement round assigned (empty when nothing runs degraded). The caller
// pushes these to the data-plane pools (Pool.SetCellLevel) and to the
// scheduler's MCS caps (ranapi.MCSCapProgram).
func (c *Controller) DegradationLevels() map[frame.CellID]cluster.DegradationLevel {
	out := make(map[frame.CellID]cluster.DegradationLevel, len(c.degLevels))
	for cell, lvl := range c.degLevels {
		out[cell] = lvl
	}
	return out
}

// undegradedDemands estimates every cell's full-fidelity demand: observed
// demand un-scaled by the factor of the level the cell currently runs at.
// Without this correction a degraded cell's shrunken observed demand would
// pass the undegraded-fit test and the controller would flap between
// degrading and clearing every round.
func (c *Controller) undegradedDemands() map[frame.CellID]float64 {
	demands := c.monitor.Demands()
	if c.cfg.Degrade == nil || len(c.degLevels) == 0 {
		return demands
	}
	for cell, lvl := range c.degLevels {
		if d, ok := demands[cell]; ok {
			demands[cell] = d / c.cfg.Degrade.factor(lvl)
		}
	}
	return demands
}

// placeWithDegradation is the overload path between standby exhaustion and
// shedding: raise the heaviest cell one rung at a time — recomputing its
// priced demand — until the degraded demand set fits, then commit the
// level assignment. Only when every cell sits at the policy's MaxLevel and
// placement still fails does the controller fall back to shedding, with
// the degraded (cheapest) demands. base holds full-fidelity demand
// estimates; the incremental cache stays invalid throughout, like the
// shedding path.
func (c *Controller) placeWithDegradation(base map[frame.CellID]float64, rep *StepReport) error {
	c.cache.invalidate()
	levels := make(map[frame.CellID]cluster.DegradationLevel, len(base))
	scaled := make(map[frame.CellID]float64, len(base))
	for cell, d := range base {
		scaled[cell] = d
	}
	for {
		// Raise the heaviest cell still below the cap (ties: lowest ID).
		var victim frame.CellID
		best := -1.0
		found := false
		for cell, d := range scaled {
			if levels[cell] >= c.cfg.Degrade.MaxLevel {
				continue
			}
			if d > best || (d == best && (!found || cell < victim)) {
				best, victim, found = d, cell, true
			}
		}
		if !found {
			// Whole pool at max depth and still unplaceable: shed, keeping
			// the surviving cells' degraded levels.
			c.degLevels = levels
			rep.Degraded = len(levels)
			return c.placeWithShedding(scaled, rep)
		}
		levels[victim]++
		scaled[victim] = base[victim] * c.cfg.Degrade.factor(levels[victim])
		res, err := Place(scaled, c.cluster.Servers(), c.placement, c.cfg.Policy)
		if err == nil {
			rep.Migrations = res.Migrations
			c.totalMigrations += uint64(res.Migrations)
			c.placement = res.Placement
			c.degLevels = levels
			rep.Degraded = len(levels)
			return nil
		}
		if !errors.Is(err, ErrUnplaceable) {
			return err
		}
	}
}
