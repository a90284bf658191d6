package controller

import (
	"pran/internal/cluster"
	"pran/internal/frame"
)

// Incremental placement: most control rounds at city scale are small demand
// perturbations on a stable pool, where a full Place over every cell
// recomputes an answer that is provably identical to the placement already
// in force. placeCache tracks the demand snapshot and per-server loads
// behind the current placement so such rounds reduce to O(#changed cells +
// #servers) delta accounting plus a fit check.
//
// The fast path applies only when, relative to the cached placement:
//
//   - no cell appeared (a new cell needs packing; the monitor never drops
//     one),
//   - the active server set and every active capacity are unchanged (a
//     promotion, drain, or failure changes the bins), and
//   - after folding the demand deltas in, every server's total load fits
//     its capacity with slack ≥ placeSlack.
//
// Under those conditions Place's sticky pass keeps every cell at home: when
// a server's total load fits, the residual before each of its cells (in any
// processing order) is at least that cell's demand, so no cell goes
// homeless and the result equals the previous placement exactly — which is
// what the fast path returns. The slack margin absorbs the difference
// between this check's summation order and Place's sequential-subtraction
// arithmetic, so borderline-full servers fall back to the full recompute
// rather than risk diverging from it. Every other case (structural change,
// churn in the cell set, or a server within slack of full) re-runs Place,
// which is the definition of correct; the property test in
// placement_quick_test.go holds the two paths bit-identical.
type placeCache struct {
	valid bool
	// demands is the smoothed demand snapshot the placement was computed
	// from, kept current by folding in TakeChanges deltas on fast rounds.
	demands map[frame.CellID]float64
	// load is each active server's placed demand under that snapshot.
	load map[cluster.ServerID]float64
	// caps fingerprints the active server set: ID → capacity at placement
	// time.
	caps map[cluster.ServerID]float64
}

// placeSlack is the capacity margin (reference-core fractions) a server must
// retain for the fast path; it dominates the worst-case float accumulation
// error of O(1000) cell demands by several orders of magnitude.
const placeSlack = 1e-6

// invalidate drops the cache; the next round recomputes fully.
func (pc *placeCache) invalidate() { pc.valid = false }

// rebuild installs a freshly computed placement's backing state.
func (pc *placeCache) rebuild(demands map[frame.CellID]float64, load map[cluster.ServerID]float64, servers []cluster.Server) {
	pc.demands = demands
	pc.load = make(map[cluster.ServerID]float64, len(load))
	for id, l := range load {
		pc.load[id] = l
	}
	pc.caps = make(map[cluster.ServerID]float64)
	for _, s := range servers {
		if cap := s.Capacity(); cap > 0 {
			pc.caps[s.ID] = cap
		}
	}
	pc.valid = true
}

// tryIncremental attempts the fast path for one control round: fold the
// change set into the cached loads and keep the current placement if
// everything still fits. Returns false (leaving the cache untouched except
// for a possible invalidation-by-staleness) when a full recompute is
// required.
func (c *Controller) tryIncremental(changed map[frame.CellID]float64) bool {
	pc := &c.cache
	if !pc.valid {
		return false
	}
	// Structural check: the active set and capacities must match the
	// fingerprint exactly.
	nActive := 0
	for _, s := range c.cluster.Servers() {
		cap := s.Capacity()
		if cap <= 0 {
			continue
		}
		nActive++
		if pc.caps[s.ID] != cap {
			return false
		}
	}
	if nActive != len(pc.caps) {
		return false
	}
	// Every changed cell must already be placed (a new cell needs packing).
	for cell := range changed {
		if _, ok := c.placement[cell]; !ok {
			return false
		}
	}
	// Fold the deltas into a scratch copy of the loads and check fit.
	newLoad := make(map[cluster.ServerID]float64, len(pc.load))
	for id, l := range pc.load {
		newLoad[id] = l
	}
	for cell, d := range changed {
		srv := c.placement[cell]
		newLoad[srv] += d - pc.demands[cell]
	}
	for id, cap := range pc.caps {
		if newLoad[id] > cap-placeSlack {
			return false
		}
	}
	// Fits: the placement stands. Commit the folded state.
	pc.load = newLoad
	for cell, d := range changed {
		pc.demands[cell] = d
	}
	return true
}

// PlaceStats returns how many control rounds took the incremental fast path
// versus a full recompute. Safe to read concurrently with the control loop.
func (c *Controller) PlaceStats() (fast, full uint64) {
	return c.fastRounds.Load(), c.fullRounds.Load()
}
