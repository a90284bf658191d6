package controller

import (
	"errors"
	"fmt"
	"sort"

	"pran/internal/cluster"
	"pran/internal/frame"
)

// ErrUnplaceable indicates demand that does not fit the active capacity.
var ErrUnplaceable = errors.New("controller: demand does not fit active capacity")

// PlacePolicy selects the bin-packing heuristic for cell placement.
type PlacePolicy int

// Placement policies (ablated in E9).
const (
	// FirstFitDecreasing packs big cells first into the lowest-ID server
	// with room — tight packing, fewer servers touched.
	FirstFitDecreasing PlacePolicy = iota
	// WorstFit places each cell on the server with the most residual
	// capacity — balanced load, more uniform queues.
	WorstFit
)

// String implements fmt.Stringer.
func (p PlacePolicy) String() string {
	if p == WorstFit {
		return "worst-fit"
	}
	return "first-fit-decreasing"
}

// Placement maps cells to servers.
type Placement map[frame.CellID]cluster.ServerID

// Migrations counts cells whose server differs between two placements
// (cells absent from either side don't count).
func (p Placement) Migrations(next Placement) int {
	n := 0
	for cell, srv := range p {
		if ns, ok := next[cell]; ok && ns != srv {
			n++
		}
	}
	return n
}

// PlaceResult reports a placement computation.
type PlaceResult struct {
	// Placement is the new cell→server assignment.
	Placement Placement
	// Migrations counts cells moved relative to the previous placement.
	Migrations int
	// ServerLoad is each active server's packed demand in core fractions.
	ServerLoad map[cluster.ServerID]float64
}

// Place computes an assignment of cells (with the given demands, in core
// fractions) onto the active servers. prev, when non-nil, is the current
// placement: cells stay put when their server still has room (minimizing
// migration), and only the remainder is re-packed with the policy. Returns
// ErrUnplaceable when total demand exceeds what the active servers fit.
func Place(demands map[frame.CellID]float64, servers []cluster.Server, prev Placement, policy PlacePolicy) (PlaceResult, error) {
	active := make(map[cluster.ServerID]float64) // residual capacity
	for _, s := range servers {
		if cap := s.Capacity(); cap > 0 {
			active[s.ID] = cap
		}
	}
	if len(active) == 0 && len(demands) > 0 {
		return PlaceResult{}, fmt.Errorf("no active servers for %d cells: %w", len(demands), ErrUnplaceable)
	}
	next := make(Placement, len(demands))
	load := make(map[cluster.ServerID]float64, len(active))

	// Deterministic cell order: by demand descending, then ID.
	cells := make([]frame.CellID, 0, len(demands))
	for c := range demands {
		cells = append(cells, c)
	}
	sort.Slice(cells, func(i, j int) bool {
		if demands[cells[i]] != demands[cells[j]] {
			return demands[cells[i]] > demands[cells[j]]
		}
		return cells[i] < cells[j]
	})

	// Pass 1: sticky placement.
	var homeless []frame.CellID
	for _, c := range cells {
		d := demands[c]
		if prev != nil {
			if srv, ok := prev[c]; ok {
				if rem, up := active[srv]; up && rem >= d {
					next[c] = srv
					active[srv] -= d
					load[srv] += d
					continue
				}
			}
		}
		homeless = append(homeless, c)
	}

	// Deterministic server order for the packing pass.
	ids := make([]cluster.ServerID, 0, len(active))
	for id := range active {
		ids = append(ids, id)
	}
	sort.Slice(ids, func(i, j int) bool { return ids[i] < ids[j] })

	// Pass 2: pack the rest.
	for _, c := range homeless {
		d := demands[c]
		var target cluster.ServerID
		found := false
		switch policy {
		case WorstFit:
			best := -1.0
			for _, id := range ids {
				if active[id] >= d && active[id] > best {
					best = active[id]
					target = id
					found = true
				}
			}
		default: // FirstFitDecreasing
			for _, id := range ids {
				if active[id] >= d {
					target = id
					found = true
					break
				}
			}
		}
		if !found {
			return PlaceResult{}, fmt.Errorf("cell %d (%.3f cores) does not fit: %w", c, d, ErrUnplaceable)
		}
		next[c] = target
		active[target] -= d
		load[target] += d
	}

	res := PlaceResult{Placement: next, ServerLoad: load}
	if prev != nil {
		res.Migrations = prev.Migrations(next)
	}
	return res, nil
}
