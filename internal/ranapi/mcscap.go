package ranapi

import (
	"sync"

	"pran/internal/frame"
	"pran/internal/phy"
)

// MCSCapProgram clamps scheduled allocations' MCS to a per-cell cap — the
// scheduler-feedback half of the compute-aware degradation ladder. When a
// cell's pool runs degraded, the level's MCS cap is pushed here (see
// cluster.DegradationLevel.MCSCap), so future subframes arrive with smaller
// transport blocks that are cheaper to decode, complementing the per-decode
// knobs (iteration cap, kernel override) the pool already applies. A cap of
// phy.MaxMCS (or an absent entry) leaves a cell's scheduling untouched.
//
// Clamping runs in OnSubframe, before payload generation and HARQ tracking,
// so every downstream consumer — transport-block sizing, demand accounting,
// the decode itself — sees a consistent allocation.
type MCSCapProgram struct {
	mu   sync.Mutex
	caps map[frame.CellID]phy.MCS
}

// NewMCSCapProgram returns a program with no caps set.
func NewMCSCapProgram() *MCSCapProgram {
	return &MCSCapProgram{caps: make(map[frame.CellID]phy.MCS)}
}

// Name implements Program.
func (m *MCSCapProgram) Name() string { return "mcs-cap" }

// SetCap sets (or, at phy.MaxMCS, clears) a cell's MCS ceiling. Safe from
// any goroutine; takes effect from the next subframe.
func (m *MCSCapProgram) SetCap(cell frame.CellID, cap phy.MCS) {
	m.mu.Lock()
	defer m.mu.Unlock()
	if cap >= phy.MaxMCS {
		delete(m.caps, cell)
		return
	}
	m.caps[cell] = cap
}

// OnSubframe implements Program: allocations above the cell's cap are
// clamped down to it. PRB layout is untouched, so the work stays valid and
// non-overlapping. The allocation slice is copied before the first clamp —
// the input may alias the scheduler's own buffers.
func (m *MCSCapProgram) OnSubframe(w frame.SubframeWork) frame.SubframeWork {
	m.mu.Lock()
	cap, ok := m.caps[w.Cell]
	m.mu.Unlock()
	if !ok {
		return w
	}
	copied := false
	for i := range w.Allocations {
		if w.Allocations[i].MCS > cap {
			if !copied {
				w.Allocations = append([]frame.Allocation(nil), w.Allocations...)
				copied = true
			}
			w.Allocations[i].MCS = cap
		}
	}
	return w
}

// OnObservation implements Program (no-op).
func (m *MCSCapProgram) OnObservation(Observation) {}
