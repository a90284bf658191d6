// Package controller implements PRAN's control plane: it watches per-cell
// compute demand, predicts its near future, sizes the active server set with
// headroom (elastic scaling), places cells onto servers (bin packing with
// minimal migration), and handles server failure by re-placing the victims
// onto survivors or promoted standbys.
//
// The controller is deliberately separable from transport: experiments drive
// Step directly with observed demands, while cmd/pran-sim wires the same
// logic to live data-plane agents through internal/ctrlproto.
//
// Concurrency: the control plane is single-threaded by design — a
// Controller (and its Predictor and Placer) must be driven from one
// goroutine; Step mutates placement state with no internal locking. The
// paper's "logically centralized" controller maps to exactly this: one
// decision loop. The fan-in side is the exception: per-agent reader
// goroutines feed cell-load reports into the LoadMonitor under its one
// lock, and the control loop drains the accumulated changes once per round
// (TakeChanges) to drive incremental placement.
package controller

import (
	"fmt"
	"sort"
	"sync"

	"pran/internal/frame"
	"pran/internal/phy"
)

// LoadMonitor maintains an exponentially weighted moving average of each
// cell's compute demand in reference-core fractions. Safe for concurrent
// use: heartbeat handlers feed it while the control loop reads, all under
// one mutex. It also tracks changes for the incremental placer: dirty maps
// each cell whose smoothed value moved since the last drain to that value,
// and removed holds the cells forgotten since then.
type LoadMonitor struct {
	alpha float64

	mu      sync.Mutex
	cells   map[frame.CellID]float64
	last    map[frame.CellID]float64
	dirty   map[frame.CellID]float64
	removed map[frame.CellID]struct{}
}

// NewLoadMonitor returns a monitor with smoothing factor alpha ∈ (0, 1];
// alpha 1 tracks instantaneous load, small alpha smooths heavily.
func NewLoadMonitor(alpha float64) (*LoadMonitor, error) {
	if alpha <= 0 || alpha > 1 {
		return nil, fmt.Errorf("controller: alpha %v outside (0,1]: %w", alpha, phy.ErrBadParameter)
	}
	return &LoadMonitor{
		alpha:   alpha,
		cells:   make(map[frame.CellID]float64),
		last:    make(map[frame.CellID]float64),
		dirty:   make(map[frame.CellID]float64),
		removed: make(map[frame.CellID]struct{}),
	}, nil
}

// Observe feeds one demand sample (core fractions) for a cell.
func (m *LoadMonitor) Observe(cell frame.CellID, demand float64) {
	if demand < 0 {
		demand = 0
	}
	m.mu.Lock()
	defer m.mu.Unlock()
	if old, ok := m.cells[cell]; ok {
		next := old + m.alpha*(demand-old)
		if next != old {
			m.cells[cell] = next
			m.dirty[cell] = next
		}
	} else {
		m.cells[cell] = demand
		m.dirty[cell] = demand
	}
	m.last[cell] = demand
	delete(m.removed, cell)
}

// Demand returns the smoothed demand for a cell (0 if never observed).
func (m *LoadMonitor) Demand(cell frame.CellID) float64 {
	m.mu.Lock()
	defer m.mu.Unlock()
	return m.cells[cell]
}

// Last returns the most recent raw sample for a cell.
func (m *LoadMonitor) Last(cell frame.CellID) float64 {
	m.mu.Lock()
	defer m.mu.Unlock()
	return m.last[cell]
}

// Demands returns a copy of all smoothed demands.
func (m *LoadMonitor) Demands() map[frame.CellID]float64 {
	m.mu.Lock()
	defer m.mu.Unlock()
	out := make(map[frame.CellID]float64, len(m.cells))
	for k, v := range m.cells {
		out[k] = v
	}
	return out
}

// TotalDemand returns the sum of smoothed demands.
func (m *LoadMonitor) TotalDemand() float64 {
	m.mu.Lock()
	defer m.mu.Unlock()
	total := 0.0
	for _, v := range m.cells {
		total += v
	}
	return total
}

// Cells returns the observed cell IDs in sorted order.
func (m *LoadMonitor) Cells() []frame.CellID {
	m.mu.Lock()
	out := make([]frame.CellID, 0, len(m.cells))
	for c := range m.cells {
		out = append(out, c)
	}
	m.mu.Unlock()
	sort.Slice(out, func(i, j int) bool { return out[i] < out[j] })
	return out
}

// Forget drops a cell's state (cell teardown).
func (m *LoadMonitor) Forget(cell frame.CellID) {
	m.mu.Lock()
	defer m.mu.Unlock()
	if _, ok := m.cells[cell]; !ok {
		return
	}
	delete(m.cells, cell)
	delete(m.last, cell)
	delete(m.dirty, cell)
	m.removed[cell] = struct{}{}
}

// ChangeSet is the demand churn accumulated between two TakeChanges calls.
type ChangeSet struct {
	// Updated maps each cell whose smoothed demand changed to its current
	// smoothed value.
	Updated map[frame.CellID]float64
	// Removed lists cells forgotten since the last drain.
	Removed []frame.CellID
}

// TakeChanges atomically drains and returns the change set accumulated
// since the last call — the incremental placer's input. An update racing
// the drain lands in this change set or the next, never lost. The drain
// swaps the tracking maps, so Observe never waits behind a copy.
func (m *LoadMonitor) TakeChanges() ChangeSet {
	m.mu.Lock()
	ch := ChangeSet{Updated: m.dirty}
	removed := m.removed
	m.dirty = make(map[frame.CellID]float64, len(ch.Updated))
	m.removed = make(map[frame.CellID]struct{})
	m.mu.Unlock()
	for c := range removed {
		ch.Removed = append(ch.Removed, c)
	}
	return ch
}
