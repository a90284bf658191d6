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
	"sync"

	"pran/internal/frame"
	"pran/internal/phy"
)

// LoadMonitor maintains an exponentially weighted moving average of each
// cell's compute demand in reference-core fractions. Safe for concurrent
// use: heartbeat handlers feed it while the control loop reads, all under
// one mutex. It also tracks changes for the incremental placer: dirty maps
// each cell whose smoothed value moved since the last drain to that value.
type LoadMonitor struct {
	alpha float64

	mu    sync.Mutex
	cells map[frame.CellID]float64
	dirty map[frame.CellID]float64
}

// NewLoadMonitor returns a monitor with smoothing factor alpha ∈ (0, 1];
// alpha 1 tracks instantaneous load, small alpha smooths heavily.
func NewLoadMonitor(alpha float64) (*LoadMonitor, error) {
	if alpha <= 0 || alpha > 1 {
		return nil, fmt.Errorf("controller: alpha %v outside (0,1]: %w", alpha, phy.ErrBadParameter)
	}
	return &LoadMonitor{
		alpha: alpha,
		cells: make(map[frame.CellID]float64),
		dirty: make(map[frame.CellID]float64),
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

// TakeChanges atomically drains the demand churn accumulated since the last
// call — the incremental placer's input: each cell whose smoothed demand
// changed, mapped to its current smoothed value. An update racing the drain
// lands in this drain or the next, never lost. The drain swaps the tracking
// map, so Observe never waits behind a copy.
func (m *LoadMonitor) TakeChanges() map[frame.CellID]float64 {
	m.mu.Lock()
	defer m.mu.Unlock()
	changed := m.dirty
	m.dirty = make(map[frame.CellID]float64, len(changed))
	return changed
}
