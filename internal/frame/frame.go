// Package frame models LTE radio framing for the PRAN data plane: cells,
// transmission time intervals (TTIs), per-UE resource-block allocations, and
// the per-subframe resource grid that carries constellation symbols between
// the fronthaul and the transport-channel processors.
//
// The package is deliberately independent of both the DSP (internal/phy) and
// the execution machinery (internal/dataplane): it only describes *what* is
// scheduled where, which lets the traffic generator, the simulator, and the
// real data plane share one vocabulary.
//
// Concurrency: everything here is passive data. Values are safe to share
// between goroutines as long as at most one mutates at a time; in practice
// a SubframeWork and its Grid are built by one producer and handed off to
// the data plane, which treats them as read-only.
package frame

import (
	"errors"
	"fmt"

	"pran/internal/phy"
)

// Common sentinel errors.
var (
	// ErrOverlap indicates two allocations claim the same resource blocks.
	ErrOverlap = errors.New("allocation overlap")
	// ErrBounds indicates an allocation extends past the cell bandwidth.
	ErrBounds = errors.New("allocation out of bounds")
)

// TTI is an absolute subframe counter since system start (1 TTI = 1 ms).
type TTI uint64

// SFN returns the 10-bit LTE system frame number for the TTI.
func (t TTI) SFN() uint16 { return uint16(t / 10 % 1024) }

// Subframe returns the subframe index within the frame (0–9).
func (t TTI) Subframe() uint8 { return uint8(t % 10) }

// String implements fmt.Stringer.
func (t TTI) String() string {
	return fmt.Sprintf("tti=%d (sfn=%d sf=%d)", uint64(t), t.SFN(), t.Subframe())
}

// CellID identifies a cell (sector) within the PRAN deployment.
type CellID uint16

// CellConfig is the static radio configuration of one cell.
type CellConfig struct {
	// ID is the PRAN-internal cell identifier.
	ID CellID
	// PCI is the physical cell identity used in scrambling (0–503).
	PCI uint16
	// Bandwidth selects the channel bandwidth (PRB count, FFT size).
	Bandwidth phy.Bandwidth
	// Antennas is the number of receive antennas at the RRH.
	Antennas int
}

// Validate checks the configuration.
func (c CellConfig) Validate() error {
	if err := c.Bandwidth.Validate(); err != nil {
		return fmt.Errorf("cell %d: %w", c.ID, err)
	}
	if c.PCI > 503 {
		return fmt.Errorf("cell %d: PCI %d out of range: %w", c.ID, c.PCI, phy.ErrBadParameter)
	}
	if c.Antennas < 1 || c.Antennas > 8 {
		return fmt.Errorf("cell %d: %d antennas out of [1,8]: %w", c.ID, c.Antennas, phy.ErrBadParameter)
	}
	return nil
}

// RNTI is a radio network temporary identifier naming one UE in a cell.
type RNTI uint16

// Allocation assigns a contiguous range of PRBs in one subframe to one UE's
// transport block.
type Allocation struct {
	// RNTI identifies the UE within the cell.
	RNTI RNTI
	// FirstPRB is the first allocated resource block (0-based).
	FirstPRB int
	// NumPRB is the number of contiguous resource blocks.
	NumPRB int
	// MCS selects modulation and code rate.
	MCS phy.MCS
	// Dir is the transport direction; the data plane handles only
	// phy.Uplink, the zero value.
	Dir phy.Direction
	// HARQProcess is the HARQ process number (0–7).
	HARQProcess uint8
	// RV is the redundancy version of this (re)transmission (0–3).
	RV uint8
	// SNRdB is the estimated link SNR the receiver should demodulate at.
	SNRdB float64
}

// Validate checks the allocation against a cell's bandwidth.
func (a Allocation) Validate(bw phy.Bandwidth) error {
	if a.NumPRB < 1 {
		return fmt.Errorf("alloc rnti=%d: NumPRB=%d: %w", a.RNTI, a.NumPRB, phy.ErrBadParameter)
	}
	if a.FirstPRB < 0 || a.FirstPRB+a.NumPRB > bw.PRB() {
		return fmt.Errorf("alloc rnti=%d: PRBs [%d,%d) exceed %d: %w",
			a.RNTI, a.FirstPRB, a.FirstPRB+a.NumPRB, bw.PRB(), ErrBounds)
	}
	if err := a.MCS.Validate(); err != nil {
		return err
	}
	if a.HARQProcess > 7 {
		return fmt.Errorf("alloc rnti=%d: HARQ process %d: %w", a.RNTI, a.HARQProcess, phy.ErrBadParameter)
	}
	if a.RV > 3 {
		return fmt.Errorf("alloc rnti=%d: RV %d: %w", a.RNTI, a.RV, phy.ErrBadParameter)
	}
	return nil
}

// TransportBlockSize returns the allocation's TB payload size in bits.
func (a Allocation) TransportBlockSize() (int, error) {
	return a.MCS.TransportBlockSize(a.NumPRB)
}

// SubframeWork is everything the data plane needs to process one cell's
// subframe: the identity of the subframe plus all UE allocations in it.
type SubframeWork struct {
	// Cell identifies the cell this subframe belongs to.
	Cell CellID
	// TTI is the absolute subframe counter.
	TTI TTI
	// Allocations lists the scheduled UEs, non-overlapping in PRB space.
	Allocations []Allocation
}

// Validate checks every allocation and their pairwise disjointness.
func (w SubframeWork) Validate(bw phy.Bandwidth) error {
	used := make([]bool, bw.PRB())
	for _, a := range w.Allocations {
		if err := a.Validate(bw); err != nil {
			return err
		}
		for p := a.FirstPRB; p < a.FirstPRB+a.NumPRB; p++ {
			if used[p] {
				return fmt.Errorf("cell %d %v: PRB %d claimed twice: %w", w.Cell, w.TTI, p, ErrOverlap)
			}
			used[p] = true
		}
	}
	return nil
}

// UsedPRB returns the total number of allocated resource blocks.
func (w SubframeWork) UsedPRB() int {
	n := 0
	for _, a := range w.Allocations {
		n += a.NumPRB
	}
	return n
}
