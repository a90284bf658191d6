package cluster

import (
	"fmt"

	"pran/internal/phy"
)

// DegradationLevel is one rung of PRAN's compute-aware degradation ladder —
// the shared vocabulary between the data plane (whose headroom loop sets
// the level and whose workers execute degraded decodes) and the scheduler
// feedback path (MCS capping through ranapi). Raising the level trades a
// bounded amount of link performance for a large cut in compute per bit
// (Rost et al.'s complexity-rate tradeoff), turning the pool's overload
// cliff into a slope:
//
//	level 0: full service — the full turbo iteration budget, HARQ soft
//	         combining, no MCS cap.
//	level 1: turbo iterations capped at 4 (ample-margin decodes already
//	         early-terminate below that; edge-of-cliff decodes lose their
//	         long tail).
//	level 2: a tighter cap: iterations capped at 3.
//	level 3: iterations capped at 2 and HARQ retransmission combining shed:
//	         retransmissions decode fresh instead of accumulating LLRs,
//	         dropping the soft-buffer bookkeeping and its memory traffic.
//
// Each rung also carries an MCS cap fed back to the scheduler so future
// allocations arrive cheaper, not just decode cheaper. No rung raises
// per-TB decode work (enforced by the monotone ladder property test in
// internal/dataplane) or changes the CRC-pass/fail outcome of a block both
// rungs decode successfully — the iteration cap only forgoes decodes that
// needed the longer budget.
type DegradationLevel uint8

// The ladder's rungs, in increasing severity.
const (
	// DegradeNone is full service (the zero value).
	DegradeNone DegradationLevel = iota
	// DegradeIterCap caps turbo iterations.
	DegradeIterCap
	// DegradeTightCap caps turbo iterations tighter.
	DegradeTightCap
	// DegradeShedHARQ additionally sheds HARQ soft combining.
	DegradeShedHARQ

	// MaxDegradationLevel is the deepest rung.
	MaxDegradationLevel = DegradeShedHARQ
)

// degradeIterCaps[l] is the turbo iteration cap at level l (0 = the
// decoder's default budget of 8).
var degradeIterCaps = [MaxDegradationLevel + 1]int{0, 4, 3, 2}

// degradeMCSCaps[l] is the scheduler MCS cap at level l: the highest MCS the
// scheduler may assign to a cell running degraded. Level 0 is uncapped;
// the deeper rungs pull new allocations down the TBS ladder so arriving
// work is cheaper to decode, complementing the per-decode knobs.
var degradeMCSCaps = [MaxDegradationLevel + 1]phy.MCS{phy.MaxMCS, 22, 18, 14}

// Clamp limits the level to the ladder's range.
func (l DegradationLevel) Clamp() DegradationLevel {
	if l > MaxDegradationLevel {
		return MaxDegradationLevel
	}
	return l
}

// IterCap returns the turbo iteration cap this level imposes, or 0 for the
// decoder's default budget.
func (l DegradationLevel) IterCap() int { return degradeIterCaps[l.Clamp()] }

// ShedsHARQ reports whether this level sheds HARQ soft combining
// (retransmissions decode without accumulated LLRs).
func (l DegradationLevel) ShedsHARQ() bool { return l.Clamp() >= DegradeShedHARQ }

// MCSCap returns the highest MCS the scheduler should assign to a cell at
// this level (phy.MaxMCS = uncapped).
func (l DegradationLevel) MCSCap() phy.MCS { return degradeMCSCaps[l.Clamp()] }

// String implements fmt.Stringer.
func (l DegradationLevel) String() string {
	switch l.Clamp() {
	case DegradeNone:
		return "full"
	case DegradeIterCap:
		return "iter-cap"
	case DegradeTightCap:
		return "tight-cap"
	default:
		return "shed-harq"
	}
}

// Validate checks the level is a defined rung.
func (l DegradationLevel) Validate() error {
	if l > MaxDegradationLevel {
		return fmt.Errorf("cluster: degradation level %d beyond %d: %w", l, MaxDegradationLevel, phy.ErrBadParameter)
	}
	return nil
}
