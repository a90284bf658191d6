package ranapi

import (
	"fmt"
	"sync"

	"pran/internal/frame"
	"pran/internal/phy"
)

// ICICProgram implements soft-frequency-reuse inter-cell interference
// coordination — PRAN's flagship programmability example. Cells are assigned
// to one of three reuse groups; cell-edge UEs (those below the SNR
// threshold, i.e. most exposed to neighbour interference) are repacked into
// the cell's exclusive third of the band, while cell-centre UEs may use the
// remainder. With centralized processing this is a few lines of Go over the
// RAN API; in a distributed RAN it is an X2 protocol negotiation.
type ICICProgram struct {
	// EdgeSNRdB classifies UEs: allocations below this SNR are "edge".
	EdgeSNRdB float64
	// Groups maps each cell to its reuse group (0, 1, or 2). Cells absent
	// from the map pass through untouched.
	Groups map[frame.CellID]int
	// BW is the cell bandwidth the band partition is computed over.
	BW phy.Bandwidth

	mu      sync.Mutex
	dropped uint64
	moved   uint64
}

// NewICICProgram builds the program. Groups values must be 0, 1, or 2.
func NewICICProgram(bw phy.Bandwidth, edgeSNRdB float64, groups map[frame.CellID]int) (*ICICProgram, error) {
	if err := bw.Validate(); err != nil {
		return nil, err
	}
	for c, g := range groups {
		if g < 0 || g > 2 {
			return nil, fmt.Errorf("ranapi: cell %d in reuse group %d (want 0-2): %w", c, g, phy.ErrBadParameter)
		}
	}
	return &ICICProgram{EdgeSNRdB: edgeSNRdB, Groups: groups, BW: bw}, nil
}

// Name implements Program.
func (p *ICICProgram) Name() string { return "icic" }

// OnObservation implements Program (no-op).
func (p *ICICProgram) OnObservation(Observation) {}

// Moved and Dropped report how many allocations the program relocated or
// had to shed because the protected band was full.
func (p *ICICProgram) Moved() uint64 {
	p.mu.Lock()
	defer p.mu.Unlock()
	return p.moved
}

// Dropped reports shed allocations.
func (p *ICICProgram) Dropped() uint64 {
	p.mu.Lock()
	defer p.mu.Unlock()
	return p.dropped
}

// bandFor returns the PRB range [lo, hi) reserved for a reuse group.
func (p *ICICProgram) bandFor(group int) (int, int) {
	third := p.BW.PRB() / 3
	lo := group * third
	hi := lo + third
	if group == 2 {
		hi = p.BW.PRB()
	}
	return lo, hi
}

// OnSubframe repacks the subframe: edge UEs into the cell's reserved band,
// centre UEs into the remaining PRBs (which may include unused protected
// space — soft reuse). Allocations that no longer fit are shed.
func (p *ICICProgram) OnSubframe(w frame.SubframeWork) frame.SubframeWork {
	group, managed := p.Groups[w.Cell]
	if !managed || len(w.Allocations) == 0 {
		return w
	}
	lo, hi := p.bandFor(group)

	var edge, centre []frame.Allocation
	for _, a := range w.Allocations {
		if a.SNRdB < p.EdgeSNRdB {
			edge = append(edge, a)
		} else {
			centre = append(centre, a)
		}
	}

	out := w
	out.Allocations = make([]frame.Allocation, 0, len(w.Allocations))
	var moved, dropped uint64

	// Edge UEs pack left-to-right inside the protected band.
	next := lo
	for _, a := range edge {
		if next+a.NumPRB > hi {
			dropped++
			continue
		}
		if a.FirstPRB != next {
			moved++
		}
		a.FirstPRB = next
		next += a.NumPRB
		out.Allocations = append(out.Allocations, a)
	}
	// Centre UEs pack into what remains: first the band above the
	// protected region, then below it.
	regions := [][2]int{{hi, p.BW.PRB()}, {0, lo}}
	// Treat leftover protected space as usable by centre UEs too (soft
	// reuse): extend the first region downward to where edge packing ended.
	regions = append([][2]int{{next, hi}}, regions...)
	ri := 0
	cur := regions[0][0]
	for _, a := range centre {
		placed := false
		for !placed && ri < len(regions) {
			end := regions[ri][1]
			if cur+a.NumPRB <= end {
				if a.FirstPRB != cur {
					moved++
				}
				a.FirstPRB = cur
				cur += a.NumPRB
				out.Allocations = append(out.Allocations, a)
				placed = true
			} else {
				ri++
				if ri < len(regions) {
					cur = regions[ri][0]
				}
			}
		}
		if !placed {
			dropped++
		}
	}

	p.mu.Lock()
	p.moved += moved
	p.dropped += dropped
	p.mu.Unlock()
	return out
}
