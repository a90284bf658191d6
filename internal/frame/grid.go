package frame

import (
	"fmt"

	"pran/internal/phy"
)

// Grid is one cell's frequency-domain resource grid for a single subframe:
// SymbolsPerSubframe OFDM symbols × (12 × PRB) subcarriers of constellation
// symbols. Two symbol indices are reserved for reference signals and carry
// no UE data, matching phy.DataREsPerPRB.
//
// The grid is the hand-off format between the fronthaul (which transports
// it, possibly compressed, as I/Q) and the transport processors (which read
// or write per-UE allocations). A Grid is reused across subframes via Reset.
type Grid struct {
	bw   phy.Bandwidth
	sc   int // subcarriers = 12 × PRB
	data []complex128
}

// Reference-signal symbol indices within the subframe (simplified cell-
// specific RS layout: one per slot).
var referenceSymbols = [phy.ReferenceSymbolsPerSubframe]int{3, 10}

// IsReferenceSymbol reports whether OFDM symbol index l carries reference
// signals rather than data.
func IsReferenceSymbol(l int) bool {
	for _, r := range referenceSymbols {
		if l == r {
			return true
		}
	}
	return false
}

// NewGrid allocates a grid for the bandwidth.
func NewGrid(bw phy.Bandwidth) (*Grid, error) {
	if err := bw.Validate(); err != nil {
		return nil, err
	}
	sc := bw.PRB() * phy.SubcarriersPerPRB
	return &Grid{bw: bw, sc: sc, data: make([]complex128, sc*phy.SymbolsPerSubframe)}, nil
}

// Subcarriers returns the number of active subcarriers per symbol.
func (g *Grid) Subcarriers() int { return g.sc }

// Reset zeroes all resource elements.
func (g *Grid) Reset() {
	for i := range g.data {
		g.data[i] = 0
	}
}

// Symbol returns the subcarrier slice of OFDM symbol l (0–13). The slice
// aliases the grid; writes are visible to subsequent reads.
func (g *Grid) Symbol(l int) ([]complex128, error) {
	if l < 0 || l >= phy.SymbolsPerSubframe {
		return nil, fmt.Errorf("frame: symbol %d out of [0,%d): %w", l, phy.SymbolsPerSubframe, phy.ErrBadParameter)
	}
	return g.data[l*g.sc : (l+1)*g.sc], nil
}

// allocationREs returns the number of data REs an allocation occupies.
func allocationREs(a Allocation) int { return a.NumPRB * phy.DataREsPerPRB }

// Place writes a UE's constellation symbols into the allocation's resource
// elements in frequency-first order, skipping reference symbols. len(syms)
// must equal NumPRB × DataREsPerPRB.
func (g *Grid) Place(a Allocation, syms []complex128) error {
	if err := a.Validate(g.bw); err != nil {
		return err
	}
	if len(syms) != allocationREs(a) {
		return fmt.Errorf("frame: %d symbols for %d REs: %w", len(syms), allocationREs(a), phy.ErrBadParameter)
	}
	scFirst := a.FirstPRB * phy.SubcarriersPerPRB
	scCount := a.NumPRB * phy.SubcarriersPerPRB
	i := 0
	for l := 0; l < phy.SymbolsPerSubframe; l++ {
		if IsReferenceSymbol(l) {
			continue
		}
		base := l*g.sc + scFirst
		copy(g.data[base:base+scCount], syms[i:i+scCount])
		i += scCount
	}
	return nil
}

// Extract reads a UE's resource elements into dst (len NumPRB ×
// DataREsPerPRB), the inverse of Place.
func (g *Grid) Extract(dst []complex128, a Allocation) error {
	if err := a.Validate(g.bw); err != nil {
		return err
	}
	if len(dst) != allocationREs(a) {
		return fmt.Errorf("frame: dst %d for %d REs: %w", len(dst), allocationREs(a), phy.ErrBadParameter)
	}
	scFirst := a.FirstPRB * phy.SubcarriersPerPRB
	scCount := a.NumPRB * phy.SubcarriersPerPRB
	i := 0
	for l := 0; l < phy.SymbolsPerSubframe; l++ {
		if IsReferenceSymbol(l) {
			continue
		}
		base := l*g.sc + scFirst
		copy(dst[i:i+scCount], g.data[base:base+scCount])
		i += scCount
	}
	return nil
}

// PRBAllocator packs per-UE PRB demands into a subframe left-to-right
// (first-fit). It is the minimal scheduler the workload generator and the
// examples need; PRAN programs can replace it through internal/ranapi.
type PRBAllocator struct {
	bw   phy.Bandwidth
	next int
}

// NewPRBAllocator returns an allocator for one subframe of the bandwidth.
func NewPRBAllocator(bw phy.Bandwidth) *PRBAllocator {
	return &PRBAllocator{bw: bw}
}

// Take reserves n contiguous PRBs and returns the first index, or false if
// the subframe cannot fit them.
func (p *PRBAllocator) Take(n int) (int, bool) {
	if n < 1 || p.next+n > p.bw.PRB() {
		return 0, false
	}
	first := p.next
	p.next += n
	return first, true
}
